// The pre-pipeline search backend: a standalone TwcaAnalyzer per
// candidate, no artifact reuse, strictly sequential.  It is the parity
// oracle of the search determinism tests and the cold baseline of
// bench/priority_search.cpp; production callers use
// search::PipelineEvaluator.

#ifndef WHARF_TESTS_SUPPORT_REFERENCE_EVALUATOR_HPP
#define WHARF_TESTS_SUPPORT_REFERENCE_EVALUATOR_HPP

#include <utility>
#include <vector>

#include "core/twca.hpp"
#include "search/priority_search.hpp"
#include "util/expect.hpp"

namespace wharf::search {

/// Scores every candidate from scratch through TwcaAnalyzer; objectives
/// must equal PipelineEvaluator's bit for bit.
class ReferenceEvaluator final : public Evaluator {
 public:
  explicit ReferenceEvaluator(System base, EvaluationSpec spec = {}, TwcaOptions options = {})
      : base_(std::move(base)), spec_(std::move(spec)), options_(options) {
    // Same target resolution (and messages) as PipelineEvaluator.
    WHARF_EXPECT(spec_.k >= 1, "evaluation horizon k must be >= 1, got " << spec_.k);
    targets_ = spec_.targets;
    if (targets_.empty()) {
      for (const int c : base_.regular_indices()) {
        if (base_.chain(c).deadline().has_value()) targets_.push_back(c);
      }
    }
    WHARF_EXPECT(!targets_.empty(),
                 "no evaluable chains (need non-overload chains with deadlines)");
  }

  [[nodiscard]] const System& base() const override { return base_; }

  [[nodiscard]] Objective evaluate(const std::vector<Priority>& priorities) override {
    const TwcaAnalyzer analyzer{base_.with_priorities(priorities), options_};
    Objective obj;
    for (const int c : targets_) {
      const DmmResult r = analyzer.dmm(c, spec_.k);
      if (r.dmm > 0) ++obj.chains_missing;
      obj.total_dmm += r.dmm;
      const LatencyResult lat = analyzer.latency(c);
      obj.total_wcl =
          sat_add(obj.total_wcl, lat.bounded ? lat.wcl : options_.analysis.divergence_guard);
    }
    ++evaluations_;
    return obj;
  }

  [[nodiscard]] EvaluatorStats stats() const override {
    EvaluatorStats stats;
    stats.evaluations = evaluations_;
    return stats;
  }

 private:
  System base_;
  EvaluationSpec spec_;
  std::vector<int> targets_;
  TwcaOptions options_;
  long long evaluations_ = 0;
};

}  // namespace wharf::search

#endif  // WHARF_TESTS_SUPPORT_REFERENCE_EVALUATOR_HPP
