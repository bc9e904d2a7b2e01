/// \file priority_search.hpp
/// Priority-assignment synthesis for weakly-hard systems.
///
/// The paper's Experiment 2 demonstrates that the priority assignment
/// decides both schedulability and the quality of the deadline miss
/// model; this module turns that observation into a design tool: search
/// the space of priority permutations for the assignment with the best
/// weakly-hard guarantees.  Three strategies with one shared objective:
///
///  * exhaustive enumeration (exact, factorial — small systems only);
///  * random sampling (the paper's Experiment 2 loop, kept as baseline);
///  * steepest-ascent hill climbing over pairwise priority swaps with
///    random restarts (scales to realistic task counts).
///
/// Scoring goes through the `Evaluator` boundary.  The production
/// backend, `PipelineEvaluator`, drives the Engine's staged pipeline
/// against a shared ArtifactStore: a candidate re-solves only the
/// artifacts whose model slices its priorities changed (a pairwise swap
/// typically recomputes ~2 of 2·N busy windows), neighborhoods are
/// scored as one work-pool-parallel batch, and identical concurrent
/// candidates share computation via the store's single-flight
/// resolve().  Results are bit-identical to sequential standalone
/// evaluation for any jobs value; the tests and bench_priority_search
/// check this against a from-scratch TwcaAnalyzer per candidate
/// (tests/support/reference_evaluator.hpp).

#ifndef WHARF_SEARCH_PRIORITY_SEARCH_HPP
#define WHARF_SEARCH_PRIORITY_SEARCH_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model_slice.hpp"
#include "core/twca.hpp"
#include "engine/artifact_store.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "engine/pipeline.hpp"

namespace wharf {
class Session;  // engine/session.hpp
}  // namespace wharf

namespace wharf::search {

/// Lexicographic quality of one priority assignment; *smaller is better*
/// and comparisons go field by field in declaration order:
/// fewer chains missing deadlines, then fewer total misses per horizon,
/// then lower total latency.
struct Objective {
  Count chains_missing = 0;  ///< #evaluated chains with dmm(k) > 0
  Count total_dmm = 0;       ///< sum of dmm(k) over evaluated chains
  Time total_wcl = 0;        ///< sum of WCL (divergence counts as a large penalty)

  friend auto operator<=>(const Objective&, const Objective&) = default;
};

/// What to evaluate: which chains (default: all non-overload chains with
/// a deadline) and at which dmm horizon k.
struct EvaluationSpec {
  Count k = 10;
  /// Chain indices to include; empty = all non-overload chains that have
  /// a deadline.
  std::vector<int> targets;
};

/// Telemetry of one Evaluator: how many candidates it scored and how the
/// artifact store served their stage lookups (all zero for backends that
/// do not cache).  `evaluations` counts every scored candidate over the
/// evaluator's lifetime, including nominal/baseline scores — search
/// algorithms count their own evaluations in SearchResult.
struct EvaluatorStats {
  long long evaluations = 0;
  std::array<StageDiagnostics, kArtifactStageCount> stages{};
  /// Per-chain key-fragment memo reuse (the cross-candidate slice memo
  /// shared by every speculative candidate session; zero for backends
  /// that do not cache).
  SliceCache::Stats slices;

  [[nodiscard]] std::size_t lookups() const;  ///< store lookups, summed over stages
  [[nodiscard]] std::size_t hits() const;    ///< served from the store
  [[nodiscard]] std::size_t misses() const;  ///< computed afresh
  [[nodiscard]] std::size_t shared() const;  ///< joined an in-flight compute
};

/// Scoring backend boundary: search algorithms see candidates in, one
/// Objective per candidate out.  Implementations must be pure in the
/// candidate — equal priorities yield equal objectives regardless of
/// history or concurrency — which is what makes batched scoring
/// bit-identical to sequential evaluation.
class Evaluator {
 public:
  /// Evaluators are owned and destroyed through this interface.
  virtual ~Evaluator();

  /// The base system whose task priorities are being searched.
  [[nodiscard]] virtual const System& base() const = 0;

  /// Scores one candidate assignment (flat task order; applied via
  /// System::with_priorities).
  [[nodiscard]] virtual Objective evaluate(const std::vector<Priority>& priorities) = 0;

  /// Scores a whole neighborhood, index-aligned with `candidates`.
  /// Backends may parallelize; the result is bit-identical to calling
  /// evaluate() element by element.  Default: the sequential loop.
  [[nodiscard]] virtual std::vector<Objective> evaluate_many(
      const std::vector<std::vector<Priority>>& candidates);

  /// Lifetime scoring and store telemetry of this evaluator.
  [[nodiscard]] virtual EvaluatorStats stats() const = 0;
};

/// The production backend: scores candidates through wharf::Session —
/// each candidate is a *delta batch* (one SetPriorityDelta per task the
/// candidate moves) speculated off a base session against the shared
/// ArtifactStore.  Every candidate session opens its own store epoch, so
/// reuse across candidates is observable as hits in stats(), and all
/// candidates share the base session's SliceCache (the cross-candidate
/// slice memo: a candidate re-serializes only the per-chain key
/// fragments its deltas touch).  evaluate_many() scores candidates on a
/// worker pool (`jobs`), with concurrent identical slices shared through
/// the store's single-flight resolve().
class PipelineEvaluator final : public Evaluator {
 public:
  /// Shares `store` (must outlive the evaluator) — the Engine passes its
  /// own store so searches warm, and profit from, the same artifacts as
  /// every other query.  `jobs` sizes evaluate_many parallelism (0 = all
  /// hardware threads).
  PipelineEvaluator(System base, EvaluationSpec spec, TwcaOptions options,
                    ArtifactStore& store, int jobs = 1);

  ~PipelineEvaluator() override;

  // Evaluator overrides (see Evaluator for their contracts).
  [[nodiscard]] const System& base() const override;
  [[nodiscard]] Objective evaluate(const std::vector<Priority>& priorities) override;
  [[nodiscard]] std::vector<Objective> evaluate_many(
      const std::vector<std::vector<Priority>>& candidates) override;
  [[nodiscard]] EvaluatorStats stats() const override;

 private:
  System base_;
  EvaluationSpec spec_;
  std::vector<int> targets_;
  TwcaOptions options_;
  int jobs_ = 1;
  /// The base session candidates speculate from (owns the shared
  /// SliceCache; never mutated itself).
  std::unique_ptr<Session> session_;
  std::vector<Priority> base_priorities_;  ///< flat, aligned with task_names_
  std::vector<std::string> task_names_;    ///< dotted "chain.task" per flat index
  mutable util::Mutex stats_mutex_;
  EvaluatorStats stats_ WHARF_GUARDED_BY(stats_mutex_);
};

/// Search outcome: the best priorities found (flat task order, apply via
/// System::with_priorities), their objective and the evaluation count.
struct SearchResult {
  std::vector<Priority> best_priorities;
  Objective best_objective;
  long long evaluations = 0;
};

/// Exhaustively scores every permutation of the existing priority set.
/// Throws wharf::InvalidArgument when the permutation count exceeds
/// `max_permutations` (guard against factorial blow-up).
[[nodiscard]] SearchResult exhaustive_search(Evaluator& evaluator,
                                             long long max_permutations = 50'000);

/// Samples `samples` uniformly random permutations (Experiment 2 style).
[[nodiscard]] SearchResult random_search(Evaluator& evaluator, int samples,
                                         std::uint64_t seed);

/// Options of the local search.
struct HillClimbOptions {
  int restarts = 4;             ///< independent random starting points
  int max_steps = 200;          ///< improving steps per restart
  std::uint64_t seed = 1;
};

/// Steepest-ascent hill climbing: from a random permutation, repeatedly
/// applies the pairwise priority swap that improves the objective most,
/// until a local optimum; keeps the best across restarts.  Each
/// neighborhood (all pairwise swaps) is scored as one evaluate_many
/// batch.
[[nodiscard]] SearchResult hill_climb(Evaluator& evaluator,
                                      const HillClimbOptions& options = {});

}  // namespace wharf::search

#endif  // WHARF_SEARCH_PRIORITY_SEARCH_HPP
