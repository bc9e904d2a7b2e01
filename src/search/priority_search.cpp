#include "search/priority_search.hpp"

#include <algorithm>
#include <random>
#include <utility>

#include "engine/session.hpp"
#include "gen/random_systems.hpp"
#include "util/expect.hpp"
#include "util/strings.hpp"
#include "util/worker_pool.hpp"

namespace wharf::search {

namespace {

/// Dotted "chain.task" names in flat task order (the address space of
/// SetPriorityDelta batches).
std::vector<std::string> dotted_task_names(const System& system) {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(system.task_count()));
  for (const Chain& chain : system.chains()) {
    for (const Task& task : chain.tasks()) {
      names.push_back(util::cat(chain.name(), ".", task.name));
    }
  }
  return names;
}

/// Resolves (and validates) the evaluation targets of `spec` against
/// `system`: explicit indices, or every non-overload chain with a
/// deadline.  The eligible set is invariant under priority permutation
/// (with_priorities changes neither kinds nor deadlines), so one
/// resolution serves every candidate.
std::vector<int> resolve_targets(const System& system, const EvaluationSpec& spec) {
  WHARF_EXPECT(spec.k >= 1, "evaluation horizon k must be >= 1, got " << spec.k);
  std::vector<int> targets = spec.targets;
  if (targets.empty()) {
    for (int c : system.regular_indices()) {
      if (system.chain(c).deadline().has_value()) targets.push_back(c);
    }
  }
  WHARF_EXPECT(!targets.empty(), "no evaluable chains (need non-overload chains with deadlines)");
  return targets;
}

/// The factorial guard of exhaustive_search: returns the base
/// priorities sorted into enumeration start order, throwing when the
/// permutation count exceeds `max_permutations`.
std::vector<Priority> exhaustive_start(const System& base, long long max_permutations) {
  std::vector<Priority> priorities = base.flat_priorities();
  std::sort(priorities.begin(), priorities.end());
  long long permutations = 1;
  for (std::size_t i = 2; i <= priorities.size(); ++i) {
    permutations *= static_cast<long long>(i);
    WHARF_EXPECT(permutations <= max_permutations,
                 "exhaustive search over " << priorities.size()
                                           << " tasks exceeds max_permutations="
                                           << max_permutations);
  }
  return priorities;
}

/// Folds index-aligned scores into the incumbent: candidates in index
/// order, strict improvement only (ties keep the earlier candidate).
/// `have_best` threads the "incumbent exists yet" state across blocks;
/// `result.evaluations` bookkeeping stays with the caller.
void fold_scores(const std::vector<std::vector<Priority>>& candidates,
                 const std::vector<Objective>& scores, SearchResult& result, bool& have_best) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!have_best || scores[i] < result.best_objective) {
      have_best = true;
      result.best_objective = scores[i];
      result.best_priorities = candidates[i];
    }
  }
}

}  // namespace


// ---------------------------------------------------------------------
// EvaluatorStats / Evaluator
// ---------------------------------------------------------------------

std::size_t EvaluatorStats::lookups() const {
  std::size_t n = 0;
  for (const StageDiagnostics& s : stages) n += s.lookups;
  return n;
}

std::size_t EvaluatorStats::hits() const {
  std::size_t n = 0;
  for (const StageDiagnostics& s : stages) n += s.hits;
  return n;
}

std::size_t EvaluatorStats::misses() const {
  std::size_t n = 0;
  for (const StageDiagnostics& s : stages) n += s.misses;
  return n;
}

std::size_t EvaluatorStats::shared() const {
  std::size_t n = 0;
  for (const StageDiagnostics& s : stages) n += s.shared;
  return n;
}

Evaluator::~Evaluator() = default;

std::vector<Objective> Evaluator::evaluate_many(
    const std::vector<std::vector<Priority>>& candidates) {
  std::vector<Objective> scores(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) scores[i] = evaluate(candidates[i]);
  return scores;
}

// ---------------------------------------------------------------------
// PipelineEvaluator
// ---------------------------------------------------------------------

PipelineEvaluator::PipelineEvaluator(System base, EvaluationSpec spec, TwcaOptions options,
                                     ArtifactStore& store, int jobs)
    : base_(std::move(base)),
      spec_(std::move(spec)),
      targets_(resolve_targets(base_, spec_)),
      options_(options),
      jobs_(jobs),
      session_(std::make_unique<Session>(base_, options_, store, 1)),
      base_priorities_(base_.flat_priorities()),
      task_names_(dotted_task_names(base_)) {}

PipelineEvaluator::~PipelineEvaluator() = default;

const System& PipelineEvaluator::base() const { return base_; }

Objective PipelineEvaluator::evaluate(const std::vector<Priority>& priorities) {
  // Candidate = delta batch: one SetPriorityDelta per task the candidate
  // moves off the base assignment.  speculate() opens the candidate's
  // own store epoch — artifacts resolved by *earlier* candidates (or
  // earlier engine requests) classify as hits, which is what makes
  // neighborhood reuse observable in stats() — and shares the base
  // session's SliceCache, so only the moved chains' key fragments are
  // re-serialized.
  WHARF_EXPECT(priorities.size() == base_priorities_.size(),
               "expected " << base_priorities_.size() << " priorities, got "
                           << priorities.size());
  std::vector<Delta> deltas;
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    if (priorities[i] != base_priorities_[i]) {
      deltas.push_back(SetPriorityDelta{task_names_[i], priorities[i]});
    }
  }
  Session candidate = session_->speculate(deltas);

  Objective obj;
  for (const int c : targets_) {
    const DmmResult r = candidate.dmm(c, spec_.k);
    if (r.dmm > 0) ++obj.chains_missing;
    obj.total_dmm += r.dmm;
    const LatencyResult lat = candidate.latency(c);
    obj.total_wcl = sat_add(obj.total_wcl,
                            lat.bounded ? lat.wcl : options_.analysis.divergence_guard);
  }

  const SessionStats diag = candidate.stats();
  {
    const util::MutexLock guard(stats_mutex_);
    ++stats_.evaluations;
    for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
      stats_.stages[s].lookups += diag.stages[s].lookups;
      stats_.stages[s].hits += diag.stages[s].hits;
      stats_.stages[s].misses += diag.stages[s].misses;
      stats_.stages[s].shared += diag.stages[s].shared;
      stats_.stages[s].bytes_inserted += diag.stages[s].bytes_inserted;
    }
  }
  return obj;
}

std::vector<Objective> PipelineEvaluator::evaluate_many(
    const std::vector<std::vector<Priority>>& candidates) {
  std::vector<Objective> scores(candidates.size());
  // Each index writes its own slot and a candidate's objective is a pure
  // function of its priorities, so scores are identical for any jobs.
  util::parallel_for_index(candidates.size(), jobs_,
                           [&](std::size_t i) { scores[i] = evaluate(candidates[i]); });
  return scores;
}

EvaluatorStats PipelineEvaluator::stats() const {
  EvaluatorStats out;
  {
    const util::MutexLock guard(stats_mutex_);
    out = stats_;
  }
  // The slice memo is shared by every candidate session; its lifetime
  // counters live on the base session.
  out.slices = session_->stats().slices;
  return out;
}

// ---------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------

SearchResult exhaustive_search(Evaluator& evaluator, long long max_permutations) {
  std::vector<Priority> priorities = exhaustive_start(evaluator.base(), max_permutations);

  SearchResult result;
  bool have_best = false;
  constexpr std::size_t kBlock = 128;
  std::vector<std::vector<Priority>> block;
  block.reserve(kBlock);
  const auto flush = [&] {
    const std::vector<Objective> scores = evaluator.evaluate_many(block);
    result.evaluations += static_cast<long long>(block.size());
    fold_scores(block, scores, result, have_best);
    block.clear();
  };
  do {
    block.push_back(priorities);
    if (block.size() == kBlock) flush();
  } while (std::next_permutation(priorities.begin(), priorities.end()));
  if (!block.empty()) flush();
  return result;
}

SearchResult random_search(Evaluator& evaluator, int samples, std::uint64_t seed) {
  WHARF_EXPECT(samples >= 1, "need at least one sample");
  std::mt19937_64 rng(seed);
  const int n = evaluator.base().task_count();

  // Blocked like exhaustive_search: peak memory stays O(kBlock * n) for
  // any budget, and both the rng draw order and the fold order match
  // the one-candidate-at-a-time loop exactly.
  SearchResult result;
  bool have_best = false;
  constexpr int kBlock = 128;
  std::vector<std::vector<Priority>> block;
  block.reserve(kBlock);
  for (int i = 0; i < samples; ++i) {
    block.push_back(gen::shuffled_priorities(n, rng));
    if (static_cast<int>(block.size()) == kBlock || i + 1 == samples) {
      const std::vector<Objective> scores = evaluator.evaluate_many(block);
      result.evaluations += static_cast<long long>(block.size());
      fold_scores(block, scores, result, have_best);
      block.clear();
    }
  }
  return result;
}

SearchResult hill_climb(Evaluator& evaluator, const HillClimbOptions& options) {
  WHARF_EXPECT(options.restarts >= 1, "need at least one restart");
  WHARF_EXPECT(options.max_steps >= 1, "need at least one step");
  std::mt19937_64 rng(options.seed);
  const int n = evaluator.base().task_count();

  SearchResult result;
  bool have_best = false;

  for (int restart = 0; restart < options.restarts; ++restart) {
    std::vector<Priority> current = gen::shuffled_priorities(n, rng);
    Objective current_obj = evaluator.evaluate(current);
    ++result.evaluations;

    for (int step = 0; step < options.max_steps; ++step) {
      // Steepest ascent: the whole pairwise-swap neighborhood scored as
      // one batch, then scanned in (i, j) order — identical to the
      // sequential swap-evaluate-swap-back loop for any jobs value.
      std::vector<std::vector<Priority>> neighborhood;
      neighborhood.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          std::vector<Priority> neighbor = current;
          std::swap(neighbor[static_cast<std::size_t>(i)],
                    neighbor[static_cast<std::size_t>(j)]);
          neighborhood.push_back(std::move(neighbor));
        }
      }
      const std::vector<Objective> scores = evaluator.evaluate_many(neighborhood);
      result.evaluations += static_cast<long long>(neighborhood.size());

      Objective best_neighbor_obj = current_obj;
      std::ptrdiff_t best_index = -1;
      for (std::size_t c = 0; c < scores.size(); ++c) {
        if (scores[c] < best_neighbor_obj) {
          best_neighbor_obj = scores[c];
          best_index = static_cast<std::ptrdiff_t>(c);
        }
      }
      if (best_index < 0) break;  // local optimum
      current = std::move(neighborhood[static_cast<std::size_t>(best_index)]);
      current_obj = best_neighbor_obj;
    }

    if (!have_best || current_obj < result.best_objective) {
      have_best = true;
      result.best_objective = current_obj;
      result.best_priorities = current;
    }
  }
  return result;
}

}  // namespace wharf::search
