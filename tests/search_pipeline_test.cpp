// Determinism, parity and staleness regression tests for the
// pipeline-backed search layer (src/search + engine/artifact_store):
//
//  * fixed-seed searches produce identical SearchResult (priorities,
//    objective, evaluation count) for any jobs value and for the
//    pipeline-backed vs. the standalone reference backend;
//  * evaluating through a long-lived shared store stays bit-identical
//    to fresh-store evaluation under search-shaped mutation churn
//    (random pairwise swaps), including LRU eviction pressure from a
//    tiny byte budget;
//  * the Engine's PrioritySearchQuery inherits all of the above.

#include <gtest/gtest.h>

#include <random>

#include "core/case_studies.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "search/priority_search.hpp"
#include "tests/support/reference_evaluator.hpp"

namespace wharf::search {
namespace {

using case_studies::date17_case_study;
using case_studies::OverloadModel;

System case_study() { return date17_case_study(OverloadModel::kRareOverload); }

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));

void expect_same_result(const SearchResult& a, const SearchResult& b, const char* what) {
  EXPECT_EQ(a.best_priorities, b.best_priorities) << what;
  EXPECT_EQ(a.best_objective, b.best_objective) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
}

TEST(PipelineSearch, HillClimbDeterministicAcrossJobsAndBackends) {
  const System sys = case_study();
  const EvaluationSpec spec{10, {}};
  HillClimbOptions options;
  options.restarts = 2;
  options.max_steps = 4;
  options.seed = 11;

  ReferenceEvaluator reference(sys, spec);
  const SearchResult expected = hill_climb(reference, options);

  for (const int jobs : {1, 4, 16}) {
    ArtifactStore store;
    PipelineEvaluator evaluator(sys, spec, {}, store, jobs);
    const SearchResult got = hill_climb(evaluator, options);
    expect_same_result(got, expected, ("jobs=" + std::to_string(jobs)).c_str());
  }
}

TEST(PipelineSearch, RandomSearchDeterministicAcrossJobsAndBackends) {
  const System sys = case_study();
  const EvaluationSpec spec{10, {}};

  ReferenceEvaluator reference(sys, spec);
  const SearchResult expected = random_search(reference, 40, 42);
  EXPECT_EQ(expected.evaluations, 40);

  for (const int jobs : {1, 4, 16}) {
    ArtifactStore store;
    PipelineEvaluator evaluator(sys, spec, {}, store, jobs);
    const SearchResult got = random_search(evaluator, 40, 42);
    expect_same_result(got, expected, ("jobs=" + std::to_string(jobs)).c_str());
  }
}

TEST(PipelineSearch, ExhaustiveSearchMatchesReferenceBackend) {
  // 5 tasks keep 5! = 120 permutations cheap; the batched pipeline
  // enumeration must visit them in the same order with equal scores.
  Chain::Spec x;
  x.name = "x";
  x.arrival = periodic(100);
  x.deadline = 60;
  x.tasks = {Task{"x1", 1, 10}, Task{"x2", 2, 15}};
  Chain::Spec y;
  y.name = "y";
  y.arrival = periodic(200);
  y.deadline = 120;
  y.tasks = {Task{"y1", 3, 30}};
  Chain::Spec o;
  o.name = "o";
  o.arrival = sporadic(5'000);
  o.overload = true;
  o.tasks = {Task{"o1", 4, 8}, Task{"o2", 5, 9}};
  const System sys("small", {Chain(std::move(x)), Chain(std::move(y)), Chain(std::move(o))});
  const EvaluationSpec spec{5, {}};

  ReferenceEvaluator reference(sys, spec);
  const SearchResult expected = exhaustive_search(reference);

  ArtifactStore store;
  PipelineEvaluator evaluator(sys, spec, {}, store, 4);
  expect_same_result(exhaustive_search(evaluator), expected, "exhaustive");
}

TEST(PipelineSearch, WarmStoreChangesNothingButReusesBusyWindows) {
  // The same hill climb twice on one evaluator: the second run scores
  // every candidate off the warm store — identical result, and >= 50%
  // of its busy-window lookups come back as hits (the acceptance bar of
  // bench_priority_search).
  const System sys = case_study();
  const EvaluationSpec spec{10, {}};
  HillClimbOptions options;
  options.restarts = 1;
  options.max_steps = 3;
  options.seed = 5;

  ArtifactStore store;
  PipelineEvaluator evaluator(sys, spec, {}, store, 1);
  const SearchResult cold = hill_climb(evaluator, options);
  const EvaluatorStats after_cold = evaluator.stats();

  const SearchResult warm = hill_climb(evaluator, options);
  const EvaluatorStats after_warm = evaluator.stats();
  expect_same_result(warm, cold, "warm rerun");

  const StageDiagnostics& cold_bw = after_cold.stages[kBusyWindowStage];
  const std::size_t warm_lookups =
      after_warm.stages[kBusyWindowStage].lookups - cold_bw.lookups;
  const std::size_t warm_hits = after_warm.stages[kBusyWindowStage].hits - cold_bw.hits;
  ASSERT_GT(warm_lookups, 0u);
  EXPECT_GE(warm_hits * 2, warm_lookups);
  // The first pass itself already reuses neighborhoods (a swap leaves
  // most slices untouched), so even cold hits are plentiful.
  EXPECT_GT(cold_bw.hits, 0u);
}

TEST(PipelineSearch, SwapChurnMatchesFreshEvaluationBitForBit) {
  // Search-shaped staleness property: after any sequence of pairwise
  // priority swaps, scoring through the long-lived store must equal a
  // fresh-store evaluation and the standalone reference, field for
  // field.
  gen::RandomSystemSpec gen_spec;
  gen_spec.min_chains = 3;
  gen_spec.max_chains = 4;
  gen_spec.overload_chains = 1;
  std::mt19937_64 rng(7);
  const EvaluationSpec spec{5, {}};

  for (int trial = 0; trial < 3; ++trial) {
    const System base = gen::random_system(gen_spec, rng, "churn");
    ArtifactStore store;
    PipelineEvaluator warm(base, spec, {}, store, 1);
    ReferenceEvaluator reference(base, spec);

    std::vector<Priority> priorities = base.flat_priorities();
    std::uniform_int_distribution<std::size_t> pick(0, priorities.size() - 1);
    for (int step = 0; step < 10; ++step) {
      std::swap(priorities[pick(rng)], priorities[pick(rng)]);
      const Objective through_store = warm.evaluate(priorities);
      ArtifactStore fresh_store;
      PipelineEvaluator fresh(base, spec, {}, fresh_store);
      EXPECT_EQ(through_store, fresh.evaluate(priorities))
          << "trial " << trial << " step " << step;
      EXPECT_EQ(through_store, reference.evaluate(priorities))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(PipelineSearch, EvictionPressureKeepsResultsExact) {
  // A byte budget far below the churn's working set: artifacts are
  // evicted and recomputed mid-search, results must not move.
  const System sys = case_study();
  const EvaluationSpec spec{10, {}};
  ArtifactStore tiny{/*byte_budget=*/4096};
  PipelineEvaluator squeezed(sys, spec, {}, tiny, 1);
  ReferenceEvaluator reference(sys, spec);

  std::mt19937_64 rng(13);
  std::vector<Priority> priorities = sys.flat_priorities();
  std::uniform_int_distribution<std::size_t> pick(0, priorities.size() - 1);
  for (int step = 0; step < 8; ++step) {
    std::swap(priorities[pick(rng)], priorities[pick(rng)]);
    EXPECT_EQ(squeezed.evaluate(priorities), reference.evaluate(priorities)) << "step " << step;
  }

  const ArtifactStore::Stats stats = tiny.stats();
  EXPECT_LE(stats.resident_bytes, 4096u);
  std::size_t churn = 0;
  for (const ArtifactStore::StageStats& s : stats.stage) churn += s.evictions + s.rejected;
  EXPECT_GT(churn, 0u);
}

TEST(PipelineSearch, EngineSearchAnswersIdenticalAcrossJobs) {
  PrioritySearchQuery query;
  query.strategy = PrioritySearchQuery::Strategy::kHillClimb;
  query.budget = 3;
  query.restarts = 2;
  query.seed = 3;
  const AnalysisRequest request{case_study(), {}, {query}};

  Engine sequential{EngineOptions{1, EngineOptions{}.cache_bytes}};
  Engine parallel{EngineOptions{4, EngineOptions{}.cache_bytes}};
  const AnalysisReport seq = sequential.run(request);
  const AnalysisReport par = parallel.run(request);
  ASSERT_TRUE(seq.results[0].ok());
  ASSERT_TRUE(par.results[0].ok());
  const auto& a = std::get<SearchAnswer>(seq.results[0].answer);
  const auto& b = std::get<SearchAnswer>(par.results[0].answer);
  EXPECT_EQ(a.nominal, b.nominal);
  expect_same_result(a.result, b.result, "engine jobs 1 vs 4");
  // Store telemetry totals (hit/miss/shared split may shift with
  // scheduling, the work actually looked up may not).
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
}

TEST(PipelineSearch, EngineExhaustiveStrategyFindsSmallOptimum) {
  Chain::Spec x;
  x.name = "x";
  x.arrival = periodic(100);
  x.deadline = 60;
  x.tasks = {Task{"x1", 1, 10}, Task{"x2", 2, 15}};
  Chain::Spec y;
  y.name = "y";
  y.arrival = periodic(200);
  y.deadline = 120;
  y.tasks = {Task{"y1", 3, 30}};
  const System sys("tiny", {Chain(std::move(x)), Chain(std::move(y))});

  PrioritySearchQuery query;
  query.strategy = PrioritySearchQuery::Strategy::kExhaustive;
  query.k = 5;
  Engine engine;
  const AnalysisReport report = engine.run(AnalysisRequest{sys, {}, {query}});
  ASSERT_TRUE(report.results[0].ok()) << report.results[0].status.to_string();
  const auto& answer = std::get<SearchAnswer>(report.results[0].answer);
  EXPECT_EQ(answer.result.evaluations, 6);  // 3! permutations
  EXPECT_LE(answer.result.best_objective, answer.nominal);
  EXPECT_GT(report.diagnostics.search_evaluations, 0);

  // The factorial guard surfaces as a status, not a crash.
  PrioritySearchQuery guarded = query;
  guarded.max_permutations = 5;
  const AnalysisReport blocked = engine.run(AnalysisRequest{sys, {}, {guarded}});
  EXPECT_EQ(blocked.results[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(PipelineSearch, EngineSearchOnZeroEligibleChainsIsStatusNotThrow) {
  Chain::Spec r;
  r.name = "r";
  r.arrival = periodic(100);
  r.tasks = {Task{"r1", 1, 5}};  // no deadline
  Chain::Spec o;
  o.name = "o";
  o.arrival = sporadic(1'000);
  o.overload = true;
  o.tasks = {Task{"o1", 2, 3}};
  const System sys("no_eligible", {Chain(std::move(r)), Chain(std::move(o))});

  Engine engine;
  const AnalysisReport report = engine.run(AnalysisRequest{sys, {}, {PrioritySearchQuery{}}});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.diagnostics.queries_failed, 1u);
}

}  // namespace
}  // namespace wharf::search
