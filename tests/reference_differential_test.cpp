// Randomized differential test: the Engine's cached, staged pipeline
// against the stateless reference analyzer (TwcaAnalyzer).  Over seeded
// random systems (synchronous and asynchronous chains, zero to two
// overload chains, loads up to and past saturation) and both
// schedulability criteria, every latency and dmm answer of Engine::run
// must equal the reference field for field, B&B node counts included.
// A second sweep targets packings whose items fall into several
// independent groups, where a solver that decomposed the problem would
// report different node counts than the reference's single solve.

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <variant>

#include "core/twca.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"

namespace wharf {
namespace {

void expect_same_latency(const LatencyResult& got, const LatencyResult& want,
                         const std::string& where) {
  EXPECT_EQ(got.bounded, want.bounded) << where;
  EXPECT_EQ(got.reason, want.reason) << where;
  EXPECT_EQ(got.K, want.K) << where;
  EXPECT_EQ(got.busy_times, want.busy_times) << where;
  EXPECT_EQ(got.wcl, want.wcl) << where;
  EXPECT_EQ(got.worst_q, want.worst_q) << where;
  EXPECT_EQ(got.misses_per_window, want.misses_per_window) << where;
  EXPECT_EQ(got.schedulable, want.schedulable) << where;
}

void expect_same_dmm(const DmmResult& got, const DmmResult& want, const std::string& where) {
  EXPECT_EQ(got.k, want.k) << where;
  EXPECT_EQ(got.dmm, want.dmm) << where;
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.reason, want.reason) << where;
  EXPECT_EQ(got.wcl, want.wcl) << where;
  EXPECT_EQ(got.K, want.K) << where;
  EXPECT_EQ(got.n_b, want.n_b) << where;
  EXPECT_EQ(got.slack, want.slack) << where;
  EXPECT_EQ(got.omegas, want.omegas) << where;
  EXPECT_EQ(got.combination_count, want.combination_count) << where;
  EXPECT_EQ(got.unschedulable_count, want.unschedulable_count) << where;
  EXPECT_EQ(got.packing_optimum, want.packing_optimum) << where;
  EXPECT_EQ(got.solver_nodes, want.solver_nodes) << where;
}

/// Seed-dependent generator settings: every seed mixes chain kinds,
/// overload counts and loads differently, so the sweep reaches
/// always-meets, bounded, no-guarantee and unbounded targets.
gen::RandomSystemSpec differential_spec(std::uint64_t seed) {
  gen::RandomSystemSpec spec;
  spec.min_chains = 2;
  spec.max_chains = 4;
  spec.max_tasks = 4;
  spec.utilization = 0.5 + 0.09 * static_cast<double>(seed % 6);  // 0.5 .. 0.95
  spec.deadline_factor = seed % 3 == 0 ? 0.6 : 1.0;
  spec.async_fraction = seed % 2 == 0 ? 0.5 : 0.0;
  spec.overload_chains = static_cast<int>(seed % 3);
  // Every fourth seed packs its overload chains densely enough to push
  // the long-run load past 1 (unbounded targets).
  spec.overload_gap = seed % 4 == 1 ? 150 : 5'000;
  spec.overload_wcet_max = 40;
  return spec;
}

/// Which kinds of answer the sweep reached, so a generator change that
/// stops exercising a branch fails loudly instead of passing vacuously.
struct Coverage {
  int unbounded_latency = 0;
  int always_meets = 0;
  int bounded_with_misses = 0;
  int no_guarantee = 0;
  int async_systems = 0;
  int split_packings = 0;  ///< packing solves with >= 2 independent item groups
};

/// Number of independent item groups of a packing problem: items that
/// share a resource, directly or through other items, form one group.
std::size_t item_groups(const ilp::PackingProblem& problem) {
  std::vector<std::size_t> parent(problem.item_resources.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  std::vector<std::size_t> owner(problem.capacities.size(), parent.size());
  for (std::size_t i = 0; i < problem.item_resources.size(); ++i) {
    for (const int r : problem.item_resources[i]) {
      std::size_t& first = owner[static_cast<std::size_t>(r)];
      if (first == parent.size()) {
        first = i;
      } else {
        parent[find(i)] = find(first);
      }
    }
  }
  std::size_t groups = 0;
  for (std::size_t i = 0; i < parent.size(); ++i) groups += parent[i] == i ? 1 : 0;
  return groups;
}

/// Runs `sys` through the Engine under both criteria and compares every
/// answer with the reference, including a direct dmm_from_artifacts call
/// whose recording solver counts the packings that split.
void check_system(const System& sys, const std::string& label, Coverage& coverage) {
  const std::vector<Count> ks = {1, 2, 3, 5, 10, 25, 76, 250};
  for (const Chain& chain : sys.chains()) {
    if (chain.kind() == ChainKind::kAsynchronous) {
      ++coverage.async_systems;
      break;
    }
  }
  const PackingSolver recorder = [&coverage](const ilp::PackingProblem& problem) {
    if (item_groups(problem) >= 2) ++coverage.split_packings;
    return ilp::solve_packing_ilp(problem);
  };

  Engine engine;
  for (const SchedulabilityCriterion criterion :
       {SchedulabilityCriterion::kSufficientEq5, SchedulabilityCriterion::kExactEq3}) {
    SCOPED_TRACE(testing::Message()
                 << label << (criterion == SchedulabilityCriterion::kExactEq3 ? " eq3" : " eq5"));
    TwcaOptions options;
    options.criterion = criterion;
    const TwcaAnalyzer reference{sys, options};

    AnalysisRequest request{sys, options, {}};
    for (const int c : sys.regular_indices()) {
      const std::string& name = sys.chain(c).name();
      request.queries.push_back(LatencyQuery{name, /*without_overload=*/false});
      request.queries.push_back(LatencyQuery{name, /*without_overload=*/true});
      request.queries.push_back(DmmQuery{name, ks});
    }
    const AnalysisReport report = engine.run(request);
    ASSERT_EQ(report.results.size(), request.queries.size());

    for (const QueryResult& result : report.results) {
      ASSERT_TRUE(result.ok()) << result.status.to_string();
      if (const auto* lat = std::get_if<LatencyAnswer>(&result.answer)) {
        const int c = *sys.chain_index(lat->chain);
        const std::string where =
            lat->chain + (lat->without_overload ? " w/o overload" : "");
        expect_same_latency(lat->result,
                            lat->without_overload ? reference.latency_without_overload(c)
                                                  : reference.latency(c),
                            where);
        if (!lat->result.bounded) ++coverage.unbounded_latency;
        continue;
      }
      const auto& answer = std::get<DmmAnswer>(result.answer);
      const int c = *sys.chain_index(answer.chain);
      const std::vector<DmmResult> curve = reference.dmm_curve(c, ks);
      const DmmStages stages = reference.dmm_stages(c);
      ASSERT_EQ(answer.curve.size(), ks.size());
      ASSERT_EQ(curve.size(), ks.size());
      for (std::size_t i = 0; i < ks.size(); ++i) {
        const std::string where = answer.chain + " k=" + std::to_string(ks[i]);
        expect_same_dmm(answer.curve[i], curve[i], where);
        expect_same_dmm(answer.curve[i], reference.dmm(c, ks[i]), where + " (dmm)");
        expect_same_dmm(answer.curve[i],
                        dmm_from_artifacts(sys, c, stages.latency, stages.artifacts, ks[i],
                                           options, recorder),
                        where + " (stages)");
        switch (answer.curve[i].status) {
          case DmmStatus::kAlwaysMeets: ++coverage.always_meets; break;
          case DmmStatus::kNoGuarantee: ++coverage.no_guarantee; break;
          case DmmStatus::kBounded:
            if (answer.curve[i].dmm > 0) ++coverage.bounded_with_misses;
            break;
        }
      }
    }
  }
}

TEST(EngineMatchesReference, LatencyAndDmmFieldForField) {
  Coverage coverage;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 31);
    const System sys = gen::random_system(differential_spec(seed), rng, "differential");
    check_system(sys, "seed " + std::to_string(seed), coverage);
  }
  EXPECT_GT(coverage.unbounded_latency, 0);
  EXPECT_GT(coverage.always_meets, 0);
  EXPECT_GT(coverage.bounded_with_misses, 0);
  EXPECT_GT(coverage.no_guarantee, 0);
  EXPECT_GT(coverage.async_systems, 0);
}

TEST(EngineMatchesReference, SplitPackingsFieldForField) {
  // Two overload chains and tight deadlines: many targets' packings fall
  // into several independent item groups.
  gen::RandomSystemSpec spec;
  spec.min_chains = 3;
  spec.max_chains = 4;
  spec.overload_chains = 2;
  spec.deadline_factor = 0.8;
  std::mt19937_64 rng(2024);
  Coverage coverage;
  for (int sample = 0; sample < 24; ++sample) {
    const System sys = gen::random_system(spec, rng, "split");
    check_system(sys, "sample " + std::to_string(sample), coverage);
  }
  EXPECT_GT(coverage.split_packings, 0);
}

}  // namespace
}  // namespace wharf
