// Randomized differential test: the Engine's cached, staged pipeline
// against the stateless reference analyzer (TwcaAnalyzer).  Over seeded
// random systems (synchronous and asynchronous chains, zero to two
// overload chains, loads up to and past saturation), both schedulability
// criteria and both packers, every latency and dmm answer of Engine::run
// must equal the reference field for field.

#include <gtest/gtest.h>

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
};

/// Runs one seeded system through the Engine under all four option
/// combinations and compares every answer with the reference.
void check_seed(std::uint64_t seed, Coverage& coverage) {
  std::mt19937_64 rng(seed * 104729 + 31);
  const System sys = gen::random_system(differential_spec(seed), rng, "differential");
  const std::vector<Count> ks = {1, 2, 3, 5, 10, 25, 76, 250};
  for (const Chain& chain : sys.chains()) {
    if (chain.kind() == ChainKind::kAsynchronous) {
      ++coverage.async_systems;
      break;
    }
  }

  Engine engine;
  for (const SchedulabilityCriterion criterion :
       {SchedulabilityCriterion::kSufficientEq5, SchedulabilityCriterion::kExactEq3}) {
    for (const bool dfs : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed
                   << (criterion == SchedulabilityCriterion::kExactEq3 ? " eq3" : " eq5")
                   << (dfs ? " dfs" : " ilp"));
      TwcaOptions options;
      options.criterion = criterion;
      options.use_dfs_packer = dfs;
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
        ASSERT_EQ(answer.curve.size(), ks.size());
        ASSERT_EQ(curve.size(), ks.size());
        for (std::size_t i = 0; i < ks.size(); ++i) {
          const std::string where = answer.chain + " k=" + std::to_string(ks[i]);
          expect_same_dmm(answer.curve[i], curve[i], where);
          expect_same_dmm(answer.curve[i], reference.dmm(c, ks[i]), where + " (dmm)");
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
}

TEST(EngineMatchesReference, LatencyAndDmmFieldForField) {
  Coverage coverage;
  for (std::uint64_t seed = 0; seed < 60; ++seed) check_seed(seed, coverage);
  EXPECT_GT(coverage.unbounded_latency, 0);
  EXPECT_GT(coverage.always_meets, 0);
  EXPECT_GT(coverage.bounded_with_misses, 0);
  EXPECT_GT(coverage.no_guarantee, 0);
  EXPECT_GT(coverage.async_systems, 0);
}

}  // namespace
}  // namespace wharf
