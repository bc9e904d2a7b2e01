// Cache-effectiveness benchmark: quantifies what the staged ArtifactStore
// buys on the workload it was built for — a design-space sweep that
// mutates one chain at a time and re-analyzes thousands of near-identical
// systems (SAW-style weakly-hard tooling, priority-class exploration).
//
// Two sweeps over the same mutated systems:
//  * cold — a fresh Engine per system (every artifact recomputed);
//  * warm — one persistent Engine whose store carries artifacts across
//    systems, so only the slices a mutation touches recompute.
//
// Emits machine-readable "BENCH {...}" JSON lines (hit rates per stage,
// wall-clock speedup) next to the human-readable table, so the perf
// trajectory of the cache can be tracked across commits:
//
//   $ ./bench_cache_effectiveness

#include <benchmark/benchmark.h>

#include <iostream>
#include <random>
#include <vector>

#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/json.hpp"
#include "io/tables.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;

/// The sweep: a base system plus single-pair priority mutations of it.
/// Swapping one pair of task priorities per step is the smallest move of
/// the paper's Experiment-2 search neighborhood.
std::vector<System> mutation_sweep(int systems, std::uint64_t seed) {
  gen::RandomSystemSpec spec;
  spec.min_chains = 8;
  spec.max_chains = 8;
  spec.min_tasks = 1;
  spec.max_tasks = 2;
  spec.utilization = 0.5;
  spec.overload_chains = 1;
  std::mt19937_64 rng(seed);
  const System base = gen::random_system(spec, rng, "sweep_base");

  std::vector<System> sweep;
  sweep.reserve(static_cast<std::size_t>(systems));
  sweep.push_back(base);
  std::vector<Priority> priorities = base.flat_priorities();
  std::uniform_int_distribution<std::size_t> pick(0, priorities.size() - 1);
  for (int i = 1; i < systems; ++i) {
    std::swap(priorities[pick(rng)], priorities[pick(rng)]);
    sweep.push_back(base.with_priorities(priorities));
  }
  return sweep;
}

struct SweepOutcome {
  double seconds = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::array<StageDiagnostics, kArtifactStageCount> stages{};

  [[nodiscard]] double hit_rate() const {
    const std::size_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Analyzes every system of the sweep, one request each.  `persistent`
/// keeps one engine (warm artifact sharing across systems); otherwise a
/// fresh engine serves each system (cold baseline).
SweepOutcome run_sweep(const std::vector<System>& sweep, bool persistent) {
  SweepOutcome outcome;
  Engine shared;
  util::Stopwatch clock;
  for (const System& sys : sweep) {
    Engine local;
    Engine& engine = persistent ? shared : local;
    const AnalysisReport report = engine.run(AnalysisRequest::standard(sys, {1, 10}));
    outcome.hits += report.diagnostics.cache_hits;
    outcome.misses += report.diagnostics.cache_misses;
    for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
      outcome.stages[s].lookups += report.diagnostics.stages[s].lookups;
      outcome.stages[s].hits += report.diagnostics.stages[s].hits;
      outcome.stages[s].misses += report.diagnostics.stages[s].misses;
      outcome.stages[s].bytes_inserted += report.diagnostics.stages[s].bytes_inserted;
    }
    benchmark::DoNotOptimize(report.results.size());
  }
  outcome.seconds = clock.seconds();
  return outcome;
}

void emit_bench_json(const char* variant, int systems, const SweepOutcome& o, double speedup) {
  io::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("cache_effectiveness");
  w.key("variant");
  w.value(variant);
  w.key("systems");
  w.value(systems);
  w.key("seconds");
  w.value(o.seconds);
  w.key("hit_rate");
  w.value(o.hit_rate());
  w.key("speedup_vs_cold");
  w.value(speedup);
  w.key("stages");
  w.begin_object();
  for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
    w.key(to_string(static_cast<ArtifactStage>(static_cast<int>(s))));
    w.begin_object();
    w.key("lookups");
    w.value(static_cast<long long>(o.stages[s].lookups));
    w.key("hits");
    w.value(static_cast<long long>(o.stages[s].hits));
    w.key("misses");
    w.value(static_cast<long long>(o.stages[s].misses));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << "BENCH " << w.str() << '\n';
}

void print_tables() {
  constexpr int kSystems = 200;
  const std::vector<System> sweep = mutation_sweep(kSystems, 42);

  const SweepOutcome cold = run_sweep(sweep, /*persistent=*/false);
  const SweepOutcome warm = run_sweep(sweep, /*persistent=*/true);
  const double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0;

  std::cout << "=== Artifact-store effectiveness on a priority-mutation sweep ("
            << kSystems << " systems) ===\n";
  io::TextTable table({"variant", "seconds", "hit rate", "busy-window misses"});
  table.add_row({"cold (fresh engine per system)", util::cat(cold.seconds), "0",
                 util::cat(cold.stages[static_cast<int>(ArtifactStage::kBusyWindow)].misses)});
  table.add_row({"warm (persistent engine)", util::cat(warm.seconds),
                 util::cat(warm.hit_rate()),
                 util::cat(warm.stages[static_cast<int>(ArtifactStage::kBusyWindow)].misses)});
  std::cout << table.render();
  std::cout << "speedup warm vs cold: " << speedup << "x\n\n";

  emit_bench_json("cold", kSystems, cold, 1.0);
  emit_bench_json("warm", kSystems, warm, speedup);
}

void BM_SweepColdEngines(benchmark::State& state) {
  const std::vector<System> sweep = mutation_sweep(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(sweep, /*persistent=*/false).misses);
  }
}
BENCHMARK(BM_SweepColdEngines)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_SweepWarmEngine(benchmark::State& state) {
  const std::vector<System> sweep = mutation_sweep(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(sweep, /*persistent=*/true).misses);
  }
}
BENCHMARK(BM_SweepWarmEngine)->Arg(20)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
