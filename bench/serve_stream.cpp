// Serve-stream benchmark: the end-to-end cost of the `wharf serve`
// NDJSON loop on the traffic shape it was designed for — an outer loop
// sweeping a design space one delta at a time.
//
// Two clients issue the same 60-mutation sweep (every mutation queried
// with the standard latency+dmm set), through the real wire path (JSON
// parse -> session -> report serialization):
//
//  * cold — the pre-session protocol: every mutation ships the whole
//    mutated system as a fresh open_session/query/close conversation
//    against a fresh engine (nothing reused, like N one-shot
//    `wharf analyze` calls);
//  * warm — the session protocol: one open_session, then
//    apply_delta/query pairs on one long-lived engine, so each delta
//    re-solves only the slices it touches.
//
// Emits machine-readable "BENCH {...}" JSON lines (requests/sec,
// busy-window solves, warm-vs-cold identity) next to the tables; CI
// gates on `identical_to_cold` and on warm performing strictly fewer
// busy-window solves.
//
//   $ ./bench_serve_stream

#include <benchmark/benchmark.h>

#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cli/serve.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "io/tables.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));

System sweep_base() {
  gen::RandomSystemSpec spec;
  spec.min_chains = 8;
  spec.max_chains = 8;
  spec.min_tasks = 1;
  spec.max_tasks = 2;
  spec.utilization = 0.5;
  spec.overload_chains = 1;
  std::mt19937_64 rng(42);
  return gen::random_system(spec, rng, "serve_sweep");
}

/// One random pairwise priority swap per step, as (flat index, flat
/// index) pairs over the base task order.
std::vector<std::pair<std::size_t, std::size_t>> sweep_swaps(const System& base, int steps,
                                                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t tasks = static_cast<std::size_t>(base.task_count());
  std::uniform_int_distribution<std::size_t> pick(0, tasks - 1);
  std::vector<std::pair<std::size_t, std::size_t>> swaps;
  swaps.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) swaps.emplace_back(pick(rng), pick(rng));
  return swaps;
}

std::string query_line(int id) {
  return util::cat(
      R"({"id":)", id,
      R"(,"type":"query","session":"s","queries":[{"kind":"latency","chain":"chain0"},)"
      R"({"kind":"latency","chain":"chain3"},{"kind":"dmm","chain":"chain0","ks":[1,10]},)"
      R"({"kind":"dmm","chain":"chain5","ks":[1,10]}]})");
}

/// The per-query "results":[...] payload of a response line (answers
/// only — diagnostics legitimately differ between warm and cold).
std::string results_of(const std::string& response_line) {
  const auto begin = response_line.find("\"results\":");
  const auto end = response_line.find(",\"diagnostics\"");
  if (begin == std::string::npos || end == std::string::npos) return response_line;
  return response_line.substr(begin, end - begin);
}

struct StreamOutcome {
  double seconds = 0;
  long long requests = 0;
  std::size_t busy_window_solves = 0;   ///< artifacts computed (store insertions)
  std::vector<std::string> query_results;  ///< per mutation, answers only

  [[nodiscard]] double requests_per_sec() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

/// The session protocol: one conversation, deltas between queries.
StreamOutcome run_warm(const System& base,
                       const std::vector<std::pair<std::size_t, std::size_t>>& swaps) {
  std::vector<std::string> names;
  for (const Chain& chain : base.chains()) {
    for (const Task& task : chain.tasks()) names.push_back(chain.name() + "." + task.name);
  }

  std::ostringstream conversation;
  int id = 0;
  conversation << R"({"id":)" << ++id
               << R"(,"type":"open_session","session":"s","system":")"
               << io::json_escape(io::serialize_system(base)) << "\"}\n";
  std::vector<Priority> flat = base.flat_priorities();
  for (const auto& [i, j] : swaps) {
    conversation << R"({"id":)" << ++id
                 << R"(,"type":"apply_delta","session":"s","deltas":[)"
                 << R"({"kind":"set_priority","task":")" << names[i] << R"(","priority":)"
                 << flat[j] << R"(},{"kind":"set_priority","task":")" << names[j]
                 << R"(","priority":)" << flat[i] << "}]}\n";
    std::swap(flat[i], flat[j]);
    conversation << query_line(++id) << '\n';
  }
  conversation << R"({"id":)" << ++id << R"(,"type":"close","session":"s"})" << '\n';

  Engine engine;
  std::istringstream in(conversation.str());
  std::ostringstream out;
  util::Stopwatch clock;
  (void)cli::serve_stream(engine, in, out);
  StreamOutcome outcome;
  outcome.seconds = clock.seconds();
  outcome.requests = id;
  outcome.busy_window_solves = engine.store_stats().stage[kBusyWindowStage].insertions;

  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"report\":") != std::string::npos) {
      outcome.query_results.push_back(results_of(line));
    }
  }
  return outcome;
}

/// The pre-session protocol: every mutation is its own conversation
/// (whole system shipped, fresh engine — nothing reused).
StreamOutcome run_cold(const System& base,
                       const std::vector<std::pair<std::size_t, std::size_t>>& swaps) {
  StreamOutcome outcome;
  std::vector<Priority> flat = base.flat_priorities();
  util::Stopwatch clock;
  double seconds = 0;
  for (const auto& [i, j] : swaps) {
    std::swap(flat[i], flat[j]);
    const System mutated = base.with_priorities(flat);
    std::ostringstream conversation;
    conversation << R"({"id":1,"type":"open_session","session":"s","system":")"
                 << io::json_escape(io::serialize_system(mutated)) << "\"}\n"
                 << query_line(2) << '\n'
                 << R"({"id":3,"type":"close","session":"s"})" << '\n';

    Engine engine;
    std::istringstream in(conversation.str());
    std::ostringstream out;
    util::Stopwatch per_conversation;
    (void)cli::serve_stream(engine, in, out);
    seconds += per_conversation.seconds();
    outcome.requests += 3;
    outcome.busy_window_solves += engine.store_stats().stage[kBusyWindowStage].insertions;

    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"report\":") != std::string::npos) {
        outcome.query_results.push_back(results_of(line));
      }
    }
  }
  outcome.seconds = seconds;
  (void)clock;
  return outcome;
}

void emit_bench_json(const char* variant, const StreamOutcome& o, double speedup,
                     bool identical) {
  io::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("serve_stream");
  w.key("variant");
  w.value(variant);
  w.key("requests");
  w.value(o.requests);
  w.key("seconds");
  w.value(o.seconds);
  w.key("requests_per_sec");
  w.value(o.requests_per_sec());
  w.key("busy_window_solves");
  w.value(static_cast<long long>(o.busy_window_solves));
  w.key("identical_to_cold");
  w.value(identical);
  w.key("speedup_vs_cold");
  w.value(speedup);
  w.end_object();
  std::cout << "BENCH " << w.str() << '\n';
}

void print_tables() {
  constexpr int kSteps = 60;
  const System base = sweep_base();
  const auto swaps = sweep_swaps(base, kSteps, 7);

  const StreamOutcome cold = run_cold(base, swaps);
  const StreamOutcome warm = run_warm(base, swaps);
  const double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0;
  const bool identical = warm.query_results == cold.query_results &&
                         warm.query_results.size() == static_cast<std::size_t>(kSteps);

  std::cout << "=== wharf serve: one session + deltas vs. one conversation per mutation ("
            << kSteps << " mutations) ===\n";
  io::TextTable table({"variant", "requests", "seconds", "req/s", "busy-window solves"});
  table.add_row({"cold (open/query/close per mutation)", util::cat(cold.requests),
                 util::cat(cold.seconds), util::cat(cold.requests_per_sec()),
                 util::cat(cold.busy_window_solves)});
  table.add_row({"warm (one session, delta batches)", util::cat(warm.requests),
                 util::cat(warm.seconds), util::cat(warm.requests_per_sec()),
                 util::cat(warm.busy_window_solves)});
  std::cout << table.render();
  std::cout << "speedup warm vs cold: " << speedup
            << "x; answers bit-identical: " << (identical ? "yes" : "NO — BUG") << "\n\n";

  emit_bench_json("cold", cold, 1.0, true);
  emit_bench_json("warm", warm, speedup, identical);
}

void BM_ServeRoundtrip(benchmark::State& state) {
  // One apply_delta + query roundtrip against a persistent warm session.
  const System base = sweep_base();
  const auto swaps = sweep_swaps(base, 2, 11);
  for (auto _ : state) {
    state.PauseTiming();
    const StreamOutcome outcome = run_warm(base, swaps);
    state.ResumeTiming();
    benchmark::DoNotOptimize(outcome.requests);
  }
}
BENCHMARK(BM_ServeRoundtrip)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
