// wharfbench: one seeded workload of the wharf benchmark per invocation.
//
//   wharfbench --workload analyze_stream --seed 1 --seconds 10 --trace 0
//              --wharf <path to the wharf CLI> [--trace-out spans.jsonl]
//              [--expect-digest <hex>]
//
// Prints a census line (inputs, build, per-phase op accounting) and, as
// the last line, {"correct","attempted","failed","metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer metrics.

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace {

using namespace wharfbench;

const char* const kEndToEnd[] = {"throughput_ops_s", "latency_p50_ms", "latency_p99_ms",
                                 "setup_s", "peak_rss_mb"};

const char* const kLayers[] = {
    "io.parse_system_us",      "io.serialize_report_us",    "io.report_bytes",
    "io.parse_request_us",     "io.response_bytes",         "core.interference_us",
    "core.busy_window_us",     "core.kb_mean",              "core.kb_max",
    "core.unbounded_share",    "core.busy_times_bytes",     "core.overload_us",
    "core.combinations",       "ilp.dmm_us",                "ilp.solver_nodes",
    "engine.key_us",           "engine.slice_reuse",        "engine.interned_fragments",
    "engine.lookup_hit_us",    "engine.compute_miss_us",    "engine.store_hit_rate",
    "engine.resident_bytes",   "engine.evictions",          "engine.overhead_us",
    "engine.shared_flights",   "session.apply_priority_us", "session.apply_structural_us",
    "session.speculate_us",    "search.neighborhood_us",    "search.busy_window_reuse",
    "search.warm_vs_recompute", "search.warm_cands_s",      "search.recompute_cands_s",
    "net.service_us",          "net.transport_us",          "net.stream_frames",
    "net.backpressure_stalls", "trace_overhead"};

std::string metrics_json(const Metrics& metrics, const char* const* names, std::size_t count) {
  std::string out = "{";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = metrics.find(names[i]);
    require(it != metrics.end(), std::string("metric not measured: ") + names[i]);
    require(std::isfinite(it->second.value), std::string("metric not finite: ") + names[i]);
    if (i > 0) out += ",";
    out += quote(names[i]) + ":{\"value\":" + number(it->second.value) +
           ",\"unit\":" + quote(it->second.unit) + "}";
  }
  return out + "}";
}

Options parse(int argc, char** argv, std::string& expected) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--wharf") {
      o.wharf_binary = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--expect-digest") {
      expected = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags come in pairs");
  require(o.seconds > 0, "--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // util::Mutex changes layout and assertions cost time without NDEBUG:
  // such a build measures something else, so it refuses to time.
  std::cerr << "wharfbench: built without NDEBUG; refusing a timed run\n";
  return 3;
#endif
  try {
    std::string expected;
    const Options o = parse(argc, argv, expected);
    RunResult r;
    if (o.workload == "analyze_stream") {
      r = run_analyze_stream(o, expected);
    } else if (o.workload == "saturation") {
      r = run_saturation(o, expected);
    } else if (o.workload == "search_hill") {
      r = run_search_hill(o, expected);
    } else if (o.workload == "serve_sessions") {
      r = run_serve_sessions(o, expected);
    } else {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }

    const long long attempted = r.accounting.attempted();
    const long long failed = r.accounting.failed();
    const auto timed = r.accounting.phases["timed"];
    std::string census = "{\"workload\":" + quote(o.workload) +
                         ",\"seed\":" + std::to_string(o.seed) +
                         ",\"trace\":" + (o.trace ? "true" : "false") +
                         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                         ",\"compiler\":" + quote(WHARFBENCH_COMPILER) +
                         ",\"build_type\":" + quote(WHARFBENCH_BUILD_TYPE) + ",\"ndebug\":true";
    for (const auto& [key, value] : r.census) census += "," + quote(key).append(":").append(value);
    census += ",\"error_rate\":" +
              number(timed.attempted ? static_cast<double>(timed.failed) / timed.attempted : 1.0);
    census += ",\"phases\":{";
    bool first = true;
    for (const auto& [name, phase] : r.accounting.phases) {
      if (!first) census += ",";
      census += quote(name) + ":{\"attempted\":" +
                std::to_string(phase.attempted) + ",\"succeeded\":" +
                std::to_string(phase.attempted - phase.failed) +
                ",\"failed\":" + std::to_string(phase.failed) + "}";
      first = false;
    }
    census += "},\"problems\":[";
    for (std::size_t i = 0; i < r.accounting.problems.size(); ++i) {
      if (i > 0) census += ",";
      census += quote(r.accounting.problems[i]);
    }
    census += "]}";
    std::cout << "census " << census << "\n";
    if (o.trace) {
      std::cout << "traced_end_to_end "
                << metrics_json(r.end_to_end, kEndToEnd, std::size(kEndToEnd)) << "\n";
    }

    const std::string metrics = o.trace ? metrics_json(r.layers, kLayers, std::size(kLayers))
                                        : metrics_json(r.end_to_end, kEndToEnd, std::size(kEndToEnd));
    const bool correct = r.correct && failed == 0;
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << std::max(1LL, attempted) << ",\"failed\":" << failed
              << ",\"metrics\":" << metrics << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wharfbench: " << e.what() << "\n";
    return 1;
  }
}
