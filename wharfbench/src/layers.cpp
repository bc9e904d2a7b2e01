// The traced run's layer replay: each layer's public functions called
// directly on the workload's own systems, outside the op spans.

#include <algorithm>

#include "bench.hpp"
#include "core/model_slice.hpp"
#include "engine/pipeline.hpp"
#include "io/system_format.hpp"
#include "io/wire.hpp"
#include "net/service.hpp"

namespace wharfbench {

using namespace wharf;

namespace {

double us_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e3; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Splits a layer-time budget across steps: each step runs while its
/// share lasts, always on at least one system.
struct Budget {
  std::int64_t deadline_ns;
  bool left(std::size_t done) const { return done == 0 || now_ns() < deadline_ns; }
};

Budget share(double seconds) {
  return Budget{now_ns() + static_cast<std::int64_t>(seconds * 1e9)};
}

// Core stages, engine overhead and report serialisation.
void core_layers(const ReplayInput& input, double seconds, Tracer& tracer, RunResult& r) {
  const Budget budget = share(seconds);
  std::vector<double> kb;
  double unbounded = 0;
  double busy_bytes = 0;
  double combinations = 0;
  double nodes = 0;
  std::size_t dmm_count = 0;
  std::vector<double> engine_us;
  std::vector<double> free_us;
  std::vector<double> parse_us;
  std::vector<double> serialize_us;
  std::vector<double> report_bytes;
  for (std::size_t i = 0; i < input.systems.size() && budget.left(i); ++i) {
    const System& system = input.systems[i];
    const std::string text = io::serialize_system(system);
    std::int64_t t0 = now_ns();
    const System parsed = io::parse_system(text);
    parse_us.push_back(us_since(t0));

    t0 = now_ns();
    StageRecompute free;
    {
      Scoped span(tracer, "replay.stages");
      free = recompute_stages(parsed, &tracer);
    }
    free_us.push_back(us_since(t0));

    Engine engine{EngineOptions{}};
    t0 = now_ns();
    const AnalysisReport report = engine.run(analysis_request(parsed));
    engine_us.push_back(us_since(t0));
    t0 = now_ns();
    const std::string json = to_json(report);
    serialize_us.push_back(us_since(t0));
    report_bytes.push_back(static_cast<double>(json.size()));
    if (canonical(report) == free.canonical) {
      r.accounting.ok("cross");
    } else {
      r.accounting.fail("cross", "Engine::run differs from the free stage functions");
    }

    for (const LatencyResult& l : free.latencies) {
      kb.push_back(static_cast<double>(l.bounded ? l.K : static_cast<Count>(l.busy_times.size())));
      unbounded += l.bounded ? 0 : 1;
      busy_bytes += static_cast<double>(l.busy_times.size() * sizeof(Time));
    }
    for (const DmmResult& d : free.dmms) {
      combinations += static_cast<double>(d.combination_count);
      nodes += static_cast<double>(d.solver_nodes);
      ++dmm_count;
    }
  }
  put(r.layers, "core.interference_us", tracer.mean_us("core.interference"), "us");
  put(r.layers, "core.busy_window_us", tracer.mean_us("core.busy_window"), "us");
  put(r.layers, "core.overload_us", tracer.mean_us("core.overload"), "us");
  put(r.layers, "ilp.dmm_us", tracer.mean_us("ilp.dmm"), "us");
  put(r.layers, "core.kb_mean", mean(kb), "count");
  put(r.layers, "core.kb_max", kb.empty() ? 0.0 : *std::max_element(kb.begin(), kb.end()),
      "count");
  put(r.layers, "core.unbounded_share", ratio(unbounded, static_cast<double>(kb.size())),
      "fraction");
  put(r.layers, "core.busy_times_bytes", ratio(busy_bytes, static_cast<double>(kb.size())),
      "bytes");
  put(r.layers, "core.combinations", ratio(combinations, static_cast<double>(dmm_count)), "count");
  put(r.layers, "ilp.solver_nodes", ratio(nodes, static_cast<double>(dmm_count)), "count");
  put(r.layers, "engine.overhead_us", mean(engine_us) - mean(free_us), "us");
  put(r.layers, "io.parse_system_us", mean(parse_us), "us");
  put(r.layers, "io.serialize_report_us", mean(serialize_us), "us");
  put(r.layers, "io.report_bytes", mean(report_bytes), "bytes");
}

// The four key builders with a SliceCache and a KeyInterner.
void key_layers(const ReplayInput& input, double seconds, RunResult& r) {
  const Budget budget = share(seconds);
  const TwcaOptions options{};
  SliceCache slices;
  KeyInterner interner;
  std::vector<double> per_target_us;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < input.systems.size() && budget.left(i); ++i) {
    const System& system = input.systems[i];
    if (!input.same_structure[i]) slices.invalidate();
    for (const int t : system.regular_indices()) {
      const std::int64_t t0 = now_ns();
      const std::string interference = interference_key(system, t, &slices, &interner);
      const std::string full = busy_window_key(system, t, options.analysis, false, &slices, &interner);
      const std::string without = busy_window_key(system, t, options.analysis, true, &slices, &interner);
      bytes += interference.size() + full.size() + without.size();
      if (system.chain(t).deadline().has_value()) {
        const std::string overload = overload_key(system, t, options, full, &slices, &interner);
        bytes += overload.size() + dmm_key(10, options, overload, &interner).size() +
                 dmm_key(100, options, overload, &interner).size();
      }
      per_target_us.push_back(us_since(t0));
    }
  }
  const SliceCache::Stats s = slices.stats();
  put(r.layers, "engine.key_us", mean(per_target_us), "us");
  put(r.layers, "engine.slice_reuse",
      ratio(static_cast<double>(s.hits), static_cast<double>(s.hits + s.misses)), "fraction");
  put(r.layers, "engine.interned_fragments", static_cast<double>(interner.size()), "count");
  r.census["replay_key_bytes"] = std::to_string(bytes);
}

// Pipeline stage accessors, classified by stage_diagnostics() deltas:
// a first pass over each system, then a second pass (new epoch) in which
// every lookup is a store hit.
void pipeline_layers(const ReplayInput& input, double seconds, RunResult& r) {
  const Budget budget = share(seconds);
  const TwcaOptions options{};
  ArtifactStore store;
  SliceCache slices;
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  const auto totals = [](const std::array<StageDiagnostics, kArtifactStageCount>& d) {
    std::pair<std::size_t, std::size_t> out{0, 0};
    for (const StageDiagnostics& s : d) {
      out.first += s.hits;
      out.second += s.misses + s.shared;
    }
    return out;
  };
  for (std::size_t i = 0; i < input.systems.size() && budget.left(i); ++i) {
    const System& system = input.systems[i];
    if (!input.same_structure[i]) slices.invalidate();
    for (int pass = 0; pass < 2; ++pass) {
      Pipeline pipeline(system, options, store, store.begin_epoch(), 1, &slices);
      for (const int t : system.regular_indices()) {
        const bool deadline = system.chain(t).deadline().has_value();
        for (int step = 0; step < 6; ++step) {
          if (step >= 3 && !deadline) break;
          const auto before = totals(pipeline.stage_diagnostics());
          const std::int64_t t0 = now_ns();
          switch (step) {
            case 0: (void)pipeline.interference(t); break;
            case 1: (void)pipeline.latency(t); break;
            case 2: (void)pipeline.latency_without_overload(t); break;
            case 3: (void)pipeline.overload_artifacts(t); break;
            case 4: (void)pipeline.dmm(t, 10); break;
            default: (void)pipeline.dmm(t, 100); break;
          }
          const double us = us_since(t0);
          const auto after = totals(pipeline.stage_diagnostics());
          if (after.second > before.second) {
            miss_us.push_back(us);
          } else if (after.first > before.first) {
            hit_us.push_back(us);
          }
        }
      }
    }
  }
  put(r.layers, "engine.lookup_hit_us", mean(hit_us), "us");
  put(r.layers, "engine.compute_miss_us", mean(miss_us), "us");
}

// Session deltas and speculation on systems[0].
void session_layers(const ReplayInput& input, double seconds, RunResult& r) {
  const Budget budget = share(seconds);
  Engine engine{EngineOptions{}};
  Session session = engine.open_session(input.systems.front());
  std::vector<double> priority_us;
  std::vector<double> structural_us;
  std::vector<double> speculate_us;
  for (std::size_t i = 0; i < input.deltas.size() && budget.left(i); ++i) {
    const std::vector<Delta>& batch = input.deltas[i];
    const bool structural =
        std::any_of(batch.begin(), batch.end(), [](const Delta& d) { return is_structural(d); });
    if (!structural) {
      const std::int64_t t0 = now_ns();
      const Session candidate = session.speculate(batch);
      speculate_us.push_back(us_since(t0));
    }
    const std::int64_t t0 = now_ns();
    const Status status = session.apply(batch);
    (structural ? structural_us : priority_us).push_back(us_since(t0));
    if (status.is_ok()) {
      r.accounting.ok("cross");
    } else {
      r.accounting.fail("cross", "probe delta refused: " + status.to_string());
    }
    // Keep the session's store warm the way a client's next query would.
    (void)session.latency(session.system().regular_indices().front());
  }
  put(r.layers, "session.apply_priority_us", mean(priority_us), "us");
  put(r.layers, "session.apply_structural_us", mean(structural_us), "us");
  put(r.layers, "session.speculate_us", mean(speculate_us), "us");
}

// One pairwise-swap neighbourhood of systems[0], warm through a
// PipelineEvaluator and recomputed through the free stage functions.
void search_layers(const ReplayInput& input, RunResult& r) {
  const System& base = input.systems.front();
  const std::vector<Priority> start = base.flat_priorities();
  std::vector<std::vector<Priority>> candidates;
  for (std::size_t a = 0; a < start.size() && candidates.size() < 48; ++a) {
    for (std::size_t b = a + 1; b < start.size() && candidates.size() < 48; ++b) {
      std::vector<Priority> c = start;
      std::swap(c[a], c[b]);
      candidates.push_back(std::move(c));
    }
  }
  if (candidates.empty()) candidates.push_back(start);
  ArtifactStore store;
  search::PipelineEvaluator evaluator(base, {}, {}, store, 1);
  (void)evaluator.evaluate(start);
  std::int64_t t0 = now_ns();
  const std::vector<search::Objective> warm = evaluator.evaluate_many(candidates);
  const double warm_us = us_since(t0);
  t0 = now_ns();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!(recompute_objective(base.with_priorities(candidates[i]), 10) == warm[i])) ++mismatches;
  }
  const double cold_us = us_since(t0);
  const double n = static_cast<double>(candidates.size());
  const search::EvaluatorStats stats = evaluator.stats();
  const auto& bw = stats.stages[static_cast<std::size_t>(ArtifactStage::kBusyWindow)];
  put(r.layers, "search.neighborhood_us", warm_us, "us");
  put(r.layers, "search.busy_window_reuse",
      ratio(static_cast<double>(bw.hits), static_cast<double>(bw.lookups)), "fraction");
  put(r.layers, "search.warm_cands_s", n / (warm_us / 1e6), "1/s");
  put(r.layers, "search.recompute_cands_s", n / (cold_us / 1e6), "1/s");
  put(r.layers, "search.warm_vs_recompute", ratio(cold_us, warm_us), "ratio");
  if (mismatches == 0) {
    r.accounting.ok("cross", static_cast<long long>(n));
  } else {
    r.accounting.fail("cross", "warm objectives differ from recompute",
                      static_cast<long long>(mismatches));
  }
}

// The wire conversation replayed in-process, then sent to a spawned
// server over one connection.
void net_layers(const Options& o, const ReplayInput& input, RunResult& r) {
  Engine engine{EngineOptions{}};
  net::ServeTelemetry telemetry;
  net::Conversation conversation{&engine, &telemetry, {}};
  std::vector<double> parse_us;
  std::vector<double> service_us;
  std::vector<double> bytes;
  std::vector<std::string> replayed;
  std::vector<bool> streamed;
  bool shutdown = false;
  for (const std::string& line : input.wire_lines) {
    const std::int64_t t0 = now_ns();
    Expected<io::WireRequest> request = io::parse_request(line);
    parse_us.push_back(us_since(t0));
    require(request.has_value(), "replay line does not parse: " + line);
    std::string out;
    std::size_t size = 0;
    if (request.value().stream) {
      net::StreamProgress progress;
      (void)net::run_query_stream(
          conversation, request.value(), progress,
          [&](const std::string& frame) {
            size += frame.size();
            out += answers_of(frame);
            return true;
          },
          [] { return false; });
    } else {
      const std::string response = net::handle_request(conversation, request.value(), shutdown);
      size = response.size();
      out = answers_of(response);
    }
    service_us.push_back(us_since(t0));
    bytes.push_back(static_cast<double>(size));
    replayed.push_back(std::move(out));
    streamed.push_back(request.value().stream);
  }
  put(r.layers, "io.parse_request_us", mean(parse_us), "us");
  put(r.layers, "net.service_us", mean(service_us), "us");
  put(r.layers, "io.response_bytes", mean(bytes), "bytes");

  if (r.layers.count("net.transport_us") > 0 || o.wharf_binary.empty()) return;
  ServerProcess server(o.wharf_binary, 1);
  std::vector<double> client_us;
  std::string diagnostics;
  {
    Client client(server.port());
    for (std::size_t i = 0; i < input.wire_lines.size(); ++i) {
      const std::int64_t t0 = now_ns();
      client.send(input.wire_lines[i]);
      std::string out;
      while (true) {
        const std::string line = client.recv();
        out += answers_of(line);
        if (!streamed[i] || line.find("\"frame\":\"result\"") == std::string::npos) break;
      }
      client_us.push_back(us_since(t0));
      if (out == replayed[i]) {
        r.accounting.ok("cross");
      } else {
        r.accounting.fail("cross", "wire response differs from the in-process replay");
      }
    }
    client.send(open_session_line("diagnostics", io::serialize_system(input.systems.front()), 0));
    (void)client.recv();
    client.send("{\"type\":\"diagnostics\",\"session\":\"diagnostics\"}");
    diagnostics = client.recv();
  }
  require(server.shutdown() == 0, "probe server did not exit cleanly");
  const io::JsonValue d = io::parse_json(diagnostics);
  put(r.layers, "net.transport_us", mean(client_us) - mean(service_us), "us");
  put(r.layers, "net.stream_frames",
      static_cast<double>(d.at("server").at("stream_frames").as_int()), "count");
  put(r.layers, "net.backpressure_stalls",
      static_cast<double>(d.at("server").at("backpressure_stalls").as_int()), "count");
  put(r.layers, "engine.shared_flights",
      static_cast<double>(d.at("engine_store").at("shared_flights").as_int()), "count");
}

}  // namespace

void decompose_layers(const Options& options, const ReplayInput& input, double budget_s,
                      Tracer& tracer, RunResult& result) {
  require(!input.systems.empty(), "layer replay needs at least one system");
  const bool was = tracer.enabled;
  tracer.enabled = true;
  core_layers(input, budget_s * 0.4, tracer, result);
  key_layers(input, budget_s * 0.1, result);
  pipeline_layers(input, budget_s * 0.3, result);
  session_layers(input, budget_s * 0.1, result);
  search_layers(input, result);
  net_layers(options, input, result);
  tracer.enabled = was;
}

}  // namespace wharfbench
