// The four workloads: closed-loop op loops with setup repetitions, a
// pinned answer-check set, in-run cross-checks and, in the traced run,
// spans around every call into the library plus the layer replay.

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "io/system_format.hpp"
#include "io/wire.hpp"
#include "net/service.hpp"

namespace wharfbench {

using namespace wharf;

namespace {

/// Pinned seed of every workload's answer-check set (independent of --seed).
constexpr std::uint64_t kCheckSeed = 20170327;

// peak_rss_mb is VmHWM after a fixed amount of work (or at the end of a
// shorter run): the store's intern table and memos grow with every new
// key, so reading it after a fixed time would charge a faster build for
// the extra work it got through.
constexpr long long kRssAfterStreamOps = 4000;
constexpr long long kRssAfterSaturationOps = 1000;
constexpr long long kRssAfterCandidates = 20000;
constexpr long long kRssAfterRounds = 400;  ///< of client 0

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double elapsed_s(std::int64_t since_ns) { return static_cast<double>(now_ns() - since_ns) / 1e9; }

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 9;

/// Census helpers: "label" -> count histograms rendered as JSON objects.
std::string histogram(const std::map<long long, long long>& h) {
  std::string out = "{";
  for (const auto& [k, v] : h) {
    if (out.size() > 1) out += ",";
    out += "\"" + std::to_string(k) + "\":" + std::to_string(v);
  }
  return out + "}";
}

std::string spread(std::vector<double> v) {
  if (v.empty()) return "null";
  return "{\"min\":" + number(*std::min_element(v.begin(), v.end())) +
         ",\"median\":" + number(median(v)) +
         ",\"max\":" + number(*std::max_element(v.begin(), v.end())) + "}";
}

/// Input census, accumulated without keeping the systems alive (they
/// would count towards peak_rss_mb).
struct Census {
  std::map<long long, long long> chains;
  std::map<long long, long long> tasks;
  std::vector<double> utilization;

  void add(const System& s) {
    ++chains[s.size()];
    for (const Chain& c : s.chains()) ++tasks[c.size()];
    utilization.push_back(s.utilization());
  }
  void write(RunResult& r) const {
    r.census["chains_per_system"] = histogram(chains);
    r.census["tasks_per_chain"] = histogram(tasks);
    r.census["utilization"] = spread(utilization);
  }
};

/// Cross-check samples kept per run (every 8th op until this many).
constexpr std::size_t kMaxSamples = 400;

bool any_unbounded(const AnalysisReport& report) {
  for (const QueryResult& q : report.results) {
    if (const auto* a = std::get_if<LatencyAnswer>(&q.answer)) {
      if (!a->result.bounded) return true;
    }
  }
  return false;
}

void finish_trace_overhead(RunResult& r, const std::vector<double>& traced,
                           const std::vector<double>& untraced) {
  const double base = median(untraced);
  put(r.layers, "trace_overhead", base > 0 ? median(traced) / base - 1.0 : 0.0, "fraction");
}

void check_digest(RunResult& r, const std::string& workload, const std::string& canonical_text,
                  long long ops, const std::string& expected) {
  const std::string digest = hex64(fnv1a(canonical_text));
  r.census["answer_digest"] = quote(digest);
  if (expected.empty()) {
    r.census["answer_digest_pinned"] = "false";
    r.accounting.ok("check", ops);
    return;
  }
  if (digest == expected) {
    r.accounting.ok("check", ops);
  } else {
    r.accounting.fail("check", workload + " answer digest " + digest + " != pinned " + expected,
                      ops);
    r.correct = false;
  }
}

// ---------------------------------------------------------------------
// analyze_stream and saturation: one caller, one long-lived Engine
// ---------------------------------------------------------------------

struct StreamSource {
  bool saturation = false;
  std::mt19937_64 rng;
  std::mt19937_64 position_rng;
  long long next_index = 0;
  long long overload_at = -1;  ///< index of the overloaded op in the current block

  StreamSource(bool sat, std::uint64_t seed)
      : saturation(sat), rng(mix(seed, sat ? 2 : 1)), position_rng(mix(seed, 99)) {}

  /// Next input text; `overloaded` is set for saturation's planned
  /// overloaded variants (one per block of 50).
  std::string next(bool& overloaded) {
    const long long i = next_index++;
    if (!saturation) {
      overloaded = false;
      return analyze_stream_system(rng, i);
    }
    if (i % 50 == 0) overload_at = i + static_cast<long long>(position_rng() % 50);
    overloaded = i == overload_at;
    return saturation_system(rng, i, overloaded);
  }
};

RunResult run_stream(const Options& o, bool saturation, const std::string& expected_digest) {
  RunResult r;
  Tracer tracer;
  tracer.enabled = o.trace;
  StreamSource source(saturation, o.seed);

  // Set-up: build the Engine and decode the first batch of inputs.
  constexpr int kBatch = 64;
  std::vector<std::string> batch;
  std::vector<bool> batch_overloaded;
  auto refill = [&] {
    batch.clear();
    batch_overloaded.clear();
    for (int i = 0; i < kBatch; ++i) {
      bool overloaded = false;
      batch.push_back(source.next(overloaded));
      batch_overloaded.push_back(overloaded);
    }
  };
  refill();
  std::optional<Engine> engine;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    engine.reset();
    engine.emplace(EngineOptions{});
    std::size_t tasks = 0;
    for (const std::string& text : batch) tasks += static_cast<std::size_t>(io::parse_system(text).task_count());
    require(tasks > 0, "empty input batch");
    setup.push_back(elapsed_s(t0));
  }

  // Timed closed loop.
  const double op_seconds = o.trace ? o.seconds * 0.6 : o.seconds;
  std::vector<double> latencies;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  Census census;
  std::vector<std::pair<std::string, std::string>> samples;  // text, engine canonical
  std::vector<bool> sample_overloaded;
  double busy_s = 0;
  double rss = -1;
  double slice_ops = 0;
  double slice_s = 0;
  std::vector<double> slice_rates;  ///< ops/s per 0.5 s of op time
  long long unbounded_ops = 0;
  std::vector<double> unbounded_ms;
  std::vector<double> bounded_ms;
  long long report_bytes = 0;
  std::size_t hits = 0;
  std::size_t lookups = 0;
  std::size_t cursor = 0;
  long long op = 0;
  const std::int64_t start = now_ns();
  // Saturation stops only at the end of a block of 50 inputs, so every
  // run holds exactly 2% overloaded ops.
  while (elapsed_s(start) < op_seconds || op < 20 || (saturation && op % 50 != 0)) {
    if (cursor == batch.size()) {
      refill();
      cursor = 0;
    }
    const std::string& text = batch[cursor];
    const bool overloaded = batch_overloaded[cursor];
    ++cursor;
    const bool traced = o.trace && (op / 16) % 2 == 0;
    tracer.enabled = traced;
    std::optional<System> system;
    AnalysisReport report;
    std::string json;
    bool ok = true;
    std::string why;
    const std::int64_t t0 = now_ns();
    try {
      Scoped root(tracer, "op", op);
      {
        Scoped span(tracer, "io.parse_system");
        system.emplace(io::parse_system(text));
      }
      {
        Scoped span(tracer, "engine.run");
        report = engine->run(analysis_request(*system));
      }
      {
        Scoped span(tracer, "io.serialize_report");
        json = to_json(report);
      }
    } catch (const std::exception& e) {
      ok = false;
      why = e.what();
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    tracer.enabled = o.trace;
    busy_s += ms / 1e3;
    latencies.push_back(ms);
    if (op + 1 == (saturation ? kRssAfterSaturationOps : kRssAfterStreamOps)) rss = peak_rss_mib();
    slice_ops += 1;
    slice_s += ms / 1e3;
    if (slice_s >= 0.5) {
      slice_rates.push_back(slice_ops / slice_s);
      slice_ops = 0;
      slice_s = 0;
    }
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (ok && !report.ok()) {
      ok = false;
      why = "query error: " + report.worst_status().to_string();
    }
    if (!ok) {
      r.accounting.fail("timed", why);
      ++op;
      continue;
    }
    r.accounting.ok("timed");
    report_bytes += static_cast<long long>(json.size());
    if (any_unbounded(report)) {
      ++unbounded_ops;
      unbounded_ms.push_back(ms);
    } else {
      bounded_ms.push_back(ms);
    }
    for (const StageDiagnostics& s : report.diagnostics.stages) {
      hits += s.hits;
      lookups += s.lookups;
    }
    census.add(*system);
    const bool first_overloaded =
        overloaded && std::find(sample_overloaded.begin(), sample_overloaded.end(), true) ==
                          sample_overloaded.end();
    if ((op % 8 == 0 && samples.size() < kMaxSamples) || first_overloaded) {
      samples.emplace_back(text, canonical(report));
      sample_overloaded.push_back(overloaded);
    }
    ++op;
  }
  const double window_s = busy_s;
  if (rss < 0) rss = peak_rss_mib();
  add_end_to_end(r, latencies, static_cast<double>(op), window_s, setup, rss);
  census.write(r);
  r.census["ops"] = std::to_string(op);
  r.census["unbounded_share"] = number(static_cast<double>(unbounded_ops) / static_cast<double>(op));
  r.census["unbounded_op_ms"] = spread(unbounded_ms);
  r.census["bounded_op_ms"] = spread(bounded_ms);
  r.census["slice_ops_s"] = spread(slice_rates);
  r.census["throughput_basis"] = quote("ops / summed op time (input generation excluded)");
  if (o.trace) {
    put(r.layers, "io.report_bytes", static_cast<double>(report_bytes) / static_cast<double>(op),
        "bytes");
    add_store_layers(engine->store_stats(), lookups ? static_cast<double>(hits) / lookups : 0.0, r);
    finish_trace_overhead(r, traced_ms, untraced_ms);
  }

  // Pinned answer-check set, on its own engine.
  {
    StreamSource check(saturation, kCheckSeed);
    Engine fresh{EngineOptions{}};
    std::string text_all;
    const int n = saturation ? 50 : 40;
    long long failed = 0;
    for (int i = 0; i < n; ++i) {
      bool overloaded = false;
      std::string text = check.next(overloaded);
      const AnalysisReport report = fresh.run(analysis_request(io::parse_system(text)));
      if (!report.ok()) ++failed;
      text_all += canonical(report);
    }
    if (failed > 0) r.accounting.fail("check", "query errors in the check set", failed);
    check_digest(r, o.workload, text_all, n, expected_digest);
  }

  // Cross-check sampled timed ops against the free stage functions.
  {
    const std::int64_t t0 = now_ns();
    const double budget = std::clamp(o.seconds * 0.25, 1.0, 3.0);
    int overloaded_checked = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (elapsed_s(t0) > budget && i > 0) break;
      if (sample_overloaded[i] && overloaded_checked++ > 0) continue;
      const StageRecompute free = recompute_stages(io::parse_system(samples[i].first));
      if (free.canonical == samples[i].second) {
        r.accounting.ok("cross");
      } else {
        r.accounting.fail("cross", "engine answer differs from the free stage functions");
      }
    }
  }

  if (o.trace) {
    ReplayInput input;
    // A bounded system first (the session/search/net probes use
    // systems[0]), and one overloaded one so the K_b cap is observed.
    std::optional<System> overloaded_system;
    for (std::size_t i = 0; i < samples.size() && input.systems.size() < 48; ++i) {
      if (sample_overloaded[i]) {
        if (!overloaded_system) overloaded_system.emplace(io::parse_system(samples[i].first));
        continue;
      }
      input.systems.push_back(io::parse_system(samples[i].first));
      input.same_structure.push_back(false);
    }
    if (overloaded_system) {
      // Second, so every step's budget reaches it.
      const auto at = input.systems.empty() ? 0 : 1;
      input.systems.insert(input.systems.begin() + at, *overloaded_system);
      input.same_structure.insert(input.same_structure.begin() + at, false);
    }
    for (std::size_t i = 0; i < input.systems.size() && i < 16; ++i) {
      const System& s = input.systems[i];
      const std::string name = "s" + std::to_string(i);
      const long long id = static_cast<long long>(i) * 3;
      input.wire_lines.push_back(open_session_line(name, io::serialize_system(s), id));
      std::string query = ServeScript(s, 1).query_body();
      input.wire_lines.push_back("{\"id\":" + std::to_string(id + 1) +
                                 ",\"type\":\"query\",\"session\":" + quote(name) +
                                 (i % 4 == 3 ? ",\"stream\":true," : ",") + query + "}");
      input.wire_lines.push_back("{\"id\":" + std::to_string(id + 2) +
                                 ",\"type\":\"close\",\"session\":" + quote(name) + "}");
    }
    input.deltas = probe_deltas(input.systems.front(), mix(o.seed, 7), 64);
    decompose_layers(o, input, o.seconds * 0.4, tracer, r);
    // Op-loop layer times come from the traced op spans (not the replay).
    r.layers["io.parse_system_us"] = Metric{tracer.mean_us("io.parse_system"), "us"};
    r.layers["io.serialize_report_us"] = Metric{tracer.mean_us("io.serialize_report"), "us"};
    if (!o.trace_out.empty()) tracer.write(o.trace_out);
  }
  return r;
}

// ---------------------------------------------------------------------
// search_hill: hill climbing over a shared-store PipelineEvaluator
// ---------------------------------------------------------------------

/// Evaluator decorator timing every call (and, in the traced run,
/// recording a span per neighbourhood).
class TimingEvaluator final : public search::Evaluator {
 public:
  TimingEvaluator(search::Evaluator& inner, Tracer& tracer) : inner_(&inner), tracer_(tracer) {}

  /// Switches to the next search's evaluator.
  void use(search::Evaluator& inner) { inner_ = &inner; }

  const System& base() const override { return inner_->base(); }
  search::Objective evaluate(const std::vector<Priority>& priorities) override {
    const std::int64_t t0 = now_ns();
    search::Objective o;
    {
      Scoped span(tracer_, "search.evaluate");
      o = inner_->evaluate(priorities);
    }
    record(now_ns() - t0, 1);
    return o;
  }
  std::vector<search::Objective> evaluate_many(
      const std::vector<std::vector<Priority>>& candidates) override {
    const std::int64_t t0 = now_ns();
    std::vector<search::Objective> out;
    {
      Scoped span(tracer_, "search.neighborhood");
      out = inner_->evaluate_many(candidates);
    }
    const std::int64_t ns = now_ns() - t0;
    record(ns, candidates.size());
    if (kept_candidates.size() < 400) {
      kept_candidates.insert(kept_candidates.end(), candidates.begin(), candidates.end());
      kept_objectives.insert(kept_objectives.end(), out.begin(), out.end());
      kept_seconds += static_cast<double>(ns) / 1e9;
    }
    return out;
  }
  search::EvaluatorStats stats() const override { return inner_->stats(); }

  std::vector<double> per_candidate_ms;  ///< batch time / batch size, per candidate
  /// Per candidate: the time per candidate of the window of
  /// kLatencyWindow consecutive candidates it was scored in.
  std::vector<double> op_ms;
  long long candidates = 0;
  std::vector<std::vector<Priority>> kept_candidates;  ///< first neighbourhoods, for recompute
  std::vector<search::Objective> kept_objectives;
  double kept_seconds = 0;
  double rss = -1;  ///< VmHWM once kRssAfterCandidates were scored

 private:
  void record(std::int64_t ns, std::size_t n) {
    if (n == 0) return;
    const double ms = static_cast<double>(ns) / 1e6;
    per_candidate_ms.insert(per_candidate_ms.end(), n, ms / static_cast<double>(n));
    candidates += static_cast<long long>(n);
    if (rss < 0 && candidates >= kRssAfterCandidates) rss = peak_rss_mib();
    window_ms_ += ms;
    window_n_ += n;
    if (window_n_ >= kLatencyWindow) flush();
  }

 public:
  /// Closes the current latency window.
  void flush() {
    if (window_n_ == 0) return;
    op_ms.insert(op_ms.end(), window_n_, window_ms_ / static_cast<double>(window_n_));
    window_ms_ = 0;
    window_n_ = 0;
  }

 private:
  /// A candidate has no latency of its own (neighbourhoods are scored as
  /// parallel batches), so an op's latency is amortised over windows of
  /// this many candidates.  A single batch's time swings with the
  /// neighbours' load far more than a window mixing cold first steps and
  /// warm later ones does.
  static constexpr std::size_t kLatencyWindow = 1024;
  double window_ms_ = 0;
  std::size_t window_n_ = 0;

  search::Evaluator* inner_;
  Tracer& tracer_;
};

int search_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

search::SearchResult pinned_search(const System& base, int jobs) {
  ArtifactStore store;
  search::PipelineEvaluator evaluator(base, {}, {}, store, jobs);
  return search::hill_climb(evaluator, search::HillClimbOptions{1, 200, 1});
}

std::string search_canonical(const search::SearchResult& result) {
  std::string out = canonical(result.best_objective) + " prio";
  for (const Priority p : result.best_priorities) out += " " + std::to_string(p);
  return out;
}

}  // namespace

RunResult run_analyze_stream(const Options& o, const std::string& expected) {
  return run_stream(o, false, expected);
}

RunResult run_saturation(const Options& o, const std::string& expected) {
  return run_stream(o, true, expected);
}

RunResult run_search_hill(const Options& o, const std::string& expected) {
  RunResult r;
  Tracer tracer;
  tracer.enabled = o.trace;
  const std::string text = search_system(mix(o.seed, 3));
  const int jobs = search_jobs();

  std::unique_ptr<ArtifactStore> store;
  std::unique_ptr<search::PipelineEvaluator> evaluator;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    evaluator.reset();
    store = std::make_unique<ArtifactStore>();
    System base = io::parse_system(text);
    evaluator = std::make_unique<search::PipelineEvaluator>(std::move(base),
                                                            search::EvaluationSpec{}, TwcaOptions{},
                                                            *store, jobs);
    // The nominal assignment is scored before any search starts.
    (void)evaluator->evaluate(evaluator->base().flat_priorities());
    setup.push_back(elapsed_s(t0));
  }
  const System base = evaluator->base();

  // Each search is one hill climb on a fresh PipelineEvaluator (its own
  // slice memo) over the one shared store, as an Engine serves
  // successive priority-search queries.
  TimingEvaluator timing(*evaluator, tracer);
  std::size_t bw_hits = 0;
  std::size_t bw_lookups = 0;
  std::size_t hits = 0;
  std::size_t lookups = 0;
  std::size_t slice_hits = 0;
  std::size_t slice_lookups = 0;
  const auto tally = [&](const search::EvaluatorStats& stats) {
    const auto& bw = stats.stages[static_cast<std::size_t>(ArtifactStage::kBusyWindow)];
    bw_hits += bw.hits;
    bw_lookups += bw.lookups;
    hits += stats.hits();
    lookups += stats.lookups();
    slice_hits += stats.slices.hits;
    slice_lookups += stats.slices.hits + stats.slices.misses;
  };
  const double op_seconds = o.trace ? o.seconds * 0.6 : o.seconds;
  search::SearchResult best;
  bool have_best = false;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  long long restarts = 0;
  const std::int64_t start = now_ns();
  while (elapsed_s(start) < op_seconds || restarts == 0) {
    const bool traced = o.trace && restarts % 2 == 0;
    tracer.enabled = traced;
    const std::size_t before = timing.per_candidate_ms.size();
    if (restarts > 0) {
      tally(evaluator->stats());
      evaluator = std::make_unique<search::PipelineEvaluator>(base, search::EvaluationSpec{},
                                                              TwcaOptions{}, *store, jobs);
      timing.use(*evaluator);
    }
    try {
      Scoped root(tracer, "op", restarts);
      const search::SearchResult result = search::hill_climb(
          timing, search::HillClimbOptions{1, 200, mix(o.seed, 1000 + static_cast<std::uint64_t>(restarts))});
      if (!have_best || result.best_objective < best.best_objective) {
        best = result;
        have_best = true;
      }
      r.accounting.ok("timed", static_cast<long long>(timing.per_candidate_ms.size() - before));
    } catch (const std::exception& e) {
      r.accounting.fail("timed", e.what(),
                        std::max<long long>(1, static_cast<long long>(timing.per_candidate_ms.size() - before)));
    }
    auto& bucket = traced ? traced_ms : untraced_ms;
    bucket.insert(bucket.end(), timing.per_candidate_ms.begin() + static_cast<long>(before),
                  timing.per_candidate_ms.end());
    tracer.enabled = o.trace;
    ++restarts;
  }
  const double window_s = elapsed_s(start);
  const double rss = timing.rss >= 0 ? timing.rss : peak_rss_mib();
  tally(evaluator->stats());
  timing.flush();
  add_end_to_end(r, timing.op_ms, static_cast<double>(timing.candidates), window_s,
                 setup, rss);
  {
    Census census;
    census.add(base);
    census.write(r);
  }
  r.census["searches"] = std::to_string(restarts);
  r.census["candidates"] = std::to_string(timing.candidates);
  r.census["jobs"] = std::to_string(jobs);
  r.census["latency_basis"] =
      quote("per candidate: time per candidate of its window of 1024 consecutive candidates");

  const auto share = [](std::size_t part, std::size_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  if (o.trace) {
    put(r.layers, "search.busy_window_reuse", share(bw_hits, bw_lookups), "fraction");
    put(r.layers, "search.neighborhood_us", tracer.mean_us("search.neighborhood"), "us");
    put(r.layers, "engine.slice_reuse", share(slice_hits, slice_lookups), "fraction");
    add_store_layers(store->stats(), share(hits, lookups), r);
    finish_trace_overhead(r, traced_ms, untraced_ms);
  }

  // Cross-checks: the best assignment re-scored through the free stage
  // functions, and (traced run) the first neighbourhoods recomputed.
  if (have_best) {
    const search::Objective again = recompute_objective(base.with_priorities(best.best_priorities), 10);
    if (again == best.best_objective) {
      r.accounting.ok("cross");
    } else {
      r.accounting.fail("cross", "best objective " + canonical(best.best_objective) +
                                     " re-scores as " + canonical(again));
    }
  }
  if (o.trace) {
    const std::int64_t t0 = now_ns();
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < timing.kept_candidates.size(); ++i) {
      if (!(recompute_objective(base.with_priorities(timing.kept_candidates[i]), 10) ==
            timing.kept_objectives[i])) {
        ++mismatches;
      }
    }
    const double recompute_s = elapsed_s(t0);
    const double n = static_cast<double>(timing.kept_candidates.size());
    const double warm = timing.kept_seconds > 0 ? n / timing.kept_seconds : 0.0;
    const double cold = recompute_s > 0 ? n / recompute_s : 0.0;
    put(r.layers, "search.warm_cands_s", warm, "1/s");
    put(r.layers, "search.recompute_cands_s", cold, "1/s");
    put(r.layers, "search.warm_vs_recompute", cold > 0 ? warm / cold : 0.0, "ratio");
    if (mismatches == 0) {
      r.accounting.ok("cross", static_cast<long long>(n));
    } else {
      r.accounting.fail("cross", "warm objectives differ from recompute",
                        static_cast<long long>(mismatches));
    }
  }

  // Pinned answer check.
  {
    const search::SearchResult pinned =
        pinned_search(io::parse_system(search_system(kCheckSeed)), jobs);
    check_digest(r, o.workload, search_canonical(pinned), pinned.evaluations, expected);
  }

  if (o.trace) {
    ReplayInput input;
    input.systems.push_back(base);
    input.same_structure.push_back(false);
    for (std::size_t i = 0; i < timing.kept_candidates.size() && input.systems.size() < 48; ++i) {
      input.systems.push_back(base.with_priorities(timing.kept_candidates[i]));
      input.same_structure.push_back(true);
    }
    input.wire_lines.push_back(open_session_line("s", text, 0));
    ServeScript script(base, mix(o.seed, 11));
    for (long long round = 0; round < 24; ++round) {
      const ServeScript::Round next = script.next(1 + 2 * round);
      input.wire_lines.push_back(next.delta_line);
      input.wire_lines.push_back(next.query_line);
    }
    input.deltas = probe_deltas(base, mix(o.seed, 7), 64);
    decompose_layers(o, input, o.seconds * 0.4, tracer, r);
    if (!o.trace_out.empty()) tracer.write(o.trace_out);
  }
  return r;
}

// ---------------------------------------------------------------------
// serve_sessions: the real server, four closed-loop TCP clients
// ---------------------------------------------------------------------

namespace {

/// The top-level "status" of a response line.
std::string status_of(const std::string& line) {
  const std::string key = "\"status\":\"";
  const auto at = line.find(key);
  if (at == std::string::npos) return "missing";
  const auto end = line.find('"', at + key.size());
  return line.substr(at + key.size(), end - at - key.size());
}

struct RecordedRound {
  std::vector<std::string> before;  ///< session switch (close, open_session) ahead of the round
  std::string delta_line;
  std::string query_line;
  std::string answers;  ///< concatenated answers_of() of the query response lines
};

struct ClientLog {
  std::vector<double> latency_ms;  ///< per op, i.e. per cycle of rounds
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> request_ms;  ///< per request (traced rounds only)
  std::vector<double> stream_ms;   ///< per round whose query streamed
  std::vector<double> plain_ms;    ///< per round whose query did not
  std::vector<RecordedRound> rounds;
  long long response_bytes = 0;
  long long responses = 0;
  long long ok = 0;
  long long failed = 0;
  long long structural = 0;
  std::string error;
  std::string diagnostics;
  Tracer tracer;  ///< this client's spans (traced rounds)
};

/// A no-guarantee answer is a successful op: the analysis answered.
bool succeeded(const std::string& line) {
  const std::string status = status_of(line);
  return status == "ok" || status == "no-guarantee";
}

/// Sends a query line and collects its response lines (one, or the
/// stream's frames through the summary).
std::vector<std::string> query_round(Client& client, const std::string& line, bool stream) {
  client.send(line);
  std::vector<std::string> out;
  while (true) {
    out.push_back(client.recv());
    if (!stream || !succeeded(out.back()) ||
        out.back().find("\"frame\":\"summary\"") != std::string::npos) {
      return out;
    }
  }
}

constexpr std::size_t kRecordedRounds = 200;

/// Every client moves to a fresh base system after this many rounds, so
/// one run averages over many systems instead of one pair.
constexpr long long kRoundsPerSystem = 32;

/// One serve_sessions op is a client's cycle of this many delta+query
/// rounds, the last of which streams its query.  A single round's
/// latency is mostly cross-thread wake-up time, which on a shared host
/// swings with the neighbours' load; the cycle's latency is set by the
/// whole exchange and repeats within a few percent.  Per-round medians
/// stay in the census.
constexpr long long kRoundsPerCycle = 4;

}  // namespace

RunResult run_serve_sessions(const Options& o, const std::string& expected) {
  RunResult r;
  require(!o.wharf_binary.empty(), "serve_sessions needs --wharf <binary>");
  // Base system `epoch` of pair p (clients p and p+2).
  const auto pair_text = [&](int p, long long epoch) {
    return serve_system(mix(mix(o.seed, 21 + static_cast<std::uint64_t>(p)),
                            static_cast<std::uint64_t>(epoch)),
                        p == 0 ? "A" : "B");
  };
  const auto script_seed = [&](int client, long long epoch) {
    return mix(mix(o.seed, 30 + static_cast<std::uint64_t>(client)),
               static_cast<std::uint64_t>(epoch));
  };
  const std::string texts[2] = {pair_text(0, 0), pair_text(1, 0)};
  constexpr int kClients = 4;

  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clients.clear();
    if (server) server->shutdown();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(o.wharf_binary, kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(server->port()));
      clients.back()->send(open_session_line("s", texts[c % 2], 0));
      const std::string response = clients.back()->recv();
      require(succeeded(response), "open_session failed: " + response);
    }
    setup.push_back(elapsed_s(t0));
  }

  const double op_seconds = o.trace ? o.seconds * 0.6 : o.seconds;
  std::vector<ClientLog> logs(kClients);
  const System bases[2] = {io::parse_system(texts[0]), io::parse_system(texts[1])};
  std::atomic<bool> stop{false};
  double server_rss = -1;  // written by client 0 only, read after join
  const std::int64_t start = now_ns();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      Client& client = *clients[static_cast<std::size_t>(c)];
      // Clients c and c+2 share each base system (each with its own
      // deltas), so their sessions meet in the shared store.
      const int pair = c % 2;
      std::optional<ServeScript> script;
      script.emplace(bases[pair], script_seed(c, 0));
      long long id = 1;
      double cycle_ms = 0;
      bool cycle_ok = true;
      try {
        for (long long round = 0;; ++round) {
          std::vector<std::string> before;
          if (round > 0 && round % kRoundsPerSystem == 0) {
            const long long epoch = round / kRoundsPerSystem;
            const std::string text = pair_text(pair, epoch);
            before = {"{\"type\":\"close\",\"session\":\"s\"}", open_session_line("s", text, 0)};
            for (const std::string& line : before) {
              client.send(line);
              const std::string response = client.recv();
              require(succeeded(response), "session switch failed: " + response);
            }
            script.emplace(io::parse_system(text), script_seed(c, epoch));
          }
          const ServeScript::Round next = script->next(id);
          id += 2;
          const long long cycle = round / kRoundsPerCycle;
          const bool traced = o.trace && cycle % 2 == 0;
          log.tracer.enabled = traced;
          const int root = traced ? log.tracer.begin("round", c * 10'000'000LL + cycle) : -1;
          const std::int64_t t0 = now_ns();
          client.send(next.delta_line);
          const std::string applied = client.recv();
          const std::int64_t t1 = now_ns();
          const std::vector<std::string> answer = query_round(client, next.query_line, next.stream);
          const std::int64_t t2 = now_ns();
          const double ms = static_cast<double>(t2 - t0) / 1e6;
          cycle_ms += ms;
          (next.stream ? log.stream_ms : log.plain_ms).push_back(ms);
          if (traced) {
            log.tracer.add("net.apply_delta", t0, t1);
            log.tracer.add("net.query", t1, t2);
            log.tracer.end(root);
            log.request_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
            log.request_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
          }
          log.structural += next.structural ? 1 : 0;
          bool ok = succeeded(applied);
          std::string answers;
          for (const std::string& line : answer) {
            ok = ok && succeeded(line);
            log.response_bytes += static_cast<long long>(line.size());
            answers += answers_of(line);
          }
          log.response_bytes += static_cast<long long>(applied.size());
          log.responses += 2;
          if (!ok) {
            cycle_ok = false;
            if (log.error.empty()) log.error = applied + " / " + answer.back();
          }
          if (log.rounds.size() < kRecordedRounds) {
            log.rounds.push_back(
                {std::move(before), next.delta_line, next.query_line, std::move(answers)});
          }
          if (c == 0 && round + 1 == kRssAfterRounds) {
            server_rss = peak_rss_mib(std::to_string(server->pid()));
          }
          if (round % kRoundsPerCycle == kRoundsPerCycle - 1) {
            log.latency_ms.push_back(cycle_ms);
            (traced ? log.traced_ms : log.untraced_ms).push_back(cycle_ms);
            ++(cycle_ok ? log.ok : log.failed);
            cycle_ms = 0;
            cycle_ok = true;
            if (c == 0 && elapsed_s(start) >= op_seconds) stop.store(true);
            if (stop.load(std::memory_order_relaxed)) break;
          }
        }
        client.send("{\"type\":\"diagnostics\",\"session\":\"s\"}");
        log.diagnostics = client.recv();
      } catch (const std::exception& e) {
        ++log.failed;
        log.error = e.what();
        stop.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double window_s = elapsed_s(start);
  const double rss = server_rss >= 0 ? server_rss : peak_rss_mib(std::to_string(server->pid()));

  // Pinned answer check: one more connection, a fixed conversation.
  {
    Client client(server->port());
    const std::string check_text = serve_system(kCheckSeed, "check");
    client.send(open_session_line("s", check_text, 0));
    std::string text_all = canonical_wire_results(client.recv());
    ServeScript script(io::parse_system(check_text), kCheckSeed);
    const int rounds = 24;
    long long failed = 0;
    for (int round = 0; round < rounds; ++round) {
      const ServeScript::Round next = script.next(1 + 2 * round);
      client.send(next.delta_line);
      if (!succeeded(client.recv())) ++failed;
      for (const std::string& line : query_round(client, next.query_line, next.stream)) {
        if (!succeeded(line)) ++failed;
        text_all += canonical_wire_results(line);
      }
    }
    if (failed > 0) r.accounting.fail("check", "error envelopes in the check conversation", failed);
    check_digest(r, o.workload, text_all, rounds, expected);
  }

  clients.clear();
  const int exit_code = server->shutdown();
  if (exit_code != 0) r.accounting.fail("timed", "server exited with " + std::to_string(exit_code));

  std::vector<double> latencies;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> request_ms;
  std::vector<double> stream_ms;
  std::vector<double> plain_ms;
  long long structural = 0;
  long long response_bytes = 0;
  long long responses = 0;
  double hits = 0;
  double lookups = 0;
  for (const ClientLog& log : logs) {
    latencies.insert(latencies.end(), log.latency_ms.begin(), log.latency_ms.end());
    traced_ms.insert(traced_ms.end(), log.traced_ms.begin(), log.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), log.untraced_ms.begin(), log.untraced_ms.end());
    request_ms.insert(request_ms.end(), log.request_ms.begin(), log.request_ms.end());
    stream_ms.insert(stream_ms.end(), log.stream_ms.begin(), log.stream_ms.end());
    plain_ms.insert(plain_ms.end(), log.plain_ms.begin(), log.plain_ms.end());
    structural += log.structural;
    response_bytes += log.response_bytes;
    responses += log.responses;
    r.accounting.ok("timed", log.ok);
    if (log.failed > 0) r.accounting.fail("timed", log.error, log.failed);
    if (!log.diagnostics.empty()) {
      const io::JsonValue d = io::parse_json(log.diagnostics);
      const io::JsonValue& store = d.at("store");
      const double h = static_cast<double>(store.at("hits").as_int());
      hits += h;
      lookups += h + static_cast<double>(store.at("misses").as_int() + store.at("shared").as_int());
    }
  }
  const double ops = static_cast<double>(latencies.size());
  add_end_to_end(r, latencies, ops, window_s, setup, rss);
  {
    std::size_t most_rounds = 0;
    for (const ClientLog& log : logs) {
      most_rounds = std::max(most_rounds, log.stream_ms.size() + log.plain_ms.size());
    }
    const long long epochs = static_cast<long long>(most_rounds) / kRoundsPerSystem + 1;
    Census census;
    for (long long e = 0; e < std::min<long long>(epochs, 64); ++e) {
      for (int p = 0; p < 2; ++p) census.add(io::parse_system(pair_text(p, e)));
    }
    census.write(r);
    r.census["base_systems"] = std::to_string(2 * epochs);
  }
  const double rounds = static_cast<double>(stream_ms.size() + plain_ms.size());
  r.census["rounds"] = number(rounds);
  r.census["latency_basis"] =
      quote("per op: one client's cycle of 4 delta+query rounds, the 4th query streamed");
  r.census["structural_delta_share"] =
      number(rounds > 0 ? static_cast<double>(structural) / rounds : 0);
  r.census["cross_connection_session_share"] = number(1.0);
  r.census["stream_query_share"] = number(0.25);
  r.census["stream_round_p50_ms"] = number(median(stream_ms));
  r.census["plain_round_p50_ms"] = number(median(plain_ms));

  // Cross-check: every client's recorded rounds replayed in-process give
  // the same results (diagnostics stripped).  The replay also times the
  // service layer per request.
  std::vector<double> service_us;
  std::vector<double> parse_us;
  for (int c = 0; c < kClients; ++c) {
    const ClientLog& log = logs[static_cast<std::size_t>(c)];
    Engine engine{EngineOptions{}};
    net::ServeTelemetry telemetry;
    net::Conversation conversation{&engine, &telemetry, {}};
    bool shutdown = false;
    const auto serve_line = [&](const std::string& line) {
      const std::int64_t t0 = now_ns();
      Expected<io::WireRequest> request = io::parse_request(line);
      const std::int64_t t1 = now_ns();
      std::string answers;
      if (!request.has_value()) return std::string("parse error");
      if (request.value().stream) {
        net::StreamProgress progress;
        (void)net::run_query_stream(
            conversation, request.value(), progress,
            [&](const std::string& frame) {
              answers += answers_of(frame);
              return true;
            },
            [] { return false; });
      } else {
        answers = answers_of(net::handle_request(conversation, request.value(), shutdown));
      }
      const std::int64_t t2 = now_ns();
      parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      service_us.push_back(static_cast<double>(t2 - t0) / 1e3);
      return answers;
    };
    serve_line(open_session_line("s", texts[c % 2], 0));
    for (const RecordedRound& round : log.rounds) {
      for (const std::string& line : round.before) serve_line(line);
      serve_line(round.delta_line);
      if (serve_line(round.query_line) == round.answers) {
        r.accounting.ok("cross");
      } else {
        r.accounting.fail("cross", "wire results differ from the in-process replay");
      }
    }
  }

  if (o.trace) {
    finish_trace_overhead(r, traced_ms, untraced_ms);
    put(r.layers, "net.service_us", mean(service_us), "us");
    put(r.layers, "io.parse_request_us", mean(parse_us), "us");
    put(r.layers, "net.transport_us", mean(request_ms) * 1e3 - mean(service_us), "us");
    put(r.layers, "io.response_bytes",
        responses ? static_cast<double>(response_bytes) / static_cast<double>(responses) : 0.0,
        "bytes");
    put(r.layers, "engine.store_hit_rate", lookups > 0 ? hits / lookups : 0.0, "fraction");
    const io::JsonValue d = io::parse_json(logs[0].diagnostics);
    const io::JsonValue& engine_store = d.at("engine_store");
    const io::JsonValue& server_stats = d.at("server");
    put(r.layers, "engine.shared_flights",
        static_cast<double>(engine_store.at("shared_flights").as_int()), "count");
    put(r.layers, "engine.resident_bytes",
        static_cast<double>(engine_store.at("resident_bytes").as_int()), "bytes");
    put(r.layers, "engine.evictions", static_cast<double>(engine_store.at("evictions").as_int()),
        "count");
    put(r.layers, "net.stream_frames", static_cast<double>(server_stats.at("stream_frames").as_int()),
        "count");
    put(r.layers, "net.backpressure_stalls",
        static_cast<double>(server_stats.at("backpressure_stalls").as_int()), "count");

    // Replay input: the session's model at each recorded revision.
    ReplayInput input;
    Engine engine{EngineOptions{}};
    Session session = engine.open_session(bases[0]);
    input.systems.push_back(session.system());
    input.same_structure.push_back(false);
    for (const RecordedRound& round : logs[0].rounds) {
      if (input.systems.size() >= 48 || !round.before.empty()) break;
      const Expected<io::WireRequest> request = io::parse_request(round.delta_line);
      if (!request.has_value()) continue;
      bool structural = false;
      for (const Delta& delta : request.value().deltas) structural = structural || is_structural(delta);
      if (!session.apply(request.value().deltas).is_ok()) continue;
      input.systems.push_back(session.system());
      input.same_structure.push_back(!structural);
      input.deltas.push_back(request.value().deltas);
    }
    Tracer tracer;
    tracer.enabled = true;
    decompose_layers(o, input, o.seconds * 0.4, tracer, r);
    if (!o.trace_out.empty()) {
      tracer.write(o.trace_out);
      for (const ClientLog& log : logs) log.tracer.write(o.trace_out, true);
    }
  }
  return r;
}

}  // namespace wharfbench
