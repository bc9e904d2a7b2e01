// Shared plumbing of the wharf benchmark harness: run options, the span
// recorder of the traced run, op accounting, metric output, and the
// helpers every workload uses.  See ../README.md for what is measured.

#ifndef WHARFBENCH_BENCH_HPP
#define WHARFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/twca.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "search/priority_search.hpp"

namespace wharfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary process-wide origin.
std::int64_t now_ns();

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string wharf_binary;  ///< the `wharf` CLI that serve_sessions spawns
  std::string trace_out;     ///< where the traced run writes its spans ("" = nowhere)
};

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends
// ---------------------------------------------------------------------

/// One timed call into a layer, made from the benchmark's own code.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  long long op = -1;      ///< op id of the workload op it belongs to (-1 = replay)
};

/// Single-threaded span recorder.  begin()/end() nest; a disabled
/// recorder costs one branch per call.
class Tracer {
 public:
  bool enabled = false;

  int begin(const std::string& name, long long op = -1);
  void end(int handle);
  /// Records an already-timed span under the current parent.
  void add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
           long long op = -1);

  /// Per-name totals: count, summed duration and summed self time (span
  /// time minus the time its child spans cover).
  struct Total {
    long long count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  [[nodiscard]] std::map<std::string, Total> totals() const;
  [[nodiscard]] double mean_us(const std::string& name) const;

  /// Writes every span as JSON lines to `path` (appending when asked).
  void write(const std::string& path, bool append = false) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on a tracer.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name, long long op = -1)
      : tracer_(tracer), handle_(tracer.enabled ? tracer.begin(name, op) : -1) {}
  ~Scoped() {
    if (handle_ >= 0) tracer_.end(handle_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int handle_;
};

// ---------------------------------------------------------------------
// Accounting and output
// ---------------------------------------------------------------------

/// Attempted/failed op counts per phase ("check", "timed", "cross").
struct Accounting {
  struct Phase {
    long long attempted = 0;
    long long failed = 0;
  };
  std::map<std::string, Phase> phases;
  std::vector<std::string> problems;  ///< first few failure descriptions

  void ok(const std::string& phase, long long n = 1) { phases[phase].attempted += n; }
  void fail(const std::string& phase, const std::string& why, long long n = 1);
  [[nodiscard]] long long attempted() const;
  [[nodiscard]] long long failed() const;
};

/// One named metric with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Everything a workload run hands back to main().
struct RunResult {
  Metrics end_to_end;
  Metrics layers;
  std::map<std::string, std::string> census;  ///< name -> JSON value text
  bool correct = true;
  Accounting accounting;
};

/// Percentile (linear interpolation) of a sample; 0 for an empty one.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// VmHWM of a process in MiB ("self" or a pid), from /proc.
double peak_rss_mib(const std::string& pid = "self");

/// Throws std::runtime_error with the message when `condition` fails.
void require(bool condition, const std::string& message);

/// A JSON string literal (quotes included).
std::string quote(const std::string& text);
/// A JSON number with all its digits.
std::string number(double value);

// ---------------------------------------------------------------------
// Answers: the analytic fields the digest and the cross-checks compare
// ---------------------------------------------------------------------

/// FNV-1a 64 over `text`.
std::uint64_t fnv1a(const std::string& text, std::uint64_t seed = 1469598103934665603ull);
std::string hex64(std::uint64_t value);

/// Canonical analytic fields of engine answers (no reasons, no busy
/// times, no diagnostics): one line per result.
std::string canonical(const wharf::QueryResult& result);
std::string canonical(const wharf::AnalysisReport& report);
/// The same canonical text read back from a wire "results" array.
std::string canonical_wire_results(const std::string& response_line);
/// Answers-only part of a response line: a report's "results" array
/// (diagnostics stripped) or a whole result frame; "" for anything else.
std::string answers_of(const std::string& line);
std::string canonical(const wharf::search::Objective& objective);

/// The queries every analysis op asks: AnalysisRequest::standard over
/// k = {10, 100} plus one (1,10) weakly-hard check per deadline chain.
wharf::AnalysisRequest analysis_request(wharf::System system);

/// Answers the analysis_request() queries straight through the free
/// stage functions (make_interference_context -> latency_analysis ->
/// build_target_artifacts -> dmm_from_artifacts), in canonical form —
/// the cross-check of every Engine answer, independent of every cache.
/// `tracer` (optional) records one span per stage call.
struct StageRecompute {
  std::string canonical;
  std::vector<wharf::LatencyResult> latencies;  ///< full-interference results
  std::vector<wharf::DmmResult> dmms;
};
StageRecompute recompute_stages(const wharf::System& system, Tracer* tracer = nullptr);

/// The search objective of `system` at horizon k, recomputed through the
/// free stage functions (same definition as search::PipelineEvaluator).
wharf::search::Objective recompute_objective(const wharf::System& system, wharf::Count k);

// ---------------------------------------------------------------------
// Inputs (generated from the seed; the library only ever sees text)
// ---------------------------------------------------------------------

/// Text of the next analyze_stream system.
std::string analyze_stream_system(std::mt19937_64& rng, long long index);
/// Text of the next saturation variant; `overloaded` asks for a
/// long-run load (overload chain included) strictly above 1.
std::string saturation_system(std::mt19937_64& rng, long long index, bool overloaded);
/// The 12-chain search_hill system.
std::string search_system(std::uint64_t seed);
/// An 8-chain serve_sessions base system.
std::string serve_system(std::uint64_t seed, const std::string& name);

/// One serve_sessions client conversation generator: yields the wire
/// lines of round r (apply_delta, then query).
class ServeScript {
 public:
  ServeScript(const wharf::System& base, std::uint64_t seed);
  struct Round {
    std::string delta_line;
    std::string query_line;
    bool structural = false;
    bool stream = false;
  };
  Round next(long long id);
  /// The query line every round asks (stream flag aside).
  std::string query_body() const;

 private:
  wharf::System base_;
  std::mt19937_64 rng_;
  std::vector<std::string> task_names_;
  std::vector<wharf::Priority> priorities_;
  std::vector<wharf::Time> base_wcets_;
  std::vector<bool> wcet_changed_;
  long long round_ = 0;
};

std::string open_session_line(const std::string& session, const std::string& system_text,
                              long long id);

// ---------------------------------------------------------------------
// A spawned `wharf serve --listen 0` and blocking NDJSON clients
// ---------------------------------------------------------------------

class ServerProcess {
 public:
  /// Spawns the server and waits until it announces its port.
  ServerProcess(const std::string& binary, int max_connections);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] int pid() const { return pid_; }
  /// Sends a shutdown request and waits for the process; returns its exit status.
  int shutdown();

 private:
  int pid_ = -1;
  int port_ = 0;
  int stderr_fd_ = -1;
};

class Client {
 public:
  explicit Client(int port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  void send(const std::string& line);
  /// One response line; throws on timeout or a closed connection.
  std::string recv(int timeout_ms = 60000);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ---------------------------------------------------------------------
// Workloads and the traced decomposition
// ---------------------------------------------------------------------

/// Each runs one workload; `expected_digest` is the pinned answer digest
/// of its check set ("" = report the digest without comparing).
RunResult run_analyze_stream(const Options& options, const std::string& expected_digest);
RunResult run_saturation(const Options& options, const std::string& expected_digest);
RunResult run_search_hill(const Options& options, const std::string& expected_digest);
RunResult run_serve_sessions(const Options& options, const std::string& expected_digest);

/// What the decomposition replay works on: systems the workload
/// analysed (in order, flagged when structurally equal to the previous
/// one), and one wire conversation over them.
struct ReplayInput {
  std::vector<wharf::System> systems;
  std::vector<bool> same_structure;  ///< aligned with systems
  std::vector<std::string> wire_lines;
  /// Delta batches to time on a session over systems[0].
  std::vector<std::vector<wharf::Delta>> deltas;
};

/// Per-layer replay (traced run only): free stages, key builders,
/// pipeline stage accessors, session deltas, a search neighbourhood, and
/// the wire conversation both in-process and over a spawned server.
/// Adds every layer metric it measures to `layers` (never overwriting
/// one already there) and accounts its cross-checks under "cross".
void decompose_layers(const Options& options, const ReplayInput& input, double budget_s,
                      Tracer& tracer, RunResult& result);

/// Adds the per-layer metrics of the store and reports (hit rate,
/// residency, evictions) of an engine that served the op loop.
void add_store_layers(const wharf::ArtifactStore::Stats& stats, double hit_rate,
                      RunResult& result);

/// Records `name` unless already present.
void put(Metrics& metrics, const std::string& name, double value, const std::string& unit);

/// The delta batches of a session probe on `system`: priority swaps
/// with a +10% WCET toggle every 8th batch.
std::vector<std::vector<wharf::Delta>> probe_deltas(const wharf::System& system,
                                                    std::uint64_t seed, int count);

/// End-to-end metrics from per-op latencies, the measured time window
/// and the setup repetitions.
void add_end_to_end(RunResult& result, const std::vector<double>& latencies_ms,
                    double ops, double window_s, const std::vector<double>& setup_s,
                    double peak_rss);

}  // namespace wharfbench

#endif  // WHARFBENCH_BENCH_HPP
