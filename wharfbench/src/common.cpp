// Span recorder, accounting, statistics, /proc readers and the answer
// canonicalisation shared by every workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/busy_window.hpp"
#include "core/interference.hpp"
#include "io/wire.hpp"
#include "util/types.hpp"

namespace wharfbench {

using namespace wharf;

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

int Tracer::begin(const std::string& name, long long op) {
  Span span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), op};
  if (span.op < 0 && span.parent >= 0) span.op = spans_[static_cast<std::size_t>(span.parent)].op;
  spans_.push_back(std::move(span));
  const int handle = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(handle);
  return handle;
}

void Tracer::end(int handle) {
  spans_[static_cast<std::size_t>(handle)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == handle) stack_.pop_back();
}

void Tracer::add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
                 long long op) {
  if (!enabled) return;
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (op < 0 && parent >= 0) op = spans_[static_cast<std::size_t>(parent)].op;
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
}

std::map<std::string, Tracer::Total> Tracer::totals() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    }
  }
  std::map<std::string, Total> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double us = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
    Total& total = out[spans_[i].name];
    ++total.count;
    total.total_us += us;
    total.self_us += us - child_us[i];
  }
  return out;
}

double Tracer::mean_us(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() || it->second.count == 0 ? 0.0 : it->second.total_us / it->second.count;
}

void Tracer::write(const std::string& path, bool append) const {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  for (const Span& span : spans_) {
    out << "{\"name\":" << quote(span.name) << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << "}\n";
  }
}

// ---------------------------------------------------------------------
// Accounting, statistics, output
// ---------------------------------------------------------------------

void Accounting::fail(const std::string& phase, const std::string& why, long long n) {
  phases[phase].attempted += n;
  phases[phase].failed += n;
  if (problems.size() < 8) problems.push_back(phase + ": " + why);
}

long long Accounting::attempted() const {
  long long n = 0;
  for (const auto& [name, phase] : phases) n += phase.attempted;
  return n;
}

long long Accounting::failed() const {
  long long n = 0;
  for (const auto& [name, phase] : phases) n += phase.failed;
  return n;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM for process " + pid);
}

void require(bool condition, const std::string& message) {
  if (!condition) throw std::runtime_error(message);
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void put(Metrics& metrics, const std::string& name, double value, const std::string& unit) {
  metrics.emplace(name, Metric{value, unit});
}

void add_end_to_end(RunResult& result, const std::vector<double>& latencies_ms, double ops,
                    double window_s, const std::vector<double>& setup_s, double peak_rss) {
  put(result.end_to_end, "throughput_ops_s", ops / window_s, "ops/s");
  put(result.end_to_end, "latency_p50_ms", percentile(latencies_ms, 0.50), "ms");
  put(result.end_to_end, "latency_p99_ms", percentile(latencies_ms, 0.99), "ms");
  put(result.end_to_end, "setup_s", median(setup_s), "s");
  put(result.end_to_end, "peak_rss_mb", peak_rss, "MiB");
}

void add_store_layers(const ArtifactStore::Stats& stats, double hit_rate, RunResult& result) {
  put(result.layers, "engine.store_hit_rate", hit_rate, "fraction");
  put(result.layers, "engine.resident_bytes", static_cast<double>(stats.resident_bytes), "bytes");
  put(result.layers, "engine.evictions", static_cast<double>(stats.evictions), "count");
}

// ---------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& text, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

namespace {

std::string latency_fields(bool bounded, long long K, long long wcl, const std::string& n_b) {
  std::ostringstream os;
  os << "b=" << bounded;
  if (bounded) os << " K=" << K << " wcl=" << wcl << " nb=" << n_b;
  return os.str();
}

std::string dmm_fields(long long k, long long dmm, const std::string& status, long long wcl,
                       long long K, long long n_b) {
  std::ostringstream os;
  os << "k=" << k << " dmm=" << dmm << " st=" << status;
  if (status != "no-guarantee") os << " wcl=" << wcl << " K=" << K << " nb=" << n_b;
  return os.str();
}

std::string canonical(const LatencyResult& r) {
  return latency_fields(r.bounded, r.K, r.wcl,
                        r.misses_per_window ? std::to_string(*r.misses_per_window) : "-");
}

std::string canonical(const DmmResult& r) {
  return dmm_fields(r.k, r.dmm, to_string(r.status), r.wcl, r.K, r.n_b);
}

}  // namespace

std::string canonical(const QueryResult& result) {
  if (!result.ok()) return "E " + to_string(result.status.code()) + "\n";
  std::ostringstream os;
  if (const auto* a = std::get_if<LatencyAnswer>(&result.answer)) {
    os << "L " << a->chain << " wo=" << a->without_overload << " " << canonical(a->result);
  } else if (const auto* a = std::get_if<DmmAnswer>(&result.answer)) {
    os << "D " << a->chain;
    for (const DmmResult& r : a->curve) os << " [" << canonical(r) << "]";
  } else if (const auto* a = std::get_if<WeaklyHardAnswer>(&result.answer)) {
    os << "W " << a->chain << " m=" << a->m << " k=" << a->k << " dmm=" << a->dmm
       << " st=" << to_string(a->dmm_status) << " sat=" << a->satisfied;
  } else {
    os << "?";
  }
  return os.str() + "\n";
}

std::string canonical(const AnalysisReport& report) {
  std::string out;
  for (const QueryResult& r : report.results) out += canonical(r);
  return out;
}

std::string canonical(const search::Objective& o) {
  std::ostringstream os;
  os << "obj " << o.chains_missing << " " << o.total_dmm << " " << o.total_wcl;
  return os.str();
}

std::string canonical_wire_results(const std::string& response_line) {
  const io::JsonValue doc = io::parse_json(response_line);
  std::vector<const io::JsonValue*> results;
  if (const io::JsonValue* report = doc.find("report")) {
    for (const io::JsonValue& r : report->at("results").items()) results.push_back(&r);
  } else if (const io::JsonValue* one = doc.find("result")) {
    results.push_back(one);
  }
  std::string out;
  for (const io::JsonValue* r : results) {
    const std::string status = r->at("status").as_string();
    if (status != "ok") {
      out += "E " + status + "\n";
      continue;
    }
    const std::string kind = r->at("query").as_string();
    const std::string chain = r->at("chain").as_string();
    std::ostringstream os;
    if (kind == "latency") {
      const io::JsonValue& l = r->at("latency");
      const bool bounded = l.at("bounded").as_bool();
      const io::JsonValue* nb = l.find("misses_per_window");
      os << "L " << chain << " wo=" << r->at("without_overload").as_bool() << " "
         << latency_fields(bounded, bounded ? l.at("K").as_int() : 0,
                           bounded ? l.at("wcl").as_int() : 0,
                           nb ? std::to_string(nb->as_int()) : "-");
    } else if (kind == "dmm") {
      os << "D " << chain;
      for (const io::JsonValue& d : r->at("dmm").items()) {
        os << " ["
           << dmm_fields(d.at("k").as_int(), d.at("dmm").as_int(), d.at("status").as_string(),
                         d.at("wcl").as_int(), d.at("K").as_int(), d.at("n_b").as_int())
           << "]";
      }
    } else if (kind == "weakly_hard") {
      os << "W " << chain << " m=" << r->at("m").as_int() << " k=" << r->at("k").as_int()
         << " dmm=" << r->at("dmm").as_int() << " st=" << r->at("dmm_status").as_string()
         << " sat=" << r->at("satisfied").as_bool();
    } else {
      os << "?";
    }
    out += os.str() + "\n";
  }
  return out;
}

std::string answers_of(const std::string& line) {
  if (line.find("\"frame\":\"result\"") != std::string::npos) return line;
  const auto begin = line.find("\"results\":");
  const auto end = line.find(",\"diagnostics\"");
  if (begin == std::string::npos || end == std::string::npos) return "";
  return line.substr(begin, end - begin);
}

AnalysisRequest analysis_request(System system) {
  AnalysisRequest request = AnalysisRequest::standard(std::move(system), {10, 100});
  for (const int c : request.system.regular_indices()) {
    if (request.system.chain(c).deadline().has_value()) {
      request.queries.push_back(WeaklyHardQuery{request.system.chain(c).name(), 1, 10});
    }
  }
  return request;
}

StageRecompute recompute_stages(const System& system, Tracer* tracer) {
  Tracer off;
  Tracer& t = tracer ? *tracer : off;
  const TwcaOptions options{};
  StageRecompute out;
  // Answers in the order analysis_request() asks them, formatted by the
  // same canonical(QueryResult) as the Engine's.
  const auto answer = [](auto value) {
    QueryResult q;
    q.answer = std::move(value);
    return canonical(q);
  };
  std::string weakly_hard;
  for (const int c : system.regular_indices()) {
    const std::string& name = system.chain(c).name();
    InterferenceContext ctx;
    {
      Scoped span(t, "core.interference");
      ctx = make_interference_context(system, c);
    }
    LatencyResult full;
    LatencyResult without;
    {
      Scoped span(t, "core.busy_window");
      full = latency_analysis(system, ctx, options.analysis);
    }
    {
      Scoped span(t, "core.busy_window");
      without = latency_analysis(system, ctx, options.analysis, system.overload_indices());
    }
    out.canonical += answer(LatencyAnswer{name, false, full});
    out.canonical += answer(LatencyAnswer{name, true, without});
    if (system.chain(c).deadline().has_value()) {
      TargetArtifacts artifacts;
      {
        Scoped span(t, "core.overload");
        artifacts = build_target_artifacts(system, c, ctx, full, options);
      }
      DmmAnswer curve{name, {}};
      for (const Count k : {Count{10}, Count{100}}) {
        DmmResult r;
        {
          Scoped span(t, "ilp.dmm");
          r = dmm_from_artifacts(system, c, full, artifacts, k, options);
        }
        if (k == 10) {
          weakly_hard += answer(WeaklyHardAnswer{name, 1, 10, r.dmm, r.status, r.dmm <= 1});
        }
        curve.curve.push_back(r);
        out.dmms.push_back(std::move(r));
      }
      out.canonical += answer(std::move(curve));
    }
    out.latencies.push_back(std::move(full));
    out.latencies.push_back(std::move(without));
  }
  out.canonical += weakly_hard;
  return out;
}

search::Objective recompute_objective(const System& system, Count k) {
  const TwcaOptions options{};
  search::Objective obj;
  for (const int c : system.regular_indices()) {
    if (!system.chain(c).deadline().has_value()) continue;
    const InterferenceContext ctx = make_interference_context(system, c);
    const LatencyResult lat = latency_analysis(system, ctx, options.analysis);
    const TargetArtifacts artifacts = build_target_artifacts(system, c, ctx, lat, options);
    const DmmResult r = dmm_from_artifacts(system, c, lat, artifacts, k, options);
    if (r.dmm > 0) ++obj.chains_missing;
    obj.total_dmm += r.dmm;
    obj.total_wcl = sat_add(obj.total_wcl, lat.bounded ? lat.wcl : options.analysis.divergence_guard);
  }
  return obj;
}

}  // namespace wharfbench
