#include "engine/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "engine/session.hpp"
#include "io/json.hpp"
#include "util/strings.hpp"
#include "util/worker_pool.hpp"

namespace wharf {

namespace {

/// True when the DMM-carrying payload of a successful answer reports
/// kNoGuarantee anywhere.
bool answer_has_no_guarantee(const QueryResult& r) {
  if (const auto* dmm = std::get_if<DmmAnswer>(&r.answer)) {
    return std::any_of(dmm->curve.begin(), dmm->curve.end(), [](const DmmResult& d) {
      return d.status == DmmStatus::kNoGuarantee;
    });
  }
  if (const auto* wh = std::get_if<WeaklyHardAnswer>(&r.answer)) {
    return wh->dmm_status == DmmStatus::kNoGuarantee;
  }
  if (const auto* lat = std::get_if<LatencyAnswer>(&r.answer)) {
    return !lat->result.bounded;
  }
  if (const auto* path = std::get_if<PathLatencyAnswer>(&r.answer)) {
    return !path->result.bounded;
  }
  if (const auto* pd = std::get_if<PathDmmAnswer>(&r.answer)) {
    return std::any_of(pd->curve.begin(), pd->curve.end(), [](const PathDmmResult& d) {
      return d.status == DmmStatus::kNoGuarantee;
    });
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------
// AnalysisRequest / AnalysisReport
// ---------------------------------------------------------------------

AnalysisRequest AnalysisRequest::standard(System system, std::vector<Count> ks,
                                          TwcaOptions options) {
  if (ks.empty()) ks.push_back(10);
  AnalysisRequest request{std::move(system), options, {}};
  for (const int c : request.system.regular_indices()) {
    const std::string& name = request.system.chain(c).name();
    request.queries.push_back(LatencyQuery{name, /*without_overload=*/false});
    request.queries.push_back(LatencyQuery{name, /*without_overload=*/true});
    if (request.system.chain(c).deadline().has_value()) {
      request.queries.push_back(DmmQuery{name, ks});
    }
  }
  return request;
}

bool AnalysisReport::ok() const {
  return std::all_of(results.begin(), results.end(),
                     [](const QueryResult& r) { return r.ok(); });
}

Status AnalysisReport::worst_status() const {
  for (const QueryResult& r : results) {
    if (!r.ok()) return r.status;
  }
  for (const QueryResult& r : results) {
    if (answer_has_no_guarantee(r)) {
      return Status::no_guarantee(
          "analysis completed but cannot bound all misses (see per-query results)");
    }
  }
  return Status::ok();
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

struct Engine::Impl {
  EngineOptions options;
  ArtifactStore store;

  explicit Impl(EngineOptions opts) : options(opts), store(options.cache_bytes) {}
};

Engine::Engine(EngineOptions options) : impl_(std::make_unique<Impl>(options)) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

const EngineOptions& Engine::options() const { return impl_->options; }

Session Engine::open_session(System system, TwcaOptions options) {
  return Session(std::move(system), options, impl_->store, impl_->options.jobs);
}

AnalysisReport Engine::run(const AnalysisRequest& request) {
  // One-shot adapter: an ephemeral session serves the whole request.
  Session session(request.system, request.options, impl_->store, impl_->options.jobs);
  return session.serve(request.queries);
}

std::vector<AnalysisReport> Engine::run_batch(const std::vector<AnalysisRequest>& requests) {
  std::vector<AnalysisReport> reports(requests.size());

  // One epoch for the whole batch: per-request hit/miss classification
  // is relative to the store state at batch start, which makes the
  // diagnostics independent of worker scheduling (artifacts produced by
  // sibling requests are shared but count as misses everywhere).
  const std::uint64_t epoch = impl_->store.begin_epoch();

  struct TaskRef {
    std::size_t request = 0;
    std::size_t query = 0;
  };
  std::vector<TaskRef> tasks;
  std::vector<Session> sessions;
  std::vector<std::vector<QueryResult>> results(requests.size());
  sessions.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sessions.emplace_back(requests[i].system, requests[i].options, impl_->store,
                          impl_->options.jobs, epoch);
    results[i].resize(requests[i].queries.size());
    for (std::size_t q = 0; q < requests[i].queries.size(); ++q) tasks.push_back({i, q});
  }

  // Every query is independent and writes its own preallocated slot —
  // results are identical for any jobs value.
  util::parallel_for_index(tasks.size(), impl_->options.jobs, [&](std::size_t t) {
    const TaskRef& ref = tasks[t];
    results[ref.request][ref.query] =
        sessions[ref.request].execute(requests[ref.request].queries[ref.query], tasks.size());
  });

  for (std::size_t i = 0; i < requests.size(); ++i) {
    reports[i] = sessions[i].collect(std::move(results[i]));
  }
  return reports;
}

ArtifactStore::Stats Engine::store_stats() const { return impl_->store.stats(); }

// ---------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------

namespace {

void write_status(io::JsonWriter& w, const Status& status) {
  w.key("status");
  w.value(to_string(status.code()));
  if (!status.message().empty()) {
    w.key("reason");
    w.value(status.message());
  }
}

void write_objective(io::JsonWriter& w, const search::Objective& o) {
  w.begin_object();
  w.key("chains_missing");
  w.value(o.chains_missing);
  w.key("total_dmm");
  w.value(o.total_dmm);
  w.key("total_wcl");
  w.value(o.total_wcl);
  w.end_object();
}

void write_path_dmm(io::JsonWriter& w, const PathDmmResult& r) {
  w.begin_object();
  w.key("k");
  w.value(r.k);
  w.key("dmm");
  w.value(r.dmm);
  w.key("status");
  w.value(to_string(r.status));
  if (!r.reason.empty()) {
    w.key("reason");
    w.value(r.reason);
  }
  w.key("budgets");
  io::write_array(w, r.budgets);
  w.key("per_chain");
  io::write_array(w, r.per_chain);
  w.end_object();
}

void write_answer(io::JsonWriter& w, const QueryResult& result) {
  std::visit(
      [&](const auto& a) {
        using A = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<A, std::monostate>) {
          w.key("query");
          w.value("failed");
        } else if constexpr (std::is_same_v<A, LatencyAnswer>) {
          w.key("query");
          w.value("latency");
          w.key("chain");
          w.value(a.chain);
          w.key("without_overload");
          w.value(a.without_overload);
          w.key("latency");
          io::write_json(w, a.result);
        } else if constexpr (std::is_same_v<A, DmmAnswer>) {
          w.key("query");
          w.value("dmm");
          w.key("chain");
          w.value(a.chain);
          w.key("dmm");
          io::write_array(w, a.curve);
        } else if constexpr (std::is_same_v<A, WeaklyHardAnswer>) {
          w.key("query");
          w.value("weakly_hard");
          w.key("chain");
          w.value(a.chain);
          w.key("m");
          w.value(a.m);
          w.key("k");
          w.value(a.k);
          w.key("dmm");
          w.value(a.dmm);
          w.key("dmm_status");
          w.value(to_string(a.dmm_status));
          w.key("satisfied");
          w.value(a.satisfied);
        } else if constexpr (std::is_same_v<A, SimulationAnswer>) {
          w.key("query");
          w.value("simulation");
          w.key("makespan");
          w.value(a.makespan);
          w.key("chains");
          w.begin_array();
          for (const SimulationAnswer::ChainStats& c : a.chains) {
            w.begin_object();
            w.key("chain");
            w.value(c.chain);
            w.key("completed");
            w.value(c.completed);
            w.key("max_latency");
            w.value(c.max_latency);
            w.key("misses");
            w.value(c.miss_count);
            w.key("max_window_misses");
            w.value(c.max_window_misses);
            w.end_object();
          }
          w.end_array();
          w.key("validated");
          w.value(a.validated);
          w.key("violations");
          io::write_array(w, a.violations);
        } else if constexpr (std::is_same_v<A, SearchAnswer>) {
          w.key("query");
          w.value("priority_search");
          w.key("nominal");
          write_objective(w, a.nominal);
          w.key("best");
          write_objective(w, a.result.best_objective);
          w.key("evaluations");
          w.value(a.result.evaluations);
          w.key("priorities");
          io::write_array(w, a.result.best_priorities);
          w.key("store");
          w.begin_object();
          w.key("lookups");
          w.value(static_cast<long long>(a.stats.lookups()));
          w.key("hits");
          w.value(static_cast<long long>(a.stats.hits()));
          w.key("misses");
          w.value(static_cast<long long>(a.stats.misses()));
          w.key("shared");
          w.value(static_cast<long long>(a.stats.shared()));
          w.end_object();
        } else if constexpr (std::is_same_v<A, PathLatencyAnswer>) {
          w.key("query");
          w.value("path_latency");
          w.key("chains");
          io::write_array(w, a.chains);
          w.key("bounded");
          w.value(a.result.bounded);
          if (!a.result.reason.empty()) {
            w.key("reason");
            w.value(a.result.reason);
          }
          w.key("wcl");
          w.value(a.result.wcl);
          w.key("per_chain_wcl");
          io::write_array(w, a.result.per_chain_wcl);
        } else if constexpr (std::is_same_v<A, PathDmmAnswer>) {
          w.key("query");
          w.value("path_dmm");
          w.key("chains");
          io::write_array(w, a.chains);
          w.key("dmm");
          w.begin_array();
          for (const PathDmmResult& r : a.curve) write_path_dmm(w, r);
          w.end_array();
        }
      },
      result.answer);
}

}  // namespace

void write_json(io::JsonWriter& w, const QueryResult& result) {
  w.begin_object();
  if (result.ok()) {
    write_answer(w, result);
  }
  write_status(w, result.status);
  w.end_object();
}

void write_json(io::JsonWriter& w, const ReportDiagnostics& diagnostics) {
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(diagnostics.system_hash));
  w.begin_object();
  w.key("system_hash");
  w.value(hash);
  w.key("cache_hit");
  w.value(diagnostics.cache_hit);
  w.key("cache_hits");
  w.value(static_cast<long long>(diagnostics.cache_hits));
  w.key("cache_misses");
  w.value(static_cast<long long>(diagnostics.cache_misses));
  w.key("cache_shared");
  w.value(static_cast<long long>(diagnostics.cache_shared));
  w.key("stages");
  w.begin_object();
  for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
    const StageDiagnostics& stage = diagnostics.stages[s];
    w.key(to_string(static_cast<ArtifactStage>(static_cast<int>(s))));
    w.begin_object();
    w.key("lookups");
    w.value(static_cast<long long>(stage.lookups));
    w.key("hits");
    w.value(static_cast<long long>(stage.hits));
    w.key("misses");
    w.value(static_cast<long long>(stage.misses));
    w.key("shared");
    w.value(static_cast<long long>(stage.shared));
    w.key("bytes_inserted");
    w.value(static_cast<long long>(stage.bytes_inserted));
    w.end_object();
  }
  w.end_object();
  if (diagnostics.search_evaluations > 0) {
    w.key("search");
    w.begin_object();
    w.key("evaluations");
    w.value(diagnostics.search_evaluations);
    w.key("hits");
    w.value(static_cast<long long>(diagnostics.search_hits));
    w.key("misses");
    w.value(static_cast<long long>(diagnostics.search_misses));
    w.key("shared");
    w.value(static_cast<long long>(diagnostics.search_shared));
    w.end_object();
  }
  w.key("queries_failed");
  w.value(static_cast<long long>(diagnostics.queries_failed));
  w.end_object();
}

void write_json(io::JsonWriter& w, const AnalysisReport& report) {
  w.begin_object();
  w.key("system");
  w.value(report.system);
  write_status(w, report.worst_status());
  w.key("results");
  io::write_array(w, report.results);
  w.key("diagnostics");
  write_json(w, report.diagnostics);
  w.end_object();
}

std::string to_json(const AnalysisReport& report) {
  io::JsonWriter w;
  write_json(w, report);
  return w.take();
}

}  // namespace wharf
