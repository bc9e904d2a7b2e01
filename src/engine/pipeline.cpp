#include "engine/pipeline.hpp"

#include <exception>
#include <map>
#include <unordered_map>
#include <utility>

#include "core/model_slice.hpp"
#include "util/expect.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/weight.hpp"

namespace wharf {

namespace {

// ---------------------------------------------------------------------
// Artifact weights: the resident bytes each stage value charges against
// the store's byte budget (struct plus owned heap).
// ---------------------------------------------------------------------

std::size_t weight_of(const InterferenceContext& ctx) {
  std::size_t total = sizeof(ctx) + util::heap_bytes(ctx.self_header);
  if (ctx.self_table) total += sizeof(ArrivalTable) + ctx.self_table->heap_bytes();
  for (const ChainInterference& info : ctx.others) {
    total += sizeof(info) + util::heap_bytes(info.header_segment);
    for (const Segment& s : info.segments) total += sizeof(s) + util::heap_bytes(s.tasks);
    if (info.critical.has_value()) total += util::heap_bytes(info.critical->tasks);
    if (info.table) total += sizeof(ArrivalTable) + info.table->heap_bytes();
  }
  return total;
}

std::size_t weight_of(const LatencyResult& r) {
  return sizeof(r) + util::heap_bytes(r.busy_times) + util::heap_bytes(r.reason);
}

std::size_t weight_of(const TargetArtifacts& a) {
  std::size_t total = sizeof(a);
  for (const OverloadActiveSegments& pc : a.structure.per_chain) {
    total += sizeof(pc);
    for (const ActiveSegment& s : pc.active) total += sizeof(s) + util::heap_bytes(s.tasks);
  }
  for (const Combination& c : a.unschedulable) total += sizeof(c) + util::heap_bytes(c.segments);
  if (a.no_guarantee_reason.has_value()) total += util::heap_bytes(*a.no_guarantee_reason);
  return total;
}

std::size_t weight_of(const DmmResult& r) {
  return sizeof(r) + util::heap_bytes(r.omegas) + util::heap_bytes(r.reason);
}

/// Per-request memo of one per-target stage-key family (State keeps one
/// per key kind).  Keys are pure functions of (system, options), both
/// fixed for the pipeline's lifetime, and serializing a slice walks the
/// chain's segment structure -- on key-heavy workloads (priority search
/// scoring thousands of candidate pipelines) building each target's key
/// once per request instead of once per stage access is a ~2x win.
/// get() builds *outside* the lock (holding it through serialization
/// would serialize the worker pool's key phase) and inserts first-wins:
/// racing builders produce equal strings, so the loser's copy is simply
/// dropped.  Returned references are stable (unordered_map nodes survive
/// rehashing, and entries are never erased).
class TargetKeyCache {
 public:
  template <typename Build>
  const std::string& get(int target, Build&& build) WHARF_EXCLUDES(mutex_) {
    {
      const util::MutexLock guard(mutex_);
      const auto it = map_.find(target);
      if (it != map_.end()) return it->second;
    }
    std::string built = build();
    const util::MutexLock guard(mutex_);
    std::string& slot = map_[target];
    if (slot.empty()) slot = std::move(built);
    return slot;
  }

 private:
  util::Mutex mutex_;
  std::unordered_map<int, std::string> map_ WHARF_GUARDED_BY(mutex_);
};

}  // namespace

// ---------------------------------------------------------------------
// Pipeline state
// ---------------------------------------------------------------------

/// State shared between a request's root pipeline and the budgeted
/// sub-pipelines its path queries spawn: the store session and the
/// request-wide diagnostics.
struct Pipeline::Shared {
  ArtifactStore* store = nullptr;
  std::uint64_t epoch = 0;
  util::Mutex diag_mutex;
  std::array<StageDiagnostics, kArtifactStageCount> diag WHARF_GUARDED_BY(diag_mutex) = {};
};

struct Pipeline::State {
  std::shared_ptr<const System> owned;  ///< engaged for budgeted sub-pipelines
  const System* system = nullptr;
  TwcaOptions options;
  std::shared_ptr<Shared> shared;
  /// Cross-pipeline memo of per-chain slice strings (owned by the
  /// session/evaluator).  Deliberately *not* in Shared: budgeted
  /// sub-pipelines substitute the target's deadline — a structural
  /// change under the SliceCache contract — so they key uncached.
  SliceCache* slices = nullptr;
  /// The store's fragment intern table: every key this pipeline builds
  /// is a compact id sequence against it (model_slice.hpp), so store
  /// lookups hash a handful of bytes instead of kilobyte slice text.
  KeyInterner* interner = nullptr;

  /// Request-local memo: one cell per (stage, key); the first visitor
  /// resolves the artifact through the store's single-flight resolve()
  /// while concurrent visitors of *this request* wait on the cell
  /// instead of duplicating the lookup — which is what keeps the
  /// per-stage counters deterministic under the worker pool.
  struct Cell {
    util::Mutex mutex;
    bool done WHARF_GUARDED_BY(mutex) = false;
    std::shared_ptr<const void> value WHARF_GUARDED_BY(mutex);
    std::exception_ptr error WHARF_GUARDED_BY(mutex);
  };
  util::Mutex memo_mutex;
  /// One map per stage: keys are large (a busy-window key serializes
  /// every interferer slice), so avoid re-prefixing/copying them per
  /// lookup just to disambiguate stages.
  std::array<std::unordered_map<std::string, std::shared_ptr<Cell>>, kArtifactStageCount> memo
      WHARF_GUARDED_BY(memo_mutex);

  /// Budgeted sub-pipelines, memoized per (target, deadline): a k-grid
  /// over one budget reuses the sub-pipeline's request-local memo
  /// instead of re-resolving (and re-counting) the same artifacts per k.
  util::Mutex budgeted_mutex;
  std::map<std::pair<int, Time>, std::unique_ptr<Pipeline>> budgeted_memo
      WHARF_GUARDED_BY(budgeted_mutex);

  /// Per-request cache of the per-target stage keys.  Keys are pure
  /// functions of (system, options), both fixed for the pipeline's
  /// lifetime, and serializing a slice walks the chain's segment
  /// structure — on key-heavy workloads (priority search scoring
  /// thousands of candidate pipelines) building each target's key once
  /// per request instead of once per stage access is a ~2x win.  The
  /// nested keys compose: overload reuses the busy-window part, dmm the
  /// overload part.  unordered_map nodes are stable, so returned
  /// references outlive later insertions.
  TargetKeyCache ifc_keys;
  TargetKeyCache bw_keys;
  TargetKeyCache bw_noov_keys;
  TargetKeyCache ov_keys;

  const std::string& interference_key_for(int target);
  const std::string& busy_window_key_for(int target, bool without_overload);
  const std::string& overload_key_for(int target);

  template <typename T, typename Make>
  std::shared_ptr<const T> acquire(ArtifactStage stage, const std::string& key, Make&& make);
};

const std::string& Pipeline::State::interference_key_for(int target) {
  return ifc_keys.get(
      target, [&] { return wharf::interference_key(*system, target, slices, interner); });
}

const std::string& Pipeline::State::busy_window_key_for(int target, bool without_overload) {
  return (without_overload ? bw_noov_keys : bw_keys).get(target, [&] {
    return wharf::busy_window_key(*system, target, options.analysis, without_overload, slices,
                                  interner);
  });
}

const std::string& Pipeline::State::overload_key_for(int target) {
  // Resolve the busy-window part first (its own memo round), then
  // compose the overload key from it outside the lock.
  const std::string& busy_part = busy_window_key_for(target, /*without_overload=*/false);
  return ov_keys.get(target, [&] {
    return wharf::overload_key(*system, target, options, busy_part, slices, interner);
  });
}

template <typename T, typename Make>
std::shared_ptr<const T> Pipeline::State::acquire(ArtifactStage stage, const std::string& key,
                                                  Make&& make) {
  std::shared_ptr<Cell> cell;
  {
    const util::MutexLock guard(memo_mutex);
    std::shared_ptr<Cell>& slot = memo[static_cast<std::size_t>(stage)][key];
    if (!slot) slot = std::make_shared<Cell>();
    cell = slot;
  }

  const util::MutexLock cell_guard(cell->mutex);
  if (cell->done) {
    if (cell->error) std::rethrow_exception(cell->error);
    return std::static_pointer_cast<const T>(cell->value);
  }

  ArtifactStore::Resolved resolved;
  try {
    resolved = shared->store->resolve(
        stage, key,
        [&] {
          auto value = std::make_shared<const T>(make());
          const std::size_t weight = weight_of(*value);
          return std::pair<std::shared_ptr<const void>, std::size_t>(std::move(value), weight);
        });
  } catch (...) {
    {
      const util::MutexLock guard(shared->diag_mutex);
      StageDiagnostics& diag = shared->diag[static_cast<std::size_t>(stage)];
      ++diag.lookups;
      ++diag.misses;
    }
    cell->error = std::current_exception();
    cell->done = true;
    throw;
  }
  {
    const util::MutexLock guard(shared->diag_mutex);
    StageDiagnostics& diag = shared->diag[static_cast<std::size_t>(stage)];
    ++diag.lookups;
    if (resolved.source == ArtifactStore::ResolveSource::kResident &&
        resolved.epoch < shared->epoch) {
      ++diag.hits;
    } else if (resolved.source == ArtifactStore::ResolveSource::kShared) {
      ++diag.shared;
    } else {
      ++diag.misses;
      diag.bytes_inserted += resolved.weight;
    }
  }
  cell->value = std::move(resolved.value);
  cell->done = true;
  return std::static_pointer_cast<const T>(cell->value);
}

// ---------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------

Pipeline::Pipeline(const System& system, const TwcaOptions& options, ArtifactStore& store,
                   std::uint64_t epoch, int /*jobs*/, SliceCache* slices)
    : state_(std::make_unique<State>()) {
  state_->system = &system;
  state_->options = options;
  state_->slices = slices;
  state_->interner = &store.interner();
  state_->shared = std::make_shared<Shared>();
  state_->shared->store = &store;
  state_->shared->epoch = epoch;
}

Pipeline::Pipeline(std::shared_ptr<const System> owned, const TwcaOptions& options,
                   std::shared_ptr<Shared> shared)
    : state_(std::make_unique<State>()) {
  state_->owned = std::move(owned);
  state_->system = state_->owned.get();
  state_->options = options;
  state_->shared = std::move(shared);
  state_->interner = &state_->shared->store->interner();
}

Pipeline::~Pipeline() = default;
Pipeline::Pipeline(Pipeline&&) noexcept = default;

const System& Pipeline::system() const { return *state_->system; }

std::shared_ptr<const InterferenceContext> Pipeline::interference(int target) {
  return state_->acquire<InterferenceContext>(
      ArtifactStage::kInterference, state_->interference_key_for(target),
      [&] { return make_interference_context(system(), target); });
}

std::shared_ptr<const LatencyResult> Pipeline::latency(int target) {
  return state_->acquire<LatencyResult>(
      ArtifactStage::kBusyWindow,
      state_->busy_window_key_for(target, /*without_overload=*/false), [&] {
        // Reuse the cached stage-1 context (and its flat arrival
        // tables) instead of rebuilding it inside the analysis.
        return latency_analysis(system(), *interference(target), state_->options.analysis);
      });
}

std::shared_ptr<const LatencyResult> Pipeline::latency_without_overload(int target) {
  return state_->acquire<LatencyResult>(
      ArtifactStage::kBusyWindow,
      state_->busy_window_key_for(target, /*without_overload=*/true),
      [&] {
        return latency_analysis(system(), *interference(target), state_->options.analysis,
                                system().overload_indices());
      });
}

std::shared_ptr<const TargetArtifacts> Pipeline::overload_artifacts(int target) {
  return state_->acquire<TargetArtifacts>(
      ArtifactStage::kOverload, state_->overload_key_for(target), [&] {
        return build_target_artifacts(system(), target, *interference(target), *latency(target),
                                      state_->options);
      });
}

DmmResult Pipeline::dmm(int target, Count k) {
  // Same preconditions (and messages) as TwcaAnalyzer::dmm, checked
  // before any key is derived.
  WHARF_EXPECT(k >= 1, "dmm requires k >= 1, got " << k);
  WHARF_EXPECT(target >= 0 && target < system().size(),
               "chain index " << target << " out of range [0, " << system().size() << ")");
  WHARF_EXPECT(!system().chain(target).is_overload(),
               "DMM target '" << system().chain(target).name()
                              << "' must not be an overload chain");

  const auto result = state_->acquire<DmmResult>(
      ArtifactStage::kDmmCurve,
      dmm_key(k, state_->options, state_->overload_key_for(target), state_->interner), [&] {
        const auto full = latency(target);
        const auto artifacts = overload_artifacts(target);
        return dmm_from_artifacts(system(), target, *full, *artifacts, k, state_->options);
      });
  return *result;
}

std::vector<DmmResult> Pipeline::dmm_curve(int target, const std::vector<Count>& ks) {
  std::vector<DmmResult> out;
  out.reserve(ks.size());
  for (const Count k : ks) out.push_back(dmm(target, k));
  return out;
}

Pipeline& Pipeline::budgeted(int target, Time deadline) {
  const util::MutexLock guard(state_->budgeted_mutex);
  std::unique_ptr<Pipeline>& slot = state_->budgeted_memo[{target, deadline}];
  if (!slot) {
    auto owned = std::make_shared<const System>(system().with_deadline(target, deadline));
    slot = std::unique_ptr<Pipeline>(
        new Pipeline(std::move(owned), state_->options, state_->shared));
  }
  return *slot;
}

namespace {

/// Oracle plugging the pipeline into the core path composition: plain
/// latencies come from the root pipeline, budgeted dmm queries from
/// sub-pipelines over the deadline-substituted system.
class PipelineOracleImpl final : public PathChainOracle {
 public:
  explicit PipelineOracleImpl(Pipeline& root) : root_(root) {}

  LatencyResult latency(int chain) override { return *root_.latency(chain); }

  DmmResult dmm_with_budget(int chain, Time budget, Count k) override {
    return root_.budgeted(chain, budget).dmm(chain, k);
  }

 private:
  Pipeline& root_;
};

}  // namespace

PathLatencyResult Pipeline::path_latency(const PathSpec& path) {
  PipelineOracleImpl oracle{*this};
  return wharf::path_latency(system(), path, oracle);
}

PathDmmResult Pipeline::path_dmm(const PathSpec& path, Count k) {
  PipelineOracleImpl oracle{*this};
  return wharf::path_dmm(system(), path, k, oracle);
}

std::array<StageDiagnostics, kArtifactStageCount> Pipeline::stage_diagnostics() const {
  const util::MutexLock guard(state_->shared->diag_mutex);
  return state_->shared->diag;
}

}  // namespace wharf
