/// \file model_slice.hpp
/// Canonical content encodings of the model slices each analysis stage
/// reads — the substrate of artifact-granular caching.
///
/// The TWCA pipeline is staged: interference/segment structure (Defs
/// 2–5) → busy windows (Thm 1/2) → overload structures + unschedulable
/// combinations (Defs 8/9, Eq. 5) → dmm(k) (Thm 3, including its
/// combination-packing ILP).  Each stage's result is a pure function of a
/// *slice* of the system model, usually much smaller than the whole system:
///
///  * the busy window of target σ_b reads σ_b in full, but of every
///    other chain σ_a only a derived interference summary — the
///    deferred/arbitrary classification and a handful of segment costs
///    (Eq. 1 never looks at σ_a's raw priorities, only at comparisons
///    against σ_b's minimum priority);
///  * the overload structure additionally reads the active segments of
///    overload chains w.r.t. σ_b;
///  * dmm(k) additionally reads k and the cap_at_k option.
///
/// The functions here serialize exactly those read sets into canonical
/// strings.  Two systems with equal slices provably yield bit-identical
/// stage results, so the strings are sound cache keys: tweaking one
/// chain's priority invalidates only the targets whose slices actually
/// change (typically the mutated chain itself), not the whole system.
///
/// Caveat (shared with io::serialize_system): arrival models are encoded
/// via ArrivalModel::describe(), which is a faithful content encoding
/// for every library model but relies on user-defined models describing
/// themselves uniquely.

#ifndef WHARF_CORE_MODEL_SLICE_HPP
#define WHARF_CORE_MODEL_SLICE_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/system.hpp"
#include "core/twca.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace wharf {

/// Append-only intern table mapping key *fragments* (the slice strings
/// the key builders below compose) to dense 32-bit ids.  With an
/// interner, a cache key is a flat sequence of 4-byte little-endian ids
/// instead of the concatenated fragment text — typically 10-30x shorter,
/// which shrinks store memory and key-hash cost on the lookup path.
///
/// Ids are assigned in first-intern order and never change or disappear,
/// so a key built earlier in the process compares byte-equal to the same
/// key built later — the store-key soundness argument of the textual
/// builders carries over verbatim (equal fragment sequences ⇔ equal id
/// sequences).  Thread-safe.
class KeyInterner {
 public:
  /// Bytes one encoded id occupies inside a key string.
  static constexpr std::size_t kIdBytes = 4;

  /// Id of `piece`, interning it first if unseen.
  [[nodiscard]] std::uint32_t intern(std::string_view piece);

  /// Number of distinct fragments interned so far (ids are 0..size-1).
  [[nodiscard]] std::size_t size() const;

 private:
  mutable util::Mutex mutex_;
  // deque: stable element addresses under append, so the string_view
  // map keys survive growth.
  std::deque<std::string> fragments_ WHARF_GUARDED_BY(mutex_);
  std::unordered_map<std::string_view, std::uint32_t> index_ WHARF_GUARDED_BY(mutex_);
};

/// Cross-candidate memo of serialized per-chain slice strings — the
/// floor of the warm design-space path on µs-cheap systems is key
/// serialization, and most of a key is per-chain slices that a priority
/// delta does not touch.
///
/// Entries are keyed by the *per-chain priority sub-vector* (plus, for
/// pairwise slices, the target's minimum priority — the only thing a
/// slice reads about the target's priorities): two candidate systems
/// whose chain `a` carries the same priorities produce byte-identical
/// slices of `a`, so a delta (or a pairwise-swap neighborhood) that
/// leaves a chain's sub-vector untouched reuses its serialized slice
/// instead of re-walking the segment structure.
///
/// Soundness contract: every System used against one cache (between
/// invalidate() calls) must agree on all *structural* content — chain
/// count and order, names, kinds, arrival models, WCETs, deadlines,
/// overload flags — and differ at most in task priorities.  Priority
/// deltas need no invalidation (the sub-vector is in the key); a
/// structural delta must call invalidate() first — or, when other
/// holders may still key the old structure against the shared cache,
/// detach by replacing it with a fresh one (what wharf::Session does,
/// so live speculative sessions keep a consistent old-structure memo).
/// search::PipelineEvaluator satisfies the contract by construction
/// (candidates are priority permutations of one base).
///
/// Thread-safe; returned references are stable until invalidate().
class SliceCache {
 public:
  /// Lifetime lookup counters of the memo (invalidate() keeps them).
  struct Stats {
    std::size_t hits = 0;    ///< slices served from the memo
    std::size_t misses = 0;  ///< slices serialized afresh
  };

  /// Drops every entry (call before keying a structurally changed
  /// system).  Must not race with concurrent slice accessors.
  void invalidate();

  /// A consistent snapshot of the hit/miss counters.
  [[nodiscard]] Stats stats() const;

  /// Memoized equivalents of the free slice functions below (byte-
  /// identical output, so cached and uncached key builds collide on the
  /// same store artifacts).
  [[nodiscard]] const std::string& chain_content(const System& system, int chain);
  [[nodiscard]] const std::string& interference_slice(const System& system, int a, int b);
  [[nodiscard]] const std::string& busy_interference_slice(const System& system, int a, int b);
  [[nodiscard]] const std::string& overload_slice(const System& system, int a, int b);

 private:
  enum class Kind : char {
    kContent = 'c',
    kInterference = 'i',
    kBusyInterference = 'b',
    kOverload = 'o',
  };

  const std::string& acquire(Kind kind, const System& system, int a, int b);

  mutable util::Mutex mutex_;
  std::unordered_map<std::string, std::string> entries_ WHARF_GUARDED_BY(mutex_);
  Stats stats_ WHARF_GUARDED_BY(mutex_);
};

/// Full canonical encoding of one chain (name, kind, arrival curve,
/// deadline, overload flag, per-task priorities and WCETs).  This is the
/// target side of every per-target slice.
[[nodiscard]] std::string chain_content(const Chain& chain);

/// What the interference-context stage (Defs 2–5) reads about chain `a`
/// w.r.t. target `b`: per-task WCETs plus the comparison of each task's
/// priority against b's minimum priority (priorities are globally
/// unique, so one boolean per task captures every comparison Defs 2–5
/// make).
[[nodiscard]] std::string interference_slice(const Chain& a, const Chain& b);

/// What the busy-window fixed point (Eq. 1/3/4) reads about interferer
/// `a` w.r.t. target `b`: arrival curve, total WCET, kind, and — when
/// `a` is deferred — the derived header/segment/critical costs.  Raw
/// priorities never appear: an interferer whose derived summary is
/// unchanged cannot change the fixed point.
[[nodiscard]] std::string busy_interference_slice(const Chain& a, const Chain& b);

/// What the overload-structure/combination stage (Defs 8/9) reads about
/// overload chain `a` w.r.t. target `b`: the arrival curve (Lemma 4's
/// Ω term) and the active segments (parent segment and cost each).
[[nodiscard]] std::string overload_slice(const Chain& a, const Chain& b);

/// Canonical encoding of the analysis knobs that change busy-window
/// results (caps, divergence guard, naive-arbitrary ablation).
[[nodiscard]] std::string analysis_options_slice(const AnalysisOptions& options);

/// Canonical encoding of the TWCA knobs that change k-independent
/// combination artifacts (criterion, enumeration cap, minimality).
[[nodiscard]] std::string combination_options_slice(const TwcaOptions& options);

/// Cache key of the interference context of `target`.  Pins the target
/// and interferer *positions* in addition to their content: the cached
/// context embeds absolute chain indices that consumers dereference
/// against the current system.  A non-null `slices` memoizes the
/// per-chain parts (byte-identical output).  A non-null `interner`
/// switches the key to the compact interned-id encoding: the same
/// fragment decomposition, one 4-byte little-endian id per fragment (a
/// store must be keyed consistently with or without an interner — the
/// two encodings are distinct key spaces).
[[nodiscard]] std::string interference_key(const System& system, int target,
                                           SliceCache* slices = nullptr,
                                           KeyInterner* interner = nullptr);

/// Cache key of the busy-window/latency stage of `target`.  When
/// `without_overload` is set, overload chains are excluded from the walk
/// (the paper's "second analysis"), so their slices do not taint the key
/// and overload-model changes cannot invalidate it.  A non-null `slices`
/// memoizes the per-chain parts (byte-identical output); a non-null
/// `interner` selects the compact interned-id encoding.
[[nodiscard]] std::string busy_window_key(const System& system, int target,
                                          const AnalysisOptions& options,
                                          bool without_overload,
                                          SliceCache* slices = nullptr,
                                          KeyInterner* interner = nullptr);

/// Cache key of the k-independent overload artifacts of `target` (slack,
/// overload structure, unschedulable combinations, Thm 3 preconditions).
/// Pins the target's and each overload chain's position (the cached
/// OverloadStructure embeds absolute indices).
[[nodiscard]] std::string overload_key(const System& system, int target,
                                       const TwcaOptions& options);

/// Composing variant: `busy_window_part` must be
/// busy_window_key(system, target, options.analysis, false).  The keys
/// nest (dmm ⊃ overload ⊃ busy window), so callers that key several
/// stages for one target — the Engine pipeline's per-request key cache —
/// build the expensive shared part once instead of per stage.  A
/// non-null `slices` memoizes the per-chain parts; a non-null `interner`
/// selects the compact interned-id encoding (`busy_window_part` must
/// then be interned too — it is embedded verbatim).
[[nodiscard]] std::string overload_key(const System& system, int target,
                                       const TwcaOptions& options,
                                       const std::string& busy_window_part,
                                       SliceCache* slices = nullptr,
                                       KeyInterner* interner = nullptr);

/// Cache key of one dmm(k) query result for `target`.
[[nodiscard]] std::string dmm_key(const System& system, int target, Count k,
                                  const TwcaOptions& options);

/// Composing variant: `overload_part` must be
/// overload_key(system, target, options) for the queried target, built
/// with the same `interner` (or none).
[[nodiscard]] std::string dmm_key(Count k, const TwcaOptions& options,
                                  const std::string& overload_part,
                                  KeyInterner* interner = nullptr);

}  // namespace wharf

#endif  // WHARF_CORE_MODEL_SLICE_HPP
