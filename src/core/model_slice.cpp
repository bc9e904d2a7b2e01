#include "core/model_slice.hpp"

#include <algorithm>
#include <charconv>

#include "core/segments.hpp"

namespace wharf {

namespace {

// Slice strings are built on the Engine's hottest path (one key per
// artifact per request — a priority search builds them per candidate),
// so everything appends into one preallocated std::string instead of
// going through ostringstream.

void append_num(std::string& out, long long v) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void append_chain_content(std::string& out, const Chain& chain) {
  out += "chain{";
  out += chain.name();
  out += ';';
  out += chain.is_synchronous() ? 'S' : 'A';
  out += ';';
  out += chain.arrival().describe();
  out += ';';
  if (chain.deadline().has_value()) {
    append_num(out, *chain.deadline());
  } else {
    out += '-';
  }
  out += ';';
  out += chain.is_overload() ? 'O' : '.';
  out += ";[";
  for (const Task& task : chain.tasks()) {
    append_num(out, task.priority);
    out += ':';
    append_num(out, task.wcet);
    out += ',';
  }
  out += "]}";
}

void append_interference_slice(std::string& out, const Chain& a, const Chain& b) {
  const Priority min_b = b.min_priority();
  out += "ifc{";
  out += a.name();
  out += ';';
  out += a.is_synchronous() ? 'S' : 'A';
  out += ";[";
  for (const Task& task : a.tasks()) {
    append_num(out, task.wcet);
    out += ':';
    out += task.priority > min_b ? '1' : '0';
    out += ',';
  }
  out += "]}";
}

void append_busy_interference_slice(std::string& out, const Chain& a, const Chain& b) {
  out += "bwi{";
  out += a.name();
  out += ';';
  out += a.is_synchronous() ? 'S' : 'A';
  out += ';';
  out += a.arrival().describe();
  out += ";C=";
  append_num(out, a.total_wcet());
  out += ';';
  if (!is_deferred(a, b)) {
    out += "arb}";
    return;
  }
  out += "def;hdr=";
  append_num(out, cost_of(a, header_segment_wrt(a, b)));
  out += ";segs=[";
  Time total = 0;
  Time critical = 0;
  bool any = false;
  for (const Segment& s : segments_wrt(a, b)) {
    append_num(out, s.cost);
    out += s.wraps ? 'w' : '.';
    out += ',';
    total = sat_add(total, s.cost);
    critical = any ? std::max(critical, s.cost) : s.cost;
    any = true;
  }
  out += "];sum=";
  append_num(out, total);
  out += ";crit=";
  append_num(out, any ? critical : 0);
  out += '}';
}

void append_overload_slice(std::string& out, const Chain& a, const Chain& b) {
  out += "ovl{";
  out += a.name();
  out += ';';
  out += a.arrival().describe();
  out += ";active=[";
  for (const ActiveSegment& s : active_segments_wrt(a, b)) {
    append_num(out, s.segment_index);
    out += ':';
    append_num(out, s.cost);
    out += ',';
  }
  out += "]}";
}

void append_analysis_options_slice(std::string& out, const AnalysisOptions& options) {
  out += "ao{";
  append_num(out, static_cast<long long>(options.max_busy_windows));
  out += ';';
  append_num(out, static_cast<long long>(options.max_fixed_point_iterations));
  out += ';';
  append_num(out, options.divergence_guard);
  out += ';';
  append_num(out, options.naive_arbitrary);
  out += '}';
}

void append_combination_options_slice(std::string& out, const TwcaOptions& options) {
  out += "co{";
  append_num(out, static_cast<int>(options.criterion));
  out += ';';
  append_num(out, static_cast<long long>(options.max_combinations));
  out += ';';
  append_num(out, options.minimal_only);
  out += '}';
}

}  // namespace

// ---------------------------------------------------------------------
// KeyInterner
// ---------------------------------------------------------------------

std::uint32_t KeyInterner::intern(std::string_view piece) {
  const util::MutexLock guard(mutex_);
  const auto it = index_.find(piece);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(fragments_.size());
  fragments_.emplace_back(piece);
  index_.emplace(std::string_view(fragments_.back()), id);
  return id;
}

std::size_t KeyInterner::size() const {
  const util::MutexLock guard(mutex_);
  return fragments_.size();
}

// ---------------------------------------------------------------------
// SliceCache
// ---------------------------------------------------------------------

void SliceCache::invalidate() {
  const util::MutexLock guard(mutex_);
  entries_.clear();
}

SliceCache::Stats SliceCache::stats() const {
  const util::MutexLock guard(mutex_);
  return stats_;
}

const std::string& SliceCache::acquire(Kind kind, const System& system, int a, int b) {
  // The memo key: slice kind, chain positions, the source chain's
  // priority sub-vector and — for pairwise slices — the target's minimum
  // priority (the only fact about the target's priorities any slice
  // reads).  Everything else a slice serializes is structural and fixed
  // for the cache's lifetime (see the class contract).
  std::string key;
  key.reserve(16 + 8 * static_cast<std::size_t>(system.chain(a).size()));
  key += static_cast<char>(kind);
  key += '|';
  append_num(key, a);
  key += ';';
  for (const Task& task : system.chain(a).tasks()) {
    append_num(key, task.priority);
    key += ',';
  }
  if (kind != Kind::kContent) {
    key += ';';
    append_num(key, b);
    key += ':';
    append_num(key, system.chain(b).min_priority());
  }

  {
    const util::MutexLock guard(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }

  // Serialize outside the lock (slice building walks segment
  // structures); racing builders produce equal strings, first wins.
  std::string built;
  switch (kind) {
    case Kind::kContent:
      built.reserve(64);
      append_chain_content(built, system.chain(a));
      break;
    case Kind::kInterference:
      built.reserve(48);
      append_interference_slice(built, system.chain(a), system.chain(b));
      break;
    case Kind::kBusyInterference:
      built.reserve(96);
      append_busy_interference_slice(built, system.chain(a), system.chain(b));
      break;
    case Kind::kOverload:
      built.reserve(64);
      append_overload_slice(built, system.chain(a), system.chain(b));
      break;
  }
  const util::MutexLock guard(mutex_);
  ++stats_.misses;
  std::string& slot = entries_[std::move(key)];
  if (slot.empty()) slot = std::move(built);
  return slot;
}

const std::string& SliceCache::chain_content(const System& system, int chain) {
  return acquire(Kind::kContent, system, chain, chain);
}

const std::string& SliceCache::interference_slice(const System& system, int a, int b) {
  return acquire(Kind::kInterference, system, a, b);
}

const std::string& SliceCache::busy_interference_slice(const System& system, int a, int b) {
  return acquire(Kind::kBusyInterference, system, a, b);
}

const std::string& SliceCache::overload_slice(const System& system, int a, int b) {
  return acquire(Kind::kOverload, system, a, b);
}

std::string chain_content(const Chain& chain) {
  std::string out;
  out.reserve(64);
  append_chain_content(out, chain);
  return out;
}

std::string interference_slice(const Chain& a, const Chain& b) {
  std::string out;
  out.reserve(48);
  append_interference_slice(out, a, b);
  return out;
}

std::string busy_interference_slice(const Chain& a, const Chain& b) {
  std::string out;
  out.reserve(96);
  append_busy_interference_slice(out, a, b);
  return out;
}

std::string overload_slice(const Chain& a, const Chain& b) {
  std::string out;
  out.reserve(64);
  append_overload_slice(out, a, b);
  return out;
}

std::string analysis_options_slice(const AnalysisOptions& options) {
  std::string out;
  out.reserve(48);
  append_analysis_options_slice(out, options);
  return out;
}

std::string combination_options_slice(const TwcaOptions& options) {
  std::string out;
  out.reserve(32);
  append_combination_options_slice(out, options);
  return out;
}

namespace {

// Appends one fragment to an interned key: intern the text, emit its id
// as KeyInterner::kIdBytes little-endian bytes.
void append_fragment(std::string& out, KeyInterner& interner, std::string_view piece) {
  const std::uint32_t id = interner.intern(piece);
  out += static_cast<char>(id & 0xffu);
  out += static_cast<char>((id >> 8) & 0xffu);
  out += static_cast<char>((id >> 16) & 0xffu);
  out += static_cast<char>((id >> 24) & 0xffu);
}

}  // namespace

std::string interference_key(const System& system, int target, SliceCache* slices,
                             KeyInterner* interner) {
  // The cached InterferenceContext embeds absolute chain indices
  // (ctx.target, others[].chain) that consumers dereference against the
  // *current* system, so the key pins every position: two systems
  // listing the same chains in a different order must not collide.
  std::string out;
  if (interner != nullptr) {
    // Interned encoding: one id per fragment, same decomposition as the
    // textual key below (header, target content, one "@a"-pinned slice
    // per interferer) — equal fragment sequences ⇔ equal id sequences.
    out.reserve(KeyInterner::kIdBytes * (static_cast<std::size_t>(system.size()) + 1));
    std::string piece;
    piece.reserve(64);
    piece += "ifc|t=";
    append_num(piece, target);
    piece += ';';
    append_fragment(out, *interner, piece);
    if (slices != nullptr) {
      append_fragment(out, *interner, slices->chain_content(system, target));
    } else {
      piece.clear();
      append_chain_content(piece, system.chain(target));
      append_fragment(out, *interner, piece);
    }
    for (int a = 0; a < system.size(); ++a) {
      if (a == target) continue;
      piece.clear();
      piece += '@';
      append_num(piece, a);
      if (slices != nullptr) {
        piece += slices->interference_slice(system, a, target);
      } else {
        append_interference_slice(piece, system.chain(a), system.chain(target));
      }
      append_fragment(out, *interner, piece);
    }
    return out;
  }
  out.reserve(64 * static_cast<std::size_t>(system.size()));
  out += "ifc|t=";
  append_num(out, target);
  out += ';';
  if (slices != nullptr) {
    out += slices->chain_content(system, target);
  } else {
    append_chain_content(out, system.chain(target));
  }
  for (int a = 0; a < system.size(); ++a) {
    if (a == target) continue;
    out += '@';
    append_num(out, a);
    if (slices != nullptr) {
      out += slices->interference_slice(system, a, target);
    } else {
      append_interference_slice(out, system.chain(a), system.chain(target));
    }
  }
  return out;
}

std::string busy_window_key(const System& system, int target, const AnalysisOptions& options,
                            bool without_overload, SliceCache* slices, KeyInterner* interner) {
  std::string out;
  if (interner != nullptr) {
    out.reserve(KeyInterner::kIdBytes * (static_cast<std::size_t>(system.size()) + 1));
    std::string piece;
    piece.reserve(96);
    piece += without_overload ? "bw-noov|" : "bw|";
    append_analysis_options_slice(piece, options);
    append_fragment(out, *interner, piece);
    if (slices != nullptr) {
      append_fragment(out, *interner, slices->chain_content(system, target));
    } else {
      piece.clear();
      append_chain_content(piece, system.chain(target));
      append_fragment(out, *interner, piece);
    }
    for (int a = 0; a < system.size(); ++a) {
      if (a == target) continue;
      if (without_overload && system.chain(a).is_overload()) continue;
      if (slices != nullptr) {
        append_fragment(out, *interner, slices->busy_interference_slice(system, a, target));
      } else {
        piece.clear();
        append_busy_interference_slice(piece, system.chain(a), system.chain(target));
        append_fragment(out, *interner, piece);
      }
    }
    return out;
  }
  out.reserve(96 * static_cast<std::size_t>(system.size()));
  out += without_overload ? "bw-noov|" : "bw|";
  append_analysis_options_slice(out, options);
  if (slices != nullptr) {
    out += slices->chain_content(system, target);
  } else {
    append_chain_content(out, system.chain(target));
  }
  for (int a = 0; a < system.size(); ++a) {
    if (a == target) continue;
    if (without_overload && system.chain(a).is_overload()) continue;
    if (slices != nullptr) {
      out += slices->busy_interference_slice(system, a, target);
    } else {
      append_busy_interference_slice(out, system.chain(a), system.chain(target));
    }
  }
  return out;
}

std::string overload_key(const System& system, int target, const TwcaOptions& options) {
  return overload_key(system, target, options,
                      busy_window_key(system, target, options.analysis,
                                      /*without_overload=*/false));
}

std::string overload_key(const System& system, int target, const TwcaOptions& options,
                         const std::string& busy_window_part, SliceCache* slices,
                         KeyInterner* interner) {
  // The k-independent artifacts read the full latency result (whose key
  // is the busy-window slice), the typical/exact slack (same reads, with
  // overload chains excluded — a subset), and the active segments of
  // every overload chain.  The cached TargetArtifacts embed absolute
  // chain indices (structure.target, per_chain[].chain) and the slack
  // computation dereferences the cached interference context's indices,
  // so — unlike the busy-window key, whose artifact is pure data — the
  // target and overload positions are pinned into the key.
  std::string out;
  if (interner != nullptr) {
    // Interned: header fragment, then the (already interned) busy-window
    // part verbatim, then one "@a"-pinned fragment per overload chain.
    out.reserve(busy_window_part.size() +
                KeyInterner::kIdBytes * (system.overload_indices().size() + 1));
    std::string piece;
    piece.reserve(64);
    piece += "ov|t=";
    append_num(piece, target);
    piece += ';';
    append_combination_options_slice(piece, options);
    append_fragment(out, *interner, piece);
    out += busy_window_part;
    for (const int a : system.overload_indices()) {
      if (a == target) continue;
      piece.clear();
      piece += '@';
      append_num(piece, a);
      if (slices != nullptr) {
        piece += slices->overload_slice(system, a, target);
      } else {
        append_overload_slice(piece, system.chain(a), system.chain(target));
      }
      append_fragment(out, *interner, piece);
    }
    return out;
  }
  out.reserve(busy_window_part.size() + 64 * system.overload_indices().size() + 48);
  out += "ov|t=";
  append_num(out, target);
  out += ';';
  append_combination_options_slice(out, options);
  out += busy_window_part;
  for (const int a : system.overload_indices()) {
    if (a == target) continue;
    out += '@';
    append_num(out, a);
    if (slices != nullptr) {
      out += slices->overload_slice(system, a, target);
    } else {
      append_overload_slice(out, system.chain(a), system.chain(target));
    }
  }
  return out;
}

std::string dmm_key(const System& system, int target, Count k, const TwcaOptions& options) {
  return dmm_key(k, options, overload_key(system, target, options));
}

std::string dmm_key(Count k, const TwcaOptions& options, const std::string& overload_part,
                    KeyInterner* interner) {
  std::string out;
  out.reserve(overload_part.size() + (interner != nullptr ? KeyInterner::kIdBytes : 40));
  std::string piece;
  std::string& header = interner != nullptr ? piece : out;
  header += "dmm|k=";
  append_num(header, k);
  header += ";cap=";
  append_num(header, options.cap_at_k);
  header += ';';
  if (interner != nullptr) append_fragment(out, *interner, piece);
  out += overload_part;
  return out;
}

}  // namespace wharf
