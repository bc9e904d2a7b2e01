/// \file busy_window.cpp
/// Data-oriented busy-window kernel (PR 7).
///
/// The public semantics are unchanged from the pre-flattening
/// implementation (preserved in tests/support/busy_window_reference.hpp
/// as the bit-identity oracle); what changed is how the Eq. (1)
/// right-hand side is evaluated:
///  * every interfering chain is flattened once per analysis into an
///    InterfererRow — a handful of scalars plus a pointer to its flat
///    ArrivalTable — so the fixed-point loop is a branch-light scan over
///    a contiguous array with no virtual dispatch and no per-iteration
///    exclude-list lookups;
///  * the K_b search warm-starts each q's Kleene iteration at B(q-1):
///    Eq. (1)'s rhs is pointwise nondecreasing in q (the self term drops
///    by at most C_header <= C_b per activation), so B(q) >= B(q-1) and
///    iterating from max(q*C_b, B(q-1)) reaches the same least fixed
///    point in far fewer steps;
///  * BusyTimeTerm labels are rendered lazily (BusyTimeTerm::label) —
///    the analysis allocates no diagnostic strings.
/// The kernel itself allocates only at construction (the row array);
/// every fixed-point iteration is allocation-free.  Before the K_b
/// search, the long-run load certificate (busy_window.hpp) rejects
/// overloaded targets in O(rows).

#include "core/busy_window.hpp"

#include <algorithm>

#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf {

namespace {

/// One interfering chain of Eq. (1)/(3)/(4), flattened to the scalars
/// the kernel loop reads:
///  * arbitrarily interfering (or naive): eta x C_a          (has_eta)
///  * deferred async: eta x C_header + sum of segment costs  (has_eta)
///  * deferred sync:  critical-segment cost only             (!has_eta)
struct InterfererRow {
  int chain = -1;            ///< index of sigma_a in the system
  bool has_eta = false;      ///< the term contains an eta+ factor
  bool deferred = false;     ///< Def. 2 classification (for labels)
  bool overload = false;     ///< skipped by the typical bound (Eq. 4)
  Time unit_cost = 0;        ///< multiplied by eta+(window)
  Time constant_cost = 0;    ///< window-independent part
  const ArrivalTable* table = nullptr;  ///< flat curve (null: hand-built ctx)
  const ArrivalModel* model = nullptr;  ///< virtual fallback (never null)
};

/// eta+ of a row through its flat table when present (bit-identical to
/// the model; see arrival_table.hpp).
Count row_eta(const InterfererRow& row, Time window) {
  return row.table != nullptr ? row.table->eta_plus(window) : row.model->eta_plus(window);
}

using Wide = __int128;

Wide gcd(Wide a, Wide b) {
  while (b != 0) {
    const Wide r = a % b;
    a = b;
    b = r;
  }
  return a;
}

/// Exact nonnegative fraction num/den (den >= 1), kept reduced.
struct Load {
  Wide num = 0;
  Wide den = 1;

  /// Adds cost * block / span; false on 128-bit overflow.
  bool add(Time cost, Count block, Time span) {
    Wide n = static_cast<Wide>(cost) * block;
    Wide d = span;
    const Wide g = gcd(n, d);
    n /= g;
    d /= g;
    const Wide h = gcd(den, d);
    Wide sum_den = 0;
    Wide lhs = 0;
    Wide rhs = 0;
    if (__builtin_mul_overflow(den / h, d, &sum_den) ||
        __builtin_mul_overflow(num, d / h, &lhs) ||
        __builtin_mul_overflow(n, den / h, &rhs) || __builtin_add_overflow(lhs, rhs, &num)) {
      return false;
    }
    den = sum_den;
    const Wide r = gcd(num, den);
    num /= r;
    den /= r;
    return true;
  }

  [[nodiscard]] std::string str() const { return util::cat(digits(num), "/", digits(den)); }

 private:
  static std::string digits(Wide v) {
    std::string out;
    do {
      out.insert(out.begin(), static_cast<char>('0' + static_cast<int>(v % 10)));
      v /= 10;
    } while (v != 0);
    return out;
  }
};

/// Flat evaluator of the Eq. (1)/(3)/(4) right-hand sides for one
/// (target, exclude set) pair.  Built once per analysis; all hot-path
/// methods are allocation-free.  Borrows the context and options — both
/// must outlive the kernel (they do: kernels are function-local).
class BusyWindowKernel {
 public:
  BusyWindowKernel(const System& system, const InterferenceContext& ctx,
                   const AnalysisOptions& options, const std::vector<int>& exclude)
      : options_(options), target_(ctx.target) {
    const Chain& b = system.chain(ctx.target);
    target_cost_ = b.total_wcet();
    self_model_ = &b.arrival();
    self_table_ = ctx.self_table.get();
    // A zero cost disables the self term, exactly like the synchronous /
    // empty-header cases of self_interference() in the reference path.
    self_header_cost_ = b.is_asynchronous() ? ctx.self_header_cost : 0;
    rows_.reserve(ctx.others.size());
    for (const ChainInterference& info : ctx.others) {
      if (std::find(exclude.begin(), exclude.end(), info.chain) != exclude.end()) continue;
      const Chain& a = system.chain(info.chain);
      InterfererRow row;
      row.chain = info.chain;
      row.deferred = info.deferred;
      row.overload = a.is_overload();
      row.table = info.table.get();
      row.model = &a.arrival();
      if (options.naive_arbitrary || !info.deferred) {
        row.has_eta = true;
        row.unit_cost = a.total_wcet();
      } else if (a.is_asynchronous()) {
        row.has_eta = true;
        row.unit_cost = info.header_segment_cost;
        row.constant_cost = info.segments_total_cost;
      } else {
        row.constant_cost = info.critical ? info.critical->cost : 0;
      }
      rows_.push_back(row);
    }
  }

  /// Right-hand side of Eq. (1) at busy-time guess `window`
  /// (`skip_overload` additionally drops overload chains — Eq. (4)).
  [[nodiscard]] Time rhs(Count q, Time window, bool skip_overload = false) const {
    Time total = sat_mul(q, target_cost_);
    total = sat_add(total, self_term(q, window));
    for (const InterfererRow& row : rows_) {
      if (skip_overload && row.overload) continue;
      total = sat_add(total, term_of(row, window));
    }
    return total;
  }

  /// Least fixed point of rhs(q, .) + extra_constant, Kleene-iterated
  /// from max(q*C_b + extra_constant, warm_start).  Pass warm_start 0
  /// for the reference-identical cold start, or B(q-1) to warm-start
  /// the K_b search (same fixed point, fewer iterations — see the file
  /// comment).  nullopt on divergence (guard or iteration cap).
  [[nodiscard]] std::optional<Time> fixed_point(Count q, Time warm_start,
                                               Time extra_constant = 0) const {
    Time current = std::max(sat_add(sat_mul(q, target_cost_), extra_constant), warm_start);
    for (int iter = 0; iter < options_.max_fixed_point_iterations; ++iter) {
      const Time next = sat_add(rhs(q, current), extra_constant);
      if (next >= options_.divergence_guard || is_infinite(next)) return std::nullopt;
      if (next == current) return current;
      WHARF_ASSERT(next > current);  // monotone iteration
      current = next;
    }
    return std::nullopt;  // iteration cap: treat as divergent
  }

  /// The long-run load certificate (busy_window.hpp): the exact load
  /// C_b*rho_b + sum of unit_cost_a*rho_a over the rows whose curve
  /// stays below its rate line, when it is strictly above 1.  nullopt
  /// when it is not, or cannot be decided here (no flat target table,
  /// a target above its rate line, zero target cost, 128-bit overflow);
  /// the K_b search then decides.
  [[nodiscard]] std::optional<Load> certified_overload() const {
    if (self_table_ == nullptr || !self_table_->below_rate_line() || target_cost_ <= 0) {
      return std::nullopt;
    }
    // A double sum clearly below 1 settles the common bounded case
    // without 128-bit arithmetic.  Each term is within a few ulps and the
    // sum within (rows + 4) ulps of the exact load, far inside the margin.
    double approx = 0;
    visit_rate_terms([&](Time cost, Count block, Time span) {
      approx += static_cast<double>(cost) * static_cast<double>(block) / static_cast<double>(span);
      return true;
    });
    if (approx < 1.0 - 1e-9) return std::nullopt;
    Load load;
    bool overflow = false;
    visit_rate_terms([&](Time cost, Count block, Time span) {
      if (load.num > load.den) return false;  // every further term is >= 0
      overflow = !load.add(cost, block, span);
      return !overflow;
    });
    if (overflow || load.num <= load.den) return std::nullopt;
    return load;
  }

  /// delta_minus of the analyzed chain (flat table when available).
  [[nodiscard]] Time self_delta_minus(Count q) const {
    return self_table_ != nullptr ? self_table_->delta_minus(q) : self_model_->delta_minus(q);
  }

  /// Itemization of rhs(q, busy) as structured terms (zero amounts are
  /// skipped, like the reference breakdown).
  [[nodiscard]] std::vector<BusyTimeTerm> breakdown(Count q, Time busy) const {
    std::vector<BusyTimeTerm> terms;
    terms.push_back(
        BusyTimeTerm{BusyTimeTerm::Kind::kDemand, target_, q, sat_mul(q, target_cost_)});
    const Time self = self_term(q, busy);
    if (self > 0) {
      terms.push_back(BusyTimeTerm{BusyTimeTerm::Kind::kSelfHeader, target_, q, self});
    }
    for (const InterfererRow& row : rows_) {
      const Time amount = term_of(row, busy);
      if (amount == 0) continue;
      BusyTimeTerm::Kind kind = BusyTimeTerm::Kind::kArbitrary;
      if (!options_.naive_arbitrary && row.deferred) {
        kind = row.has_eta ? BusyTimeTerm::Kind::kDeferredAsync
                           : BusyTimeTerm::Kind::kDeferredSync;
      }
      terms.push_back(BusyTimeTerm{kind, row.chain, q, amount});
    }
    return terms;
  }

 private:
  /// Self-interference of an asynchronous analyzed chain (2nd line of
  /// Eq. 1): activations beyond the q under analysis may run up to the
  /// chain's own header subchain before stalling at its lowest-priority
  /// task.
  [[nodiscard]] Time self_term(Count q, Time window) const {
    if (self_header_cost_ == 0) return 0;
    const Count eta =
        self_table_ != nullptr ? self_table_->eta_plus(window) : self_model_->eta_plus(window);
    if (eta == kCountInfinity) return kTimeInfinity;
    const Count extra = std::max<Count>(0, eta - q);
    return sat_mul(extra, self_header_cost_);
  }

  /// Calls visit(cost, block, span) for the target, then for every row
  /// that may enter the certificate's sum, until visit returns false.
  /// Rows without an eta factor or with a curve above its rate line are
  /// skipped: every term of Eq. (1) is >= 0, so the sum stays a lower
  /// bound.  Requires a flat target table.
  template <typename Visit>
  void visit_rate_terms(Visit visit) const {
    if (!visit(target_cost_, self_table_->block(), self_table_->span())) return;
    for (const InterfererRow& row : rows_) {
      if (!row.has_eta || row.unit_cost <= 0 || row.table == nullptr ||
          !row.table->below_rate_line()) {
        continue;
      }
      if (!visit(row.unit_cost, row.table->block(), row.table->span())) return;
    }
  }

  /// One row's contribution at `window`.  An unbounded eta makes the
  /// term infinite regardless of cost, matching the reference path.
  [[nodiscard]] static Time term_of(const InterfererRow& row, Time window) {
    if (!row.has_eta) return row.constant_cost;
    const Count eta = row_eta(row, window);
    if (eta == kCountInfinity) return kTimeInfinity;
    return sat_add(sat_mul(eta, row.unit_cost), row.constant_cost);
  }

  const AnalysisOptions& options_;
  int target_;
  Time target_cost_ = 0;
  Time self_header_cost_ = 0;
  const ArrivalTable* self_table_ = nullptr;
  const ArrivalModel* self_model_ = nullptr;
  std::vector<InterfererRow> rows_;
};

/// The K_b search of Theorem 2 + Lemma 3 over a prebuilt kernel, with
/// warm-started fixed points.
LatencyResult run_latency_search(const BusyWindowKernel& kernel, const Chain& b,
                                 const AnalysisOptions& options) {
  LatencyResult result;
  result.wcl = 0;
  result.worst_q = 0;

  if (const std::optional<Load> load = kernel.certified_overload()) {
    result.bounded = false;
    result.reason = util::cat("long-run load ", load->str(),
                              " exceeds 1: no maximal busy window exists");
    return result;
  }

  Count misses = 0;
  Time warm = 0;
  for (Count q = 1; q <= options.max_busy_windows; ++q) {
    const std::optional<Time> bq = kernel.fixed_point(q, warm);
    if (!bq.has_value()) {
      result.bounded = false;
      result.reason = util::cat("busy-time fixed point diverged at q=", q,
                                " (processor overloaded or guard exceeded)");
      return result;
    }
    warm = *bq;
    result.busy_times.push_back(*bq);

    const Time latency = *bq - kernel.self_delta_minus(q);
    if (latency > result.wcl || result.worst_q == 0) {
      result.wcl = latency;
      result.worst_q = q;
    }
    if (b.deadline().has_value() && latency > *b.deadline()) ++misses;

    if (*bq <= kernel.self_delta_minus(q + 1)) {
      result.K = q;
      result.bounded = true;
      if (b.deadline().has_value()) {
        result.misses_per_window = misses;
        result.schedulable = result.wcl <= *b.deadline();
      }
      return result;
    }
  }
  result.bounded = false;
  result.reason = util::cat("no maximal busy window within ", options.max_busy_windows,
                            " activations (K_b search cap)");
  return result;
}

}  // namespace

std::string BusyTimeTerm::label(const System& system) const {
  const std::string& name = system.chain(chain).name();
  switch (kind) {
    case Kind::kDemand:
      return util::cat(q, " x C_", name, " (demand)");
    case Kind::kSelfHeader:
      return util::cat(name, " header pile-up (async self)");
    case Kind::kArbitrary:
      return util::cat(name, " — arbitrary interference");
    case Kind::kDeferredAsync:
      return util::cat(name, " — deferred async (header pile-up + one per segment)");
    case Kind::kDeferredSync:
      return util::cat(name, " — deferred sync (critical segment)");
  }
  return {};
}

std::optional<Time> busy_time(const System& system, const InterferenceContext& ctx, Count q,
                              const AnalysisOptions& options, const std::vector<int>& exclude) {
  WHARF_EXPECT(q >= 1, "busy_time requires q >= 1, got " << q);
  const BusyWindowKernel kernel(system, ctx, options, exclude);
  return kernel.fixed_point(q, 0);
}

std::vector<BusyTimeTerm> busy_time_breakdown(const System& system,
                                              const InterferenceContext& ctx, Count q, Time busy,
                                              const AnalysisOptions& options,
                                              const std::vector<int>& exclude) {
  const BusyWindowKernel kernel(system, ctx, options, exclude);
  return kernel.breakdown(q, busy);
}

LatencyResult latency_analysis(const System& system, int target, const AnalysisOptions& options,
                               const std::vector<int>& exclude) {
  const InterferenceContext ctx = make_interference_context(system, target);
  const BusyWindowKernel kernel(system, ctx, options, exclude);
  return run_latency_search(kernel, system.chain(target), options);
}

LatencyResult latency_analysis(const System& system, const InterferenceContext& ctx,
                               const AnalysisOptions& options, const std::vector<int>& exclude) {
  const BusyWindowKernel kernel(system, ctx, options, exclude);
  return run_latency_search(kernel, system.chain(ctx.target), options);
}

std::optional<Time> busy_time_with_combination(const System& system,
                                               const InterferenceContext& ctx, Count q,
                                               Time combination_cost,
                                               const AnalysisOptions& options) {
  WHARF_EXPECT(q >= 1, "busy_time_with_combination requires q >= 1, got " << q);
  WHARF_EXPECT(combination_cost >= 0, "combination cost must be >= 0");
  // Note: the paper's Eq. (3) literally writes eta_a(B_b(q)) (the *full*
  // busy time) inside the deferred-async term; we evaluate all eta terms
  // at the self-consistent fixed point B^c(q) <= B_b(q), which is the
  // standard busy-window argument and only tightens the bound.
  const BusyWindowKernel kernel(system, ctx, options, system.overload_indices());
  return kernel.fixed_point(q, 0, combination_cost);
}

Time exact_combination_slack(const System& system, const InterferenceContext& ctx, Count K,
                             Time max_cost, const AnalysisOptions& options) {
  WHARF_EXPECT(K >= 1, "exact_combination_slack requires K >= 1, got " << K);
  WHARF_EXPECT(max_cost >= 0, "max_cost must be >= 0");
  const Chain& b = system.chain(ctx.target);
  WHARF_EXPECT(b.deadline().has_value(),
               "exact_combination_slack requires chain '" << b.name() << "' to have a deadline");
  const Time deadline = *b.deadline();

  const BusyWindowKernel kernel(system, ctx, options, system.overload_indices());
  const auto schedulable_at = [&](Time cost) {
    // Warm-start across the q sweep of one probe (resets per cost:
    // different constants shift the fixed points).
    Time warm = 0;
    for (Count q = 1; q <= K; ++q) {
      const std::optional<Time> busy = kernel.fixed_point(q, warm, cost);
      if (!busy.has_value()) return false;
      warm = *busy;
      if (*busy - kernel.self_delta_minus(q) > deadline) return false;
    }
    return true;
  };

  if (!schedulable_at(0)) return -1;
  if (schedulable_at(max_cost)) return max_cost;
  // Largest schedulable cost in [0, max_cost): binary search on the
  // monotone predicate.
  Time lo = 0;              // schedulable
  Time hi = max_cost;       // unschedulable
  while (lo + 1 < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (schedulable_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Time typical_bound(const System& system, const InterferenceContext& ctx, Count q,
                   const AnalysisOptions& options) {
  const Chain& b = system.chain(ctx.target);
  WHARF_EXPECT(b.deadline().has_value(),
               "typical_bound requires chain '" << b.name() << "' to have a deadline");
  WHARF_EXPECT(q >= 1, "typical_bound requires q >= 1, got " << q);

  const BusyWindowKernel kernel(system, ctx, options, {});
  const Time window = sat_add(kernel.self_delta_minus(q), *b.deadline());
  return kernel.rhs(q, window, /*skip_overload=*/true);  // Eq. (4): Cover excluded
}

Time typical_slack(const System& system, const InterferenceContext& ctx, Count K,
                   const AnalysisOptions& options) {
  const Chain& b = system.chain(ctx.target);
  WHARF_EXPECT(b.deadline().has_value(),
               "typical_bound requires chain '" << b.name() << "' to have a deadline");
  WHARF_EXPECT(K >= 1, "typical_slack requires K >= 1, got " << K);
  const BusyWindowKernel kernel(system, ctx, options, {});
  Time slack = kTimeInfinity;
  for (Count q = 1; q <= K; ++q) {
    const Time bound = sat_add(kernel.self_delta_minus(q), *b.deadline());
    const Time load = kernel.rhs(q, bound, /*skip_overload=*/true);
    const Time slack_q = is_infinite(load) ? -options.divergence_guard : bound - load;
    slack = std::min(slack, slack_q);
  }
  return slack;
}

}  // namespace wharf
