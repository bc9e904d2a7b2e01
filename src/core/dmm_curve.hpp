/// \file dmm_curve.hpp
/// Utilities over the deadline-miss-model curve k -> dmm(k).
///
/// dmm(k) is a monotone non-decreasing step function of k (Omega of
/// Lemma 4 grows with the window delta_plus(k), and the cap at k grows
/// too), which makes its breakpoints well-defined and binary-searchable.
/// These helpers answer the two questions weakly-hard designers actually
/// ask: "where does my guarantee degrade?" (breakpoints) and "up to which
/// horizon do I tolerate at most m misses?" (the (m,k) frontier).

#ifndef WHARF_CORE_DMM_CURVE_HPP
#define WHARF_CORE_DMM_CURVE_HPP

#include <vector>

#include "core/twca.hpp"

namespace wharf {

/// One step of the dmm curve: dmm(k) == dmm for all k in [k, next break).
struct DmmBreakpoint {
  Count k = 0;    ///< smallest k attaining this dmm value
  Count dmm = 0;  ///< dmm(k)
};

/// All breakpoints of k -> dmm(k) for k in [1, k_max]: the first entry is
/// k=1; every further entry is the smallest k where the value increases.
/// Uses binary search between steps (O(steps * log k_max) dmm queries);
/// the k-independent stages are built once per call, so each query runs
/// only the k-dependent step of Theorem 3.
[[nodiscard]] std::vector<DmmBreakpoint> dmm_breakpoints(const TwcaAnalyzer& analyzer, int chain,
                                                         Count k_max);

/// The weakly-hard (m,k) frontier: the largest k in [1, k_max] such that
/// dmm(k) <= m, or 0 when even dmm(1) > m.  A chain satisfying the
/// returned horizon misses at most m deadlines in any window of that
/// many activations.  Builds the k-independent stages once, like
/// dmm_breakpoints.
[[nodiscard]] Count max_window_for_misses(const TwcaAnalyzer& analyzer, int chain, Count m,
                                          Count k_max);

}  // namespace wharf

#endif  // WHARF_CORE_DMM_CURVE_HPP
