#include "core/dmm_curve.hpp"

#include "util/expect.hpp"

namespace wharf {

namespace {

/// k -> dmm(k) of `chain` over stages built once: each call runs only
/// the k-dependent step of Theorem 3.
auto dmm_probe(const TwcaAnalyzer& analyzer, int chain) {
  return [&analyzer, chain, stages = analyzer.dmm_stages(chain)](Count k) {
    return dmm_from_artifacts(analyzer.system(), chain, stages.latency, stages.artifacts, k,
                              analyzer.options())
        .dmm;
  };
}

}  // namespace

std::vector<DmmBreakpoint> dmm_breakpoints(const TwcaAnalyzer& analyzer, int chain, Count k_max) {
  WHARF_EXPECT(k_max >= 1, "k_max must be >= 1, got " << k_max);
  const auto dmm = dmm_probe(analyzer, chain);
  std::vector<DmmBreakpoint> out;
  Count k = 1;
  Count current = dmm(1);
  out.push_back(DmmBreakpoint{1, current});

  const Count at_max = dmm(k_max);
  while (current < at_max) {
    // Find the smallest k' in (k, k_max] with dmm(k') > current.
    Count lo = k + 1;
    Count hi = k_max;
    while (lo < hi) {
      const Count mid = lo + (hi - lo) / 2;
      if (dmm(mid) > current) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    k = lo;
    current = dmm(k);
    out.push_back(DmmBreakpoint{k, current});
  }
  return out;
}

Count max_window_for_misses(const TwcaAnalyzer& analyzer, int chain, Count m, Count k_max) {
  WHARF_EXPECT(m >= 0, "m must be >= 0, got " << m);
  WHARF_EXPECT(k_max >= 1, "k_max must be >= 1, got " << k_max);
  const auto dmm = dmm_probe(analyzer, chain);
  if (dmm(1) > m) return 0;
  if (dmm(k_max) <= m) return k_max;
  // Largest k with dmm(k) <= m: binary search on the monotone curve.
  Count lo = 1;          // dmm(lo) <= m
  Count hi = k_max;      // dmm(hi) > m
  while (lo + 1 < hi) {
    const Count mid = lo + (hi - lo) / 2;
    if (dmm(mid) <= m) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace wharf
