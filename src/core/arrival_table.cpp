#include "core/arrival_table.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace wharf {

namespace {

/// Dense prefixes beyond this are not worth materializing (a jitter
/// model with a huge jitter/slack ratio, say) — fall back to virtual
/// evaluation instead of burning cache on a table nobody scans.
constexpr Count kMaxDenseEntries = 4096;

}  // namespace

ArrivalTable::ArrivalTable(ArrivalModelPtr model) : model_(std::move(model)) {
  WHARF_ASSERT(model_ != nullptr);
  const auto spec = model_->tail_spec();
  if (!spec.has_value()) return;
  if (spec->valid_from < 1 || spec->block < 1 || spec->span < 1) return;
  // Cover q in [1, valid_from + block - 1]: then every q beyond the dense
  // prefix reduces to a dense anchor in (n - block, n] plus whole spans.
  const Count dense = spec->valid_from + spec->block - 1;
  if (dense > kMaxDenseEntries) return;
  delta_.reserve(static_cast<std::size_t>(dense));
  bool below = true;
  for (Count q = 1; q <= dense; ++q) {
    const Time d = model_->delta_minus(q);
    delta_.push_back(d);
    // delta_minus(q) * block <= (q-1) * span, exact in 128 bits.
    below = below && static_cast<__int128>(d) * spec->block <=
                         static_cast<__int128>(q - 1) * spec->span;
  }
  WHARF_ASSERT(delta_.front() == 0);
  WHARF_ASSERT(std::is_sorted(delta_.begin(), delta_.end()));
  block_ = static_cast<std::int32_t>(spec->block);  // <= dense <= kMaxDenseEntries
  span_ = spec->span;
  below_rate_line_ = below;
}

Count ArrivalTable::eta_plus(Time window) const {
  if (delta_.empty()) return model_->eta_plus(window);
  if (window <= 0) return 0;
  // Near-sentinel windows (never produced by the analysis, whose windows
  // stay below the divergence guard) go through the model so the tail
  // ceil_div below cannot overflow.
  if (window >= kTimeInfinity - span_) return model_->eta_plus(window);
  // eta_plus(dt) = max{ q | delta_minus(q) < dt }.
  if (window <= delta_.back()) {
    // Dense range: the answer is the count of entries < window.
    const auto it = std::lower_bound(delta_.begin(), delta_.end(), window);
    return static_cast<Count>(it - delta_.begin());
  }
  // Tail range: every q > n is r + m * block for a unique dense anchor
  // r in (n - block, n] and m >= 1, with
  //   delta_minus(r + m * block) = delta_[r - 1] + m * span.
  // Maximize r + m * block over the residues (window > back >= delta_[r-1],
  // so ceil_div's argument is positive and m >= 0).
  const Count n = static_cast<Count>(delta_.size());
  Count best = n;
  for (Count r = n - block_ + 1; r <= n; ++r) {
    const Time anchor = delta_[static_cast<std::size_t>(r - 1)];
    const Count m = ceil_div(window - anchor, span_) - 1;  // max m: anchor + m*span < window
    best = std::max(best, sat_add(r, sat_mul(m, block_)));
  }
  return best;
}

Time ArrivalTable::delta_minus(Count q) const {
  if (delta_.empty()) return model_->delta_minus(q);
  if (q <= 1) return 0;
  const Count n = static_cast<Count>(delta_.size());
  if (q <= n) return delta_[static_cast<std::size_t>(q - 1)];
  // Near-sentinel counts go through the model (see eta_plus).
  if (q >= kCountInfinity - block_) return model_->delta_minus(q);
  // Reduce q to its dense anchor in (n - block, n] plus whole spans.
  const Count m = ceil_div(q - n, block_);
  const Count r = q - sat_mul(m, block_);
  return sat_add(delta_[static_cast<std::size_t>(r - 1)], sat_mul(m, span_));
}

}  // namespace wharf
