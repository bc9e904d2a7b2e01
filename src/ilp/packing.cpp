#include "ilp/packing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ilp/branch_and_bound.hpp"
#include "util/expect.hpp"

namespace wharf::ilp {

void validate(const PackingProblem& problem) {
  const int num_resources = static_cast<int>(problem.capacities.size());
  for (Count cap : problem.capacities) {
    WHARF_EXPECT(cap >= 0, "packing capacity must be non-negative, got " << cap);
  }
  for (const auto& item : problem.item_resources) {
    WHARF_EXPECT(!item.empty(), "packing item must consume at least one resource");
    std::vector<int> sorted = item;
    std::sort(sorted.begin(), sorted.end());
    WHARF_EXPECT(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                 "packing item references a resource twice");
    for (int r : item) {
      WHARF_EXPECT(r >= 0 && r < num_resources,
                   "packing item references resource " << r << " out of range [0, "
                                                       << num_resources << ")");
    }
  }
}

PackingSolution solve_packing_ilp(const PackingProblem& problem) {
  validate(problem);
  const int n = static_cast<int>(problem.item_resources.size());
  PackingSolution out;
  out.counts.assign(static_cast<std::size_t>(n), 0);
  if (n == 0) return out;

  lp::Problem relaxation(std::vector<double>(static_cast<std::size_t>(n), 1.0));
  for (std::size_t r = 0; r < problem.capacities.size(); ++r) {
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    bool used = false;
    for (int i = 0; i < n; ++i) {
      const auto& res = problem.item_resources[static_cast<std::size_t>(i)];
      if (std::find(res.begin(), res.end(), static_cast<int>(r)) != res.end()) {
        row[static_cast<std::size_t>(i)] = 1.0;
        used = true;
      }
    }
    if (used) relaxation.add_le(std::move(row), static_cast<double>(problem.capacities[r]));
  }

  Problem ilp{std::move(relaxation), std::vector<bool>(static_cast<std::size_t>(n), true)};
  Options options;
  options.objective_is_integral = true;
  const Solution sol = solve(ilp, options);
  WHARF_EXPECT(sol.status == Status::kOptimal || sol.status == Status::kInfeasible,
               "packing ILP did not solve to optimality: status "
                   << static_cast<int>(sol.status));
  out.nodes = sol.nodes_explored;
  if (sol.status == Status::kOptimal) {
    out.total = static_cast<Count>(std::llround(sol.objective));
    for (int i = 0; i < n; ++i) {
      out.counts[static_cast<std::size_t>(i)] =
          static_cast<Count>(std::llround(sol.x[static_cast<std::size_t>(i)]));
    }
  }
  return out;
}

namespace {

/// Optimistic completion bound: sum over the remaining items of the
/// largest multiplicity each could take if it were alone (capacities not
/// decremented between items), which dominates any feasible completion.
Count optimistic_bound(const PackingProblem& problem, std::size_t first_item,
                       const std::vector<Count>& remaining) {
  Count bound = 0;
  for (std::size_t i = first_item; i < problem.item_resources.size(); ++i) {
    Count item_max = std::numeric_limits<Count>::max();
    for (int r : problem.item_resources[i]) {
      item_max = std::min(item_max, remaining[static_cast<std::size_t>(r)]);
    }
    if (item_max == std::numeric_limits<Count>::max()) item_max = 0;
    bound += item_max;
  }
  return bound;
}

struct DfsState {
  const PackingProblem* problem = nullptr;
  std::vector<Count> remaining;
  std::vector<Count> counts;
  std::vector<Count> best_counts;
  Count best = 0;
  long long nodes = 0;
};

void dfs(DfsState& state, std::size_t item, Count packed) {
  ++state.nodes;
  if (packed > state.best) {
    state.best = packed;
    state.best_counts = state.counts;
  }
  if (item >= state.problem->item_resources.size()) return;
  if (packed + optimistic_bound(*state.problem, item, state.remaining) <= state.best) return;

  Count item_max = std::numeric_limits<Count>::max();
  for (int r : state.problem->item_resources[item]) {
    item_max = std::min(item_max, state.remaining[static_cast<std::size_t>(r)]);
  }
  // Try the largest multiplicities first: good incumbents early.
  for (Count take = item_max; take >= 0; --take) {
    for (int r : state.problem->item_resources[item]) {
      state.remaining[static_cast<std::size_t>(r)] -= take;
    }
    state.counts[item] = take;
    dfs(state, item + 1, packed + take);
    state.counts[item] = 0;
    for (int r : state.problem->item_resources[item]) {
      state.remaining[static_cast<std::size_t>(r)] += take;
    }
  }
}

}  // namespace

PackingSolution solve_packing_dfs(const PackingProblem& problem) {
  validate(problem);
  PackingSolution out;
  out.counts.assign(problem.item_resources.size(), 0);
  if (problem.item_resources.empty()) return out;

  DfsState state;
  state.problem = &problem;
  state.remaining = problem.capacities;
  state.counts.assign(problem.item_resources.size(), 0);
  state.best_counts = state.counts;
  dfs(state, 0, 0);

  out.total = state.best;
  out.counts = state.best_counts;
  out.nodes = state.nodes;
  return out;
}

}  // namespace wharf::ilp
