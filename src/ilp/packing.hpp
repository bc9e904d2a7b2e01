/// \file packing.hpp
/// The multi-dimensional packing problem at the heart of Theorem 3.
///
/// Items are "unschedulable combinations"; resources are (overload chain,
/// active segment) pairs with capacity Ω^a_b.  Each copy of an item
/// consumes one unit of each resource it references, and the objective is
/// to maximize the total number of packed copies — i.e. the number of
/// busy windows that can be made unschedulable.
///
/// Two exact solvers are provided.  The production path reduces the whole
/// problem to one ILP of `branch_and_bound.hpp` (mirroring the paper's use
/// of an ILP solver), solved on the calling thread: problems average under
/// two items, so neither splitting them into independent subproblems nor
/// caching solutions pays for its overhead.  An independent depth-first
/// enumeration serves as a cross-check; tests and ablation benchmarks
/// reach it through the PackingSolver seam of dmm_from_artifacts
/// (core/twca.hpp).

#ifndef WHARF_ILP_PACKING_HPP
#define WHARF_ILP_PACKING_HPP

#include <vector>

#include "util/types.hpp"

namespace wharf::ilp {

/// Integer packing: maximize sum(x_i) subject to, for every resource r,
/// sum over items i that use r of x_i <= capacity[r], x_i >= 0 integral.
struct PackingProblem {
  /// item_resources[i] lists the resource indices item i consumes
  /// (one unit each); indices must be unique within an item.
  std::vector<std::vector<int>> item_resources;
  /// Per-resource capacities (>= 0).
  std::vector<Count> capacities;
};

/// Result of a packing solve.
struct PackingSolution {
  /// Maximum total number of packed item copies.
  Count total = 0;
  /// Optimal multiplicity per item.
  std::vector<Count> counts;
  /// Search nodes explored (DFS) or B&B nodes (ILP path).
  long long nodes = 0;
};

/// Exact solver via the branch-and-bound ILP (production path).
[[nodiscard]] PackingSolution solve_packing_ilp(const PackingProblem& problem);

/// Exact solver via bounded depth-first enumeration (cross-check path).
[[nodiscard]] PackingSolution solve_packing_dfs(const PackingProblem& problem);

/// Validates a packing problem (non-negative capacities, resource indices
/// in range, no duplicate resource within an item); throws
/// wharf::InvalidArgument on violation.
void validate(const PackingProblem& problem);

}  // namespace wharf::ilp

#endif  // WHARF_ILP_PACKING_HPP
