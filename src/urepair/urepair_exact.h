// Exact optimal U-repair by exhaustive search — ground truth for the
// polynomial routes and the approximation-ratio experiments (E8–E11).
//
// Soundness of the candidate domain: an optimal update assigns each column
// at most n distinct values that are not in the column's active domain
// (there are only n cells per column), so searching over
//   activedom(column) ∪ {n fresh symbols shared within the column}
// is lossless. Fresh symbols are canonicalized (a cell may use fresh_j only
// after fresh_{j-1} appears earlier in the same column) to break symmetry.
//
// The search is a branch-and-bound over cells in row-major order with FD
// checks at each completed row and cost pruning against the best solution,
// seeded with the combined approximation so only near-optimal assignments
// are explored. Exponential — guarded by instance size.

#ifndef FDREPAIR_UREPAIR_UREPAIR_EXACT_H_
#define FDREPAIR_UREPAIR_UREPAIR_EXACT_H_

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

struct ExactURepairOptions {
  /// Refuse tables with more tuples than this.
  int max_rows = 6;
  /// Refuse instances whose mutable-cell count exceeds this.
  int max_cells = 24;
  /// Restrict updates to these attributes (others stay fixed). The planner
  /// passes a component's attr(∆i); an unset (empty) value means attr(∆).
  AttrSet mutable_attrs;
  /// §5's restriction: only values from the column's active domain may be
  /// written (no fresh constants). A consistent restricted update always
  /// exists (copy one tuple's attr(∆) values everywhere), but its optimum
  /// can be strictly worse than the unrestricted one — see the tests.
  bool active_domain_only = false;
};

/// Computes an optimal U-repair of `table` under ∆ by exhaustive search.
/// Fails with kInternal, rather than aborting, if the update it settles on
/// does not satisfy ∆.
StatusOr<Table> OptURepairExact(const FdSet& fds, const Table& table,
                                const ExactURepairOptions& options = {});

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_UREPAIR_EXACT_H_
