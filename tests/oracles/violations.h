// Violating-pair enumeration by hash map — test oracle only.
//
// An enumeration that shares no code with BuildConflictedCore: per
// FD, group rows in an unordered_map keyed by materialized lhs
// projections and report every pair of a group whose rhs values differ.
// BuildConflictedCore (graph/conflict_graph.h) is pinned against
// it, and the reference core-implicant U-repair (reference_routes.h)
// reads its violations through it.

#ifndef FDREPAIR_TESTS_ORACLES_VIOLATIONS_H_
#define FDREPAIR_TESTS_ORACLES_VIOLATIONS_H_

#include <vector>

#include "catalog/fdset.h"
#include "storage/table_view.h"

namespace fdrepair {

/// A single FD violation: view rows i < j disagree on fd.rhs while agreeing
/// on fd.lhs.
struct Violation {
  int row_i;  // dense row position in the underlying table
  int row_j;
  Fd fd;
};

/// Enumerates every violating pair for every FD (one entry per pair and
/// FD, in hash-map group order). Quadratic in the worst case.
std::vector<Violation> FindViolations(const TableView& view, const FdSet& fds);

}  // namespace fdrepair

#endif  // FDREPAIR_TESTS_ORACLES_VIOLATIONS_H_
