// ===========================================================================
// REFERENCE IMPLEMENTATIONS — test/bench oracle only. Not a production path.
// ===========================================================================
//
// The pre-span §4 route implementations, preserved verbatim when the live
// routes were ported onto the columnar grouping core (DenseValueIndex +
// Table::Column scans) — exactly as the materializing OptSRepair recursion
// was preserved when the span core replaced it. The only change relative
// to the historical code is fresh-constant naming, which switched to the
// deterministic (TupleId, attr)-derived scheme of urepair/fresh.h on both
// sides at once, so reference and live outputs stay comparable cell for
// cell. Compiled only into the fdrepair_test_oracles library, which tests
// and benches link and the production libraries never do.
//
// tests/urepair_routes_test.cc pins the live routes bit-identical to these
// across all named FD sets, thread counts and SIMD dispatch modes;
// bench/bench_sec4_urepair_routes.cc measures the live routes against them
// (the tracked `urepair.span_speedup` floor).

#ifndef FDREPAIR_TESTS_ORACLES_REFERENCE_ROUTES_H_
#define FDREPAIR_TESTS_ORACLES_REFERENCE_ROUTES_H_

#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table.h"
#include "urepair/planner.h"

namespace fdrepair {

/// Hash-map weighted-plurality consensus repair / cost (the pre-port
/// urepair_consensus.cc bodies).
Table ReferenceConsensusPluralityRepair(const Table& table, AttrSet attrs);
double ReferenceConsensusPluralityCost(const Table& table, AttrSet attrs);

/// Hash-map subset-to-update conversion (Proposition 4.4 direction 2) with
/// deterministic freshening.
StatusOr<Table> ReferenceSubsetToUpdate(const FdSet& fds, const Table& table,
                                        const std::vector<int>& kept_rows);

/// Hash-map key-cycle alignment (Proposition 4.9).
StatusOr<Table> ReferenceKeyCycleURepair(const FdSet& fds, const Table& table);

/// Hash-map core-implicant baseline and the best-of-both combination.
StatusOr<Table> ReferenceKlApproxURepair(const FdSet& fds, const Table& table);
StatusOr<Table> ReferenceCombinedApproxURepair(const FdSet& fds,
                                               const Table& table);

/// The full reference U-planner executor: PlanURepair + the reference
/// routes, merged per component exactly as ComputeURepair merges the live
/// ones. The oracle for whole-plan bit-identity.
StatusOr<URepairResult> ReferenceComputeURepair(
    const FdSet& fds, const Table& table, const URepairOptions& options = {});

}  // namespace fdrepair

#endif  // FDREPAIR_TESTS_ORACLES_REFERENCE_ROUTES_H_
