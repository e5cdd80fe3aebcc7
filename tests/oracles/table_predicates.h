// The §2.1 table predicates — test oracle only.
//
// No production path asks whether a table is unweighted or duplicate-free
// (the planners accept any weights and duplicate rows), so these live with
// the tests that pin the workload generators and the Office example.

#ifndef FDREPAIR_TESTS_ORACLES_TABLE_PREDICATES_H_
#define FDREPAIR_TESTS_ORACLES_TABLE_PREDICATES_H_

#include "storage/table.h"

namespace fdrepair {

/// True iff all tuple weights are equal.
bool IsUnweighted(const Table& table);

/// True iff no two rows hold the same values.
bool IsDuplicateFree(const Table& table);

}  // namespace fdrepair

#endif  // FDREPAIR_TESTS_ORACLES_TABLE_PREDICATES_H_
