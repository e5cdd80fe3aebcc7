// Repair distances (§2.3): dist_sub(S, T) — the weighted sum of deleted
// tuples — and dist_upd(U, T) — the weighted Hamming distance of an update.

#ifndef FDREPAIR_STORAGE_DISTANCE_H_
#define FDREPAIR_STORAGE_DISTANCE_H_

#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

/// dist_sub(S, T) = Σ_{i ∈ ids(T) ∖ ids(S)} w_T(i). Fails unless S is a
/// subset of T: same schema, ids(S) ⊆ ids(T), identical tuples and weights.
StatusOr<double> DistSub(const Table& subset, const Table& table);

/// dist_upd(U, T) = Σ_i w_T(i) · H(T[i], U[i]), with H the Hamming distance
/// RowHammingDistance (storage/table.h). Fails unless U is an update
/// of T: same schema, same identifiers, same weights.
StatusOr<double> DistUpd(const Table& update, const Table& table);

/// Convenience for verified inputs; aborts on malformed pairs.
double DistSubOrDie(const Table& subset, const Table& table);
double DistUpdOrDie(const Table& update, const Table& table);

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_DISTANCE_H_
