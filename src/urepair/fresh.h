// Deterministic fresh-constant (⊥) naming for update repairs.
//
// The §4 constructions only require fresh values to differ from everything
// else in the table; *which* fresh value a cell receives is arbitrary. A
// pool-global counter would make ⊥ names depend on allocation order, so a
// re-plan against a pool whose counter had advanced (or a differently
// threaded run that interleaved allocations) would produce different names
// for the same repair, and cell-edit recipes could not replay
// bit-identically across re-plans.
//
// These helpers derive the name from stable coordinates instead:
//   - FreshCellName(id, attr) (storage/value_pool.h, next to the per-pool
//     memo ValuePool::FreshCellValues that resolves it): the per-cell
//     freshening of SubsetToUpdate (Proposition 4.4) and the core-implicant
//     route — one symbol per (TupleId, attribute) cell, so distinct cells
//     never share a symbol (sharing would re-create lhs agreements) and the
//     same cell gets the same symbol in every run;
//   - FreshColumnSymbolName(attr, j): the exact search's canonical column
//     symbols, which rows deliberately MAY share (equal fresh values are
//     part of its search space) — one symbol per (attribute, index).
// The prefixes differ ("⊥t" vs "⊥e"), so the two families never collide.
// ValuePool::FreshValueNamed resolves collisions with user data by
// deterministic "'"-suffixing (see value_pool.h).

#ifndef FDREPAIR_UREPAIR_FRESH_H_
#define FDREPAIR_UREPAIR_FRESH_H_

#include <string>

#include "storage/table.h"

namespace fdrepair {

/// The deterministic name of the exact search's j-th canonical fresh
/// symbol for column `attr`.
inline std::string FreshColumnSymbolName(AttrId attr, int j) {
  return "⊥e" + std::to_string(attr) + "." + std::to_string(j);
}

/// The name a fresh text was manufactured under: FreshValueNamed only ever
/// appends "'" to disambiguate, and neither name above ends in one.
inline std::string FreshBaseName(const std::string& text) {
  return text.substr(0, text.find_last_not_of('\'') + 1);
}

/// Interns the deterministic fresh constant for cell (id, attr) into the
/// table's pool and returns its id.
inline ValueId FreshCellValue(Table& table, TupleId id, AttrId attr) {
  return table.FreshValueNamed(FreshCellName(id, attr));
}

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_FRESH_H_
