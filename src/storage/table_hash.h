// Stable 64-bit content hashing for tables and request keys.
//
// The serving layer (src/service/) keys its repair cache on table *content*
// — schema, tuple identifiers, values and weights — so two requests carrying
// equal data hash equal regardless of which Table object or ValuePool they
// arrived in. std::hash is deliberately avoided: its values differ across
// standard libraries and runs, and cache keys must be reproducible enough to
// log, compare and test against.
//
// Two hashers live here. StableHasher is FNV-1a over a framed byte stream:
// every field is prefixed with its length (strings) or fed as a fixed-width
// little-endian word (integers, doubles via their IEEE-754 bit pattern), so
// concatenation ambiguities ("ab"+"c" vs "a"+"bc") cannot collide by
// construction. It frames small, structured inputs: request keys, a
// table's header, delta chains.
//
// TableContentHash frames the header (arity, attribute names, row count)
// through StableHasher, then absorbs the table's columns one 64-bit word at
// a time: the identifier array, the weight array (IEEE-754 bits), and each
// attribute column mapped through the pool's per-value digests
// (ValueDigest, computed once at intern time). It never reads a value's
// text and takes the pool's shared lock once per call, not once per cell.
// The result is memoized on the Table and cleared by its mutators, so
// re-hashing an unchanged Table object costs two atomic loads.

#ifndef FDREPAIR_STORAGE_TABLE_HASH_H_
#define FDREPAIR_STORAGE_TABLE_HASH_H_

#include <cstdint>
#include <string_view>

#include "storage/table.h"

namespace fdrepair {

/// An incremental FNV-1a 64-bit hasher with framed mixing primitives.
class StableHasher {
 public:
  StableHasher() = default;

  /// Mixes a fixed-width word (little-endian byte order).
  void MixUint64(uint64_t value);
  /// Mixes a signed word via its two's-complement bit pattern.
  void MixInt64(int64_t value) { MixUint64(static_cast<uint64_t>(value)); }
  /// Mixes a double via its IEEE-754 bit pattern (NaNs are caller-rejected
  /// upstream; +0.0 and -0.0 hash differently, as they should).
  void MixDouble(double value);
  /// Mixes a string with a length prefix.
  void MixString(std::string_view text);

  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

/// Hashes the full content of `table`: relation-independent schema (the
/// ordered attribute names), the tuple identifiers, the weights, and every
/// cell's value digest, column by column. Equal content ⇒ equal hash across
/// pools, processes and runs; the relation name is deliberately excluded so
/// "T" vs "Office" copies of the same data share a cache entry. O(rows ×
/// arity) on first use per Table object, O(1) after (Table::
/// content_hash_memo); safe to call from many threads at once.
uint64_t TableContentHash(const Table& table);

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_TABLE_HASH_H_
