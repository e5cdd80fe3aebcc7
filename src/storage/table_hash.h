// Stable 64-bit content hashing for tables and request keys.
//
// The serving layer (src/service/) keys its repair cache on table *content*
// — schema, tuple identifiers, values and weights — so two requests carrying
// equal data hash equal regardless of which Table object or ValuePool they
// arrived in. std::hash is deliberately avoided: its values differ across
// standard libraries and runs, and cache keys must be reproducible enough to
// log, compare and test against.
//
// StableHasher is FNV-1a over a framed byte stream: every field is prefixed
// with its length (strings) or fed as a fixed-width little-endian word
// (integers, doubles via their IEEE-754 bit pattern), so concatenation
// ambiguities ("ab"+"c" vs "a"+"bc") cannot collide by construction. It
// frames small, structured inputs: request keys and a table's header.
//
// TableContentHash is a header term plus a sum, mod 2^64, of one summand
// per row:
//
//   hash = H(arity, attribute names) + Σ_r S(r)
//   S(r) = chain(link(id(r-1)) ^ id(r), weight bits(r), digest(r, 0), ...,
//                digest(r, arity - 1))
//
// where H is StableHasher's digest, link(p) rotates p by 32 bits (a
// bijection), id(-1) = INT64_MAX (a reserved id), digest(r, a) is the
// pool's ValueDigest of the cell (computed once at intern time, so no text
// is read), and chain(w0, w1, w2, ...) starts at Mix64(w0), absorbs the
// weight bits w1 as s = (s ^ w1) * 0x9e3779b97f4a7c15, and each further
// word as s = Mix64(s ^ w). Every step is a bijection of its word, so a
// change to one weight or cell word changes exactly one summand, and with
// it the hash; a changed id changes its own summand and its successor's.
// The weight step is one odd multiply, not a Mix64, which keeps the
// from-scratch pass about as cheap as a word-wise pass; the next Mix64
// avalanches it. A multiply passes a flip of bit 63 on as exactly that
// flip, the one difference a later word could cancel, but weights are
// positive, so bit 63 is 0 in every weight. Row order is bound through the
// link: ids are unique, so the (predecessor id, id) pairs fix the row
// sequence.
//
// Upkeep: the hash is memoized on the Table (Table::content_hash_memo), and
// a mutator of a table whose memo is filled updates it instead of clearing
// it, through ContentHashRows: an append adds one summand, SetValue swaps
// one, and EraseRow drops the erased row's summand and re-links its
// successor's — O(arity) each. An empty memo stays empty until the next
// TableContentHash call, and Table::Clone starts with an empty one.
//
// Warning: the upkeep reads digests under the pool's shared lock. Do not
// hold a ValuePool::ReadView of the table's pool while mutating a table
// whose memo is filled: the nested shared lock can deadlock against a
// waiting writer.

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

/// Hashes the full content of `table` (see the file comment): the
/// relation-independent schema (the ordered attribute names), the row
/// order, the tuple identifiers, the weights, and every cell's value
/// digest. Equal content ⇒ equal hash across pools, processes and runs;
/// the relation name is deliberately excluded so "T" vs "Office" copies of
/// the same data share a cache entry. O(rows × arity) when the memo is
/// empty, O(1) after; safe to call from many threads at once.
uint64_t TableContentHash(const Table& table);

/// Σ S(r) over rows [begin, end) of `table`, mod 2^64: the share of
/// TableContentHash those rows contribute. Table's mutators keep a filled
/// memo current with it. Takes the pool's shared lock.
uint64_t ContentHashRows(const Table& table, int begin, int end);

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_TABLE_HASH_H_
