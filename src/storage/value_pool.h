// ValuePool: interning of attribute values.
//
// The paper's domain Val is a countably infinite set of values; tables store
// dense integer ids instead of strings so tuple comparisons, group-by and
// FD checks are integer operations. The pool also manufactures *fresh
// constants* — values guaranteed different from every value seen so far —
// which the U-repair constructions rely on (Proposition 4.4 updates lhs-cover
// cells "to a fresh constant from our infinite domain Val").
//
// Each value also carries a 64-bit *digest* of its text (ValueDigest),
// computed once when the value is interned. The digest depends on the text
// alone, so equal texts digest equal across pools, processes and hosts:
// table identity (storage/table_hash.h) hashes cells through these digests
// instead of re-reading every text.
//
// The digest also keys the text -> id index: one flat open-addressing array
// of ids (the layout of Table's id index), probed linearly from the
// digest's Fibonacci hash, a text compared only where the digests match.
// Growth doubles the array and re-places the ids from the stored digests,
// so no text is ever hashed twice. One Intern, Lookup or FreshValueNamed
// candidate costs one digest of its text and one probe sequence; a new
// value adds one id to the array, one text, one digest and one flag.
//
// Thread safety: the pool is internally synchronized with a shared_mutex —
// any number of concurrent readers (Lookup/Text/IsFresh/size/read), and
// writers (Intern/FreshValueNamed/FreshCellValues) exclusive against both.
// This is what lets the repair engine's blocks share one parent table, and
// derived repairs share one dictionary, across worker threads without
// copies. References returned by Text() stay valid for the pool's lifetime
// even across concurrent interning (values live in a deque, which never
// relocates elements). A ReadView holds the shared lock for its whole
// lifetime, so a caller maps a whole table's cells to digests or texts
// under one lock acquisition.

#ifndef FDREPAIR_STORAGE_VALUE_POOL_H_
#define FDREPAIR_STORAGE_VALUE_POOL_H_

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fdrepair {

/// Dense id of an interned value. Ids are pool-local.
using ValueId = int32_t;

/// The stable 64-bit digest of a value's text. Specified exactly, so it
/// never depends on the standard library, the platform or the run: the
/// state starts at Mix64(0x9e3779b97f4a7c15 ^ length); each 8-byte word,
/// loaded little-endian (a final partial word zero-padded), is absorbed as
/// state = Mix64(state ^ word). Mix64 is the murmur3 64-bit finalizer, a
/// bijection, so two texts of equal length that differ in one word never
/// share a digest; the length seed keeps zero padding unambiguous.
uint64_t ValueDigest(std::string_view text);

/// The murmur3 64-bit finalizer (multiply/xor-shift): a bijective mixer
/// with full avalanche. Shared by ValueDigest and the table hash.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// A table cell by stable tuple id (storage/table.h's TupleId) and
/// attribute: the coordinates a per-cell fresh name derives from.
struct FreshCell {
  int64_t id = 0;
  int32_t attr = 0;
};

/// The deterministic name of the fresh value for cell (id, attr): "⊥t" then
/// the id, ".", the attribute (see urepair/fresh.h for the name families).
std::string FreshCellName(int64_t id, int32_t attr);

/// A bidirectional string <-> ValueId dictionary plus a fresh-value factory.
class ValuePool {
 public:
  ValuePool() = default;

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  /// Returns the id of `text`, interning it on first sight.
  ValueId Intern(const std::string& text);

  /// Returns the id of `text` or kNotFound if it was never interned.
  StatusOr<ValueId> Lookup(const std::string& text) const;

  /// A fresh value — distinct from every user value — with a
  /// caller-chosen *deterministic* name. The result depends only on `name`
  /// and the pool's user content, never on how many fresh values were
  /// manufactured before:
  ///   - `name` never interned      -> intern it, mark fresh;
  ///   - `name` already fresh       -> return the existing id (replay- and
  ///     re-plan-stable: asking twice is idempotent);
  ///   - `name` interned as user data -> append "'" and retry, so the
  ///     result still differs from every user value, and deterministically
  ///     so for identical user content.
  /// This is what lets update repairs derive ⊥ names from (TupleId, attr)
  /// so cached cell-edit recipes replay bit-identically across pools,
  /// re-plans and thread counts (see urepair/fresh.h).
  ValueId FreshValueNamed(const std::string& name);

  /// True iff `value` was manufactured as fresh. Lets tests assert that
  /// repairs only introduce fresh constants where the constructions say so.
  bool IsFresh(ValueId value) const;

  /// The text of an id; requires a valid id from this pool. The reference
  /// is stable for the pool's lifetime.
  const std::string& Text(ValueId value) const;

  /// Number of distinct values (interned + fresh).
  int64_t size() const;

  /// Read access to texts and digests under one shared lock, held for the
  /// view's lifetime, so a caller reads a whole table's cells under one
  /// lock acquisition. The holder must not intern on the same pool while
  /// the view is alive (that would self-deadlock).
  class ReadView {
   public:
    /// ValueDigest(Text(value)); requires a valid id from this pool.
    uint64_t digest(ValueId value) const {
      FDR_CHECK_MSG(static_cast<size_t>(value) < digests_->size(),
                    "value id " << value << " out of range");
      return (*digests_)[value];
    }
    /// Text(value), stable for the pool's lifetime.
    const std::string& text(ValueId value) const {
      FDR_CHECK_MSG(static_cast<size_t>(value) < texts_->size(),
                    "value id " << value << " out of range");
      return (*texts_)[value];
    }

   private:
    friend class ValuePool;
    explicit ReadView(const ValuePool& pool)
        : lock_(pool.mu_), digests_(&pool.digests_), texts_(&pool.texts_) {}

    std::shared_lock<std::shared_mutex> lock_;
    const std::vector<uint64_t>* digests_;
    const std::deque<std::string>* texts_;
  };
  ReadView read() const { return ReadView(*this); }

  /// out[i] = FreshValueNamed(FreshCellName(cells[i].id, cells[i].attr))
  /// for every i, under one exclusive lock. Memoized per cell, which is
  /// exact because the pool is append-only: a name that resolved to a fresh
  /// value once resolves to it for the pool's lifetime. A memo hit builds
  /// no name and probes no text index, so re-freshening a table whose cells
  /// this pool already freshened costs one probe of a flat integer table
  /// per cell.
  void FreshCellValues(std::span<const FreshCell> cells, ValueId* out);

 private:
  /// FreshValueNamed with mu_ already held exclusively.
  ValueId FreshValueNamedLocked(std::string name);
  /// Where the probe for a text of ValueDigest `digest` starts, and the
  /// slot of text_slots_ holding `text`, or the empty slot where it belongs.
  size_t HomeTextSlot(uint64_t digest) const;
  size_t ProbeText(std::string_view text, uint64_t digest) const;
  /// Appends `text` as the next id, into the empty slot ProbeText found for
  /// it. Requires mu_ held exclusively.
  ValueId Append(size_t slot, std::string text, uint64_t digest, bool fresh);

  mutable std::shared_mutex mu_;
  /// The text index: ids in open-addressing slots, -1 for an empty slot; a
  /// power-of-two capacity at least twice the values held.
  std::vector<ValueId> text_slots_ = std::vector<ValueId>(16, -1);
  /// deque, not vector: growth must not relocate strings that concurrent
  /// readers hold references into.
  std::deque<std::string> texts_;
  /// digests_[id] == ValueDigest(texts_[id]), computed once per text.
  std::vector<uint64_t> digests_;
  std::vector<bool> fresh_;

  /// FreshCellValues' memo: each cell it resolved, with the value, in
  /// open-addressing slots — the layout of Table's id index: a power-of-two
  /// capacity at least twice the cells held, linear probing from the
  /// cell's Fibonacci hash, value -1 for an empty slot.
  struct CellSlot {
    int64_t id = 0;
    int32_t attr = 0;
    ValueId value = -1;
  };
  /// Where `cell`'s probe starts, and the slot holding it or the empty
  /// slot where it belongs.
  size_t HomeCellSlot(const FreshCell& cell) const;
  size_t ProbeCellSlot(const FreshCell& cell) const;
  std::vector<CellSlot> cell_slots_;
  size_t cell_count_ = 0;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_VALUE_POOL_H_
