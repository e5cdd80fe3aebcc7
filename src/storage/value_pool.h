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
// Thread safety: the pool is internally synchronized with a shared_mutex —
// any number of concurrent readers (Lookup/Text/IsFresh/size/digests), and
// writers (Intern/FreshValue) exclusive against both. This is what lets the
// repair engine's blocks share one parent table, and derived repairs share
// one dictionary, across worker threads without copies. References returned
// by Text() stay valid for the pool's lifetime even across concurrent
// interning (values live in a deque, which never relocates elements). A
// DigestView holds the shared lock for its whole lifetime, so a caller maps
// a whole table's cells to digests under one lock acquisition.

#ifndef FDREPAIR_STORAGE_VALUE_POOL_H_
#define FDREPAIR_STORAGE_VALUE_POOL_H_

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
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

  /// A value distinct from every value interned or manufactured so far.
  /// Rendered as "⊥<n>"; collisions with user data are prevented by
  /// suffixing until unique.
  ValueId FreshValue();

  /// A fresh value with a caller-chosen *deterministic* name. Unlike
  /// FreshValue, the result depends only on `name` and the pool's user
  /// content, never on how many fresh values were manufactured before:
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

  /// True iff `value` was manufactured by FreshValue. Lets tests assert that
  /// repairs only introduce fresh constants where the constructions say so.
  bool IsFresh(ValueId value) const;

  /// The text of an id; requires a valid id from this pool. The reference
  /// is stable for the pool's lifetime.
  const std::string& Text(ValueId value) const;

  /// Number of distinct values (interned + fresh).
  int64_t size() const;

  /// Read access to the per-value digests under one shared lock, held for
  /// the view's lifetime. The holder must not intern on the same pool while
  /// the view is alive (that would self-deadlock).
  class DigestView {
   public:
    /// ValueDigest(Text(value)); requires a valid id from this pool.
    uint64_t operator[](ValueId value) const {
      FDR_CHECK_MSG(static_cast<size_t>(value) < digests_->size(),
                    "value id " << value << " out of range");
      return (*digests_)[value];
    }

   private:
    friend class ValuePool;
    DigestView(std::shared_lock<std::shared_mutex> lock,
               const std::vector<uint64_t>* digests)
        : lock_(std::move(lock)), digests_(digests) {}

    std::shared_lock<std::shared_mutex> lock_;
    const std::vector<uint64_t>* digests_;
  };
  DigestView digests() const;

 private:
  /// Intern with mu_ already held exclusively.
  ValueId InternLocked(const std::string& text);

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, ValueId> index_;
  /// deque, not vector: growth must not relocate strings that concurrent
  /// readers hold references into.
  std::deque<std::string> texts_;
  /// digests_[id] == ValueDigest(texts_[id]), computed in InternLocked.
  std::vector<uint64_t> digests_;
  std::vector<bool> fresh_;
  int64_t fresh_counter_ = 0;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_VALUE_POOL_H_
