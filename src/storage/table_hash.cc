#include "storage/table_hash.h"

#include <cstring>

namespace fdrepair {
namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t DoubleBits(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Absorbs arrays of 64-bit words into eight independent Mix64 chains —
/// word i of an array goes to lane i % 8 as lane = Mix64(lane ^ word) — so
/// the multiplies of neighbouring words overlap instead of serializing.
/// Each step is a bijection of the word for a fixed lane, and Finish folds
/// the lanes bijectively, so two inputs that differ in a single word never
/// collide.
class WordHasher {
 public:
  static constexpr int kLanes = 8;

  explicit WordHasher(uint64_t seed) {
    for (int l = 0; l < kLanes; ++l) lanes_[l] = Mix64(seed + l);
  }

  /// Absorbs word_at(0), ..., word_at(n - 1).
  template <typename WordAt>
  void Absorb(int n, WordAt word_at) {
    int i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        lanes_[l] = Mix64(lanes_[l] ^ word_at(i + l));
      }
    }
    for (int l = 0; i < n; ++i, ++l) lanes_[l] = Mix64(lanes_[l] ^ word_at(i));
  }

  uint64_t Finish() const {
    uint64_t state = Mix64(lanes_[0]);
    for (int l = 1; l < kLanes; ++l) state = Mix64(state ^ lanes_[l]);
    return state;
  }

 private:
  uint64_t lanes_[kLanes] = {};
};

uint64_t ComputeContentHash(const Table& table) {
  StableHasher header;
  const Schema& schema = table.schema();
  header.MixUint64(static_cast<uint64_t>(schema.arity()));
  for (AttrId a = 0; a < schema.arity(); ++a) {
    header.MixString(schema.AttributeName(a));
  }
  const int rows = table.num_tuples();
  header.MixUint64(static_cast<uint64_t>(rows));

  // The header fixes every array's length, so the arrays need no framing.
  WordHasher words(header.digest());
  words.Absorb(rows, [&](int r) { return static_cast<uint64_t>(table.id(r)); });
  words.Absorb(rows, [&](int r) { return DoubleBits(table.weight(r)); });
  const ValuePool::ReadView values = table.pool()->read();
  for (AttrId a = 0; a < schema.arity(); ++a) {
    const ValueId* column = table.ColumnData(a);
    words.Absorb(rows, [&](int r) { return values.digest(column[r]); });
  }
  return words.Finish();
}

}  // namespace

void StableHasher::MixUint64(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (value >> (8 * byte)) & 0xffu;
    state_ *= kFnvPrime;
  }
}

void StableHasher::MixDouble(double value) { MixUint64(DoubleBits(value)); }

void StableHasher::MixString(std::string_view text) {
  MixUint64(text.size());
  for (char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= kFnvPrime;
  }
}

uint64_t TableContentHash(const Table& table) {
  if (std::optional<uint64_t> memo = table.content_hash_memo().Get()) {
    return *memo;
  }
  const uint64_t hash = ComputeContentHash(table);
  table.content_hash_memo().Set(hash);
  return hash;
}

}  // namespace fdrepair
