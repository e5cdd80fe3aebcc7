#include "storage/table_hash.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace fdrepair {
namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t DoubleBits(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// id(-1): the predecessor of row 0. INT64_MAX is reserved (see Table), so
/// no row's id equals it.
constexpr TupleId kNoPredecessor = std::numeric_limits<TupleId>::max();
/// Odd, so absorbing the weight bits is a bijection of them.
constexpr uint64_t kWeightMultiplier = 0x9e3779b97f4a7c15ULL;

uint64_t HeaderTerm(const Schema& schema) {
  StableHasher header;
  header.MixUint64(static_cast<uint64_t>(schema.arity()));
  for (AttrId a = 0; a < schema.arity(); ++a) {
    header.MixString(schema.AttributeName(a));
  }
  return header.digest();
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

uint64_t ContentHashRows(const Table& table, int begin, int end) {
  // S(row) for a chunk of rows at a time, swept column by column: the
  // chunk's chains advance one word at a time side by side, so their
  // dependent Mix64 steps overlap instead of serializing. The chunk lives
  // on the stack, so the one-row calls of the memo upkeep never allocate.
  // Unrolling the cell loop by 8 amortizes its per-cell digest bounds
  // check; without it GCC 12 runs this pass about 1.15x slower.
  constexpr int kChunk = 256;
  uint64_t state[kChunk];
  const ValuePool::ReadView values = table.pool()->read();
  uint64_t sum = 0;
  for (int first = begin; first < end; first += kChunk) {
    const int n = std::min(kChunk, end - first);
    TupleId predecessor = first == 0 ? kNoPredecessor : table.id(first - 1);
    for (int i = 0; i < n; ++i) {
      const TupleId id = table.id(first + i);
      state[i] = Mix64(std::rotl(static_cast<uint64_t>(predecessor), 32) ^
                       static_cast<uint64_t>(id));
      state[i] = (state[i] ^ DoubleBits(table.weight(first + i))) *
                 kWeightMultiplier;
      predecessor = id;
    }
    for (AttrId a = 0; a < table.schema().arity(); ++a) {
      const ValueId* column = table.ColumnData(a) + first;
#pragma GCC unroll 8
      for (int i = 0; i < n; ++i) {
        state[i] = Mix64(state[i] ^ values.digest(column[i]));
      }
    }
    for (int i = 0; i < n; ++i) sum += state[i];
  }
  return sum;
}

uint64_t TableContentHash(const Table& table) {
  if (std::optional<uint64_t> memo = table.content_hash_memo().Get()) {
    return *memo;
  }
  const uint64_t hash = HeaderTerm(table.schema()) +
                        ContentHashRows(table, 0, table.num_tuples());
  table.content_hash_memo().Set(hash);
  return hash;
}

}  // namespace fdrepair
