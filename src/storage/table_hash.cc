#include "storage/table_hash.h"

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

/// S(row) summed over rows [first, first + n), where `predecessor` is
/// id(first - 1). The n chains advance one word at a time side by side, so
/// their dependent Mix64 steps overlap instead of serializing.
template <int n>
uint64_t SumRows(const Table& table, const ValuePool::ReadView& values,
                 int first, TupleId predecessor) {
  uint64_t state[n];
  for (int i = 0; i < n; ++i) {
    const TupleId id = table.id(first + i);
    state[i] = Mix64(std::rotl(static_cast<uint64_t>(predecessor), 32) ^
                     static_cast<uint64_t>(id));
    predecessor = id;
  }
  for (int i = 0; i < n; ++i) {
    state[i] = (state[i] ^ DoubleBits(table.weight(first + i))) *
               kWeightMultiplier;
  }
  for (AttrId a = 0; a < table.schema().arity(); ++a) {
    const ValueId* column = table.ColumnData(a) + first;
    for (int i = 0; i < n; ++i) {
      state[i] = Mix64(state[i] ^ values.digest(column[i]));
    }
  }
  uint64_t sum = 0;
  for (int i = 0; i < n; ++i) sum += state[i];
  return sum;
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
  constexpr int kTile = 8;
  const ValuePool::ReadView values = table.pool()->read();
  uint64_t sum = 0;
  int row = begin;
  auto predecessor = [&] {
    return row == 0 ? kNoPredecessor : table.id(row - 1);
  };
  for (; row + kTile <= end; row += kTile) {
    sum += SumRows<kTile>(table, values, row, predecessor());
  }
  for (; row < end; ++row) {
    sum += SumRows<1>(table, values, row, predecessor());
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
