#include "storage/value_pool.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <iterator>
#include <mutex>
#include <utility>

namespace fdrepair {
namespace {

constexpr uint64_t kDigestSeed = 0x9e3779b97f4a7c15ULL;

/// How many cells ahead FreshCellValues prefetches memo slots.
constexpr size_t kCellPrefetch = 16;

/// `n` <= 8 bytes at `p` as a little-endian word, zero-padded — written
/// byte by byte so the result is the same on every host.
uint64_t LoadLittleEndian(const char* p, size_t n) {
  uint64_t word = 0;
  for (size_t i = 0; i < n; ++i) {
    word |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return word;
}

}  // namespace

uint64_t ValueDigest(std::string_view text) {
  uint64_t state = Mix64(kDigestSeed ^ text.size());
  for (size_t i = 0; i < text.size(); i += 8) {
    const size_t n = std::min<size_t>(8, text.size() - i);
    state = Mix64(state ^ LoadLittleEndian(text.data() + i, n));
  }
  return state;
}

size_t ValuePool::HomeTextSlot(uint64_t digest) const {
  // Fibonacci hashing of the digest, as in Table's id index.
  const int shift = 64 - std::countr_zero(text_slots_.size());
  return (digest * 0x9e3779b97f4a7c15ULL) >> shift;
}

size_t ValuePool::ProbeText(std::string_view text, uint64_t digest) const {
  // A text is read only where the digests already match.
  const size_t mask = text_slots_.size() - 1;
  for (size_t slot = HomeTextSlot(digest);; slot = (slot + 1) & mask) {
    const ValueId id = text_slots_[slot];
    if (id < 0 || (digests_[id] == digest && texts_[id] == text)) return slot;
  }
}

ValueId ValuePool::Append(size_t slot, std::string text, uint64_t digest,
                          bool fresh) {
  const ValueId id = static_cast<ValueId>(texts_.size());
  texts_.push_back(std::move(text));
  digests_.push_back(digest);
  fresh_.push_back(fresh);
  if (2 * texts_.size() <= text_slots_.size()) {
    text_slots_[slot] = id;
    return id;
  }
  // Double, and re-place every id by its stored digest: the texts are
  // distinct, so each lands in the first empty slot of its probe sequence.
  text_slots_.assign(2 * text_slots_.size(), -1);
  const size_t mask = text_slots_.size() - 1;
  for (ValueId v = 0; v <= id; ++v) {
    size_t s = HomeTextSlot(digests_[v]);
    while (text_slots_[s] >= 0) s = (s + 1) & mask;
    text_slots_[s] = v;
  }
  return id;
}

ValueId ValuePool::Intern(const std::string& text) {
  const uint64_t digest = ValueDigest(text);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const size_t slot = ProbeText(text, digest);
  if (text_slots_[slot] >= 0) return text_slots_[slot];
  return Append(slot, text, digest, /*fresh=*/false);
}

StatusOr<ValueId> ValuePool::Lookup(const std::string& text) const {
  const uint64_t digest = ValueDigest(text);
  std::shared_lock<std::shared_mutex> lock(mu_);
  const ValueId id = text_slots_[ProbeText(text, digest)];
  if (id < 0) return Status::NotFound("value '" + text + "' not in pool");
  return id;
}

ValueId ValuePool::FreshValueNamed(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return FreshValueNamedLocked(name);
}

ValueId ValuePool::FreshValueNamedLocked(std::string name) {
  while (true) {
    const uint64_t digest = ValueDigest(name);
    const size_t slot = ProbeText(name, digest);
    const ValueId id = text_slots_[slot];
    if (id < 0) return Append(slot, std::move(name), digest, /*fresh=*/true);
    if (fresh_[id]) return id;
    // User data occupies the name: disambiguate deterministically. The
    // bumped name depends only on the colliding user content, so identical
    // tables (even on different pools) still agree on it.
    name += "'";
  }
}

std::string FreshCellName(int64_t id, int32_t attr) {
  // Digits formatted on the stack and appended: a short name never leaves
  // the string's inline buffer.
  char digits[24];
  std::string name = "⊥t";
  name.append(digits, std::to_chars(digits, std::end(digits), id).ptr);
  name += '.';
  name.append(digits, std::to_chars(digits, std::end(digits), attr).ptr);
  return name;
}

size_t ValuePool::HomeCellSlot(const FreshCell& cell) const {
  // Fibonacci hashing, as in Table's id index: runs of sequential ids
  // spread over distinct slots.
  const int shift = 64 - std::countr_zero(cell_slots_.size());
  const uint64_t key = static_cast<uint64_t>(cell.id) ^
                       (static_cast<uint64_t>(cell.attr) << 56);
  return (key * 0x9e3779b97f4a7c15ULL) >> shift;
}

size_t ValuePool::ProbeCellSlot(const FreshCell& cell) const {
  const size_t mask = cell_slots_.size() - 1;
  for (size_t slot = HomeCellSlot(cell);; slot = (slot + 1) & mask) {
    const CellSlot& s = cell_slots_[slot];
    if (s.value < 0 || (s.id == cell.id && s.attr == cell.attr)) return slot;
  }
}

void ValuePool::FreshCellValues(std::span<const FreshCell> cells,
                                ValueId* out) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < cells.size(); ++i) {
    // Room for one more cell, made before the probe so the slot it finds
    // stays put. Growing one cell at a time, not by the batch's size up
    // front, keeps a batch of hits (a re-run's) from doubling the memo.
    if (2 * (cell_count_ + 1) > cell_slots_.size()) {
      std::vector<CellSlot> old = std::exchange(
          cell_slots_,
          std::vector<CellSlot>(std::max<size_t>(16, 2 * cell_slots_.size())));
      for (const CellSlot& s : old) {
        if (s.value >= 0) cell_slots_[ProbeCellSlot({s.id, s.attr})] = s;
      }
    }
    // A request usually finds this pool's memo cold in cache: fetching a
    // later cell's slot now overlaps the misses instead of serializing them.
    if (i + kCellPrefetch < cells.size()) {
      __builtin_prefetch(&cell_slots_[HomeCellSlot(cells[i + kCellPrefetch])]);
    }
    CellSlot& slot = cell_slots_[ProbeCellSlot(cells[i])];
    if (slot.value < 0) {
      slot = CellSlot{
          cells[i].id, cells[i].attr,
          FreshValueNamedLocked(FreshCellName(cells[i].id, cells[i].attr))};
      ++cell_count_;
    }
    out[i] = slot.value;
  }
}

bool ValuePool::IsFresh(ValueId value) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  FDR_CHECK(value >= 0 && value < static_cast<ValueId>(fresh_.size()));
  return fresh_[value];
}

const std::string& ValuePool::Text(ValueId value) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  FDR_CHECK_MSG(value >= 0 && value < static_cast<ValueId>(texts_.size()),
                "value id " << value << " out of range");
  return texts_[value];
}

int64_t ValuePool::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<int64_t>(texts_.size());
}

}  // namespace fdrepair
