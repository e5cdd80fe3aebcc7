#include "storage/value_pool.h"

#include <algorithm>
#include <mutex>

namespace fdrepair {
namespace {

constexpr uint64_t kDigestSeed = 0x9e3779b97f4a7c15ULL;

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

ValueId ValuePool::InternLocked(const std::string& text) {
  auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  ValueId id = static_cast<ValueId>(texts_.size());
  index_.emplace(text, id);
  texts_.push_back(text);
  digests_.push_back(ValueDigest(text));
  fresh_.push_back(false);
  return id;
}

ValueId ValuePool::Intern(const std::string& text) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return InternLocked(text);
}

StatusOr<ValueId> ValuePool::Lookup(const std::string& text) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(text);
  if (it == index_.end()) {
    return Status::NotFound("value '" + text + "' not in pool");
  }
  return it->second;
}

ValueId ValuePool::FreshValue() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::string name;
  do {
    name = "⊥" + std::to_string(fresh_counter_++);
  } while (index_.find(name) != index_.end());
  ValueId id = InternLocked(name);
  fresh_[id] = true;
  return id;
}

ValueId ValuePool::FreshValueNamed(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return FreshValueNamedLocked(name);
}

ValueId ValuePool::FreshValueNamedLocked(const std::string& name) {
  std::string candidate = name;
  while (true) {
    auto it = index_.find(candidate);
    if (it == index_.end()) {
      ValueId id = InternLocked(candidate);
      fresh_[id] = true;
      return id;
    }
    if (fresh_[it->second]) return it->second;
    // User data occupies the name: disambiguate deterministically. The
    // bumped name depends only on the colliding user content, so identical
    // tables (even on different pools) still agree on it.
    candidate += "'";
  }
}

std::string FreshCellName(int64_t id, int32_t attr) {
  return "⊥t" + std::to_string(id) + "." + std::to_string(attr);
}

void ValuePool::FreshCellValues(std::span<const FreshCell> cells,
                                ValueId* out) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < cells.size(); ++i) {
    auto [it, inserted] = cell_values_.try_emplace(cells[i], 0);
    if (inserted) {
      it->second =
          FreshValueNamedLocked(FreshCellName(cells[i].id, cells[i].attr));
    }
    out[i] = it->second;
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
