#include "storage/row_span.h"

#include <algorithm>
#include <bit>

namespace fdrepair {

void GroupIndex::Reset(const Table& table, AttrSet attrs, int expected_rows) {
  table_ = &table;
  attrs_ = attrs;
  witness_.clear();
  column_ = attrs.size() == 1 ? table.ColumnData(attrs.First()) : nullptr;
  if (column_ != nullptr) {
    values_.Clear();
    return;
  }
  first_ = second_ = nullptr;
  if (attrs.size() == 2) {
    const AttrId a1 = attrs.First();
    first_ = table.ColumnData(a1);
    second_ = table.ColumnData(attrs.Minus(AttrSet::Singleton(a1)).First());
  }
  Rehash(std::bit_ceil(2 * static_cast<size_t>(std::max(expected_rows, 8))));
}

void GroupIndex::FindOrCreateAll(const int* rows, int n, int* groups) {
  bool created = false;
  if (column_ != nullptr) {
    // The S-splices group thousands of small windows per write through
    // this loop: keep it a bare column read and slot lookup per row.
    const ValueId* column = column_;
    for (int i = 0; i < n; ++i) {
      groups[i] = values_.FindOrCreate(column[rows[i]], &created);
    }
    return;
  }
  for (int i = 0; i < n; ++i) groups[i] = FindOrCreate(rows[i], &created);
}

int GroupIndex::Find(int row) const {
  if (column_ != nullptr) return values_.Find(column_[row]);
  const Slot& slot = slots_[ProbeSlot(row, KeyOf(row))];
  return slot.epoch == epoch_ ? slot.group : -1;
}

int GroupIndex::Insert(int row, uint64_t key) {
  // Keep at least half the slots empty, so every probe ends early.
  if (2 * (witness_.size() + 1) > mask_ + 1) Rehash(2 * (mask_ + 1));
  const int group = size();
  slots_[ProbeSlot(row, key)] = Slot{key, group, epoch_};
  witness_.push_back(row);
  return group;
}

void GroupIndex::Rehash(size_t capacity) {
  if (slots_.size() < capacity) slots_.resize(capacity);
  if (++epoch_ == 0) {
    // Wrapped: no slot may keep a stamp the new epochs will reuse.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  for (int group = 0; group < size(); ++group) {
    const int row = witness_[group];
    const uint64_t key = KeyOf(row);
    slots_[ProbeSlot(row, key)] = Slot{key, group, epoch_};
  }
}

void GroupScratch::GroupInPlace(RowSpan span, AttrSet attrs,
                                std::vector<int>* group_ends) {
  group_ends->clear();
  const int n = span.num_tuples();
  if (n == 0) return;
  if (static_cast<int>(group_of_row_.size()) < n) group_of_row_.resize(n);
  // One fused pass straight off the table's columns: each row's key is
  // read and deduplicated in the same step, with no staging buffer.
  index_.Reset(span.table(), attrs, n);
  index_.FindOrCreateAll(span.data(), n, group_of_row_.data());
  const int num_groups = index_.size();
  if (num_groups == 1) {
    // Already contiguous; skip the scatter.
    group_ends->push_back(n);
    return;
  }
  if (num_groups == n) {
    // Every row is its own group, so first-appearance order IS the current
    // order: the permutation is the identity. Skip the scatter.
    for (int i = 1; i <= n; ++i) group_ends->push_back(i);
    return;
  }
  ScatterByGroup(span, num_groups, group_ends);
}

void GroupScratch::ScatterByGroup(RowSpan span, int num_groups,
                                  std::vector<int>* group_ends) {
  const int n = span.num_tuples();
  group_start_.assign(num_groups, 0);
  for (int i = 0; i < n; ++i) ++group_start_[group_of_row_[i]];
  int total = 0;
  group_ends->reserve(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    const int size = group_start_[g];
    group_start_[g] = total;
    total += size;
    group_ends->push_back(total);
  }
  if (static_cast<int>(scatter_.size()) < n) scatter_.resize(n);
  int* data = span.data();
  for (int i = 0; i < n; ++i) {
    scatter_[group_start_[group_of_row_[i]]++] = data[i];
  }
  std::copy(scatter_.begin(), scatter_.begin() + n, data);
}

int GroupScratch::AssignDistinctIndices(RowSpan span,
                                        const std::vector<int>& group_ends,
                                        AttrSet attrs,
                                        std::vector<int>* index_of_group) {
  index_of_group->clear();
  const int num_groups = static_cast<int>(group_ends.size());
  index_of_group->reserve(num_groups);
  index_.Reset(span.table(), attrs, num_groups);
  int begin = 0;
  for (int g = 0; g < num_groups; ++g) {
    bool created = false;
    index_of_group->push_back(index_.FindOrCreate(span.row(begin), &created));
    begin = group_ends[g];
  }
  return index_.size();
}

std::vector<int> GroupScratch::AcquireIntBuffer() {
  if (free_buffers_.empty()) return {};
  std::vector<int> buffer = std::move(free_buffers_.back());
  free_buffers_.pop_back();
  buffer.clear();
  return buffer;
}

void GroupScratch::ReleaseIntBuffer(std::vector<int> buffer) {
  free_buffers_.push_back(std::move(buffer));
}

}  // namespace fdrepair
