#include "storage/row_span.h"

#include <algorithm>

namespace fdrepair {

void GroupScratch::GroupInPlace(RowSpan span, AttrSet attrs,
                                std::vector<int>* group_ends) {
  group_ends->clear();
  const int n = span.num_tuples();
  if (n == 0) return;
  if (attrs.empty()) {
    // π_∅ puts every row in one trivial group; nothing to permute.
    group_ends->push_back(n);
    return;
  }
  if (static_cast<int>(group_of_row_.size()) < n) group_of_row_.resize(n);
  int num_groups;
  if (attrs.size() == 1) {
    num_groups = AssignGroupsSingleAttr(span, attrs.First());
  } else if (attrs.size() == 2) {
    const AttrId a1 = attrs.First();
    const AttrId a2 = attrs.Minus(AttrSet::Singleton(a1)).First();
    num_groups = AssignGroupsPackedPair(span, a1, a2);
  } else {
    num_groups = AssignGroupsGeneric(span, attrs);
  }
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

int GroupScratch::AssignGroupsSingleAttr(RowSpan span, AttrId attr) {
  const int n = span.num_tuples();
  const ValueId* column = span.table().ColumnData(attr);
  const int* rows = span.data();
  value_index_.Clear();
  // One fused pass straight off the contiguous column: no staging, no max
  // prescan (the slot table grows on demand and retains its high-water
  // capacity across calls).
  bool created = false;
  for (int i = 0; i < n; ++i) {
    group_of_row_[i] = value_index_.FindOrCreate(column[rows[i]], &created);
  }
  return value_index_.size();
}

namespace {

/// The exact two-attribute grouping key: v1 in the high 32 bits.
uint64_t PackPair(ValueId v1, ValueId v2) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(v1)) << 32) |
         static_cast<uint32_t>(v2);
}

}  // namespace

int GroupScratch::AssignGroupsPackedPair(RowSpan span, AttrId a1, AttrId a2) {
  const int n = span.num_tuples();
  const ValueId* c1 = span.table().ColumnData(a1);
  const ValueId* c2 = span.table().ColumnData(a2);
  const int* rows = span.data();
  packed_group_.clear();
  // One fused pass: pack each row's key straight off the two contiguous
  // columns and deduplicate it in the same step.
  int num_groups = 0;
  for (int i = 0; i < n; ++i) {
    const int row = rows[i];
    auto [it, inserted] =
        packed_group_.emplace(PackPair(c1[row], c2[row]), num_groups);
    if (inserted) ++num_groups;
    group_of_row_[i] = it->second;
  }
  return num_groups;
}

int GroupScratch::AssignGroupsGeneric(RowSpan span, AttrSet attrs) {
  const int n = span.num_tuples();
  projection_index_.Clear();
  for (int i = 0; i < n; ++i) {
    bool created = false;
    group_of_row_[i] = projection_index_.FindOrCreate(span.table(), span.row(i),
                                                      attrs, &created);
  }
  return projection_index_.size();
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
  if (attrs.size() == 1) {
    // Single-attribute side (the common marriage shape): resolve each
    // group's witness value straight out of the column store.
    const ValueId* column = span.table().ColumnData(attrs.First());
    value_index_.Clear();
    int begin = 0;
    for (int g = 0; g < num_groups; ++g) {
      bool created = false;
      index_of_group->push_back(
          value_index_.FindOrCreate(column[span.row(begin)], &created));
      begin = group_ends[g];
    }
    return value_index_.size();
  }
  projection_index_.Clear();
  int begin = 0;
  for (int g = 0; g < num_groups; ++g) {
    bool created = false;
    index_of_group->push_back(projection_index_.FindOrCreate(
        span.table(), span.row(begin), attrs, &created));
    begin = group_ends[g];
  }
  return projection_index_.size();
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
