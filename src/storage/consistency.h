// Consistency checking (§2.2): T ⊧ ∆ iff every two tuples agreeing on the
// lhs of an FD also agree on its rhs, plus the per-FD lhs grouping that
// violation enumeration (graph/conflict_graph.h), soft violation counting
// and the core-implicant U-repair read violations from.

#ifndef FDREPAIR_STORAGE_CONSISTENCY_H_
#define FDREPAIR_STORAGE_CONSISTENCY_H_

#include <cstdint>
#include <numeric>
#include <vector>

#include "catalog/fdset.h"
#include "storage/row_span.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace fdrepair {

/// True iff the view satisfies every FD of ∆: per FD, one sweep over the
/// rows that groups each by its lhs (GroupIndex, storage/row_span.h) and
/// stops at the first row whose rhs differs from its group's. O(|∆| · |T|)
/// expected time.
bool Satisfies(const TableView& view, const FdSet& fds);
bool Satisfies(const Table& table, const FdSet& fds);

/// The rows of a view grouped by one lhs through GroupIndex: groups in
/// first-appearance order, each group's members as view indices in
/// ascending order. Within a group, members with different rhs values
/// pairwise violate lhs → rhs. Reusable: Build keeps every buffer's
/// capacity. Not thread-safe.
class LhsGroups {
 public:
  /// Regroups the view indices i of `view` with keep(i) by `lhs` (an empty
  /// lhs makes one group); the fused local-ratio keeps only the rows it
  /// has not yet burnt.
  template <typename Keep>
  void Build(const TableView& view, AttrSet lhs, Keep keep);
  void Build(const TableView& view, AttrSet lhs) {
    Build(view, lhs, [](int) { return true; });
  }

  int size() const { return static_cast<int>(start_.size()) - 1; }
  const int* begin(int g) const { return order_.data() + start_[g]; }
  const int* end(int g) const { return order_.data() + start_[g + 1]; }
  int group_size(int g) const { return start_[g + 1] - start_[g]; }

  /// The pairs of group g's members that differ on `rhs`:
  /// C(|g|, 2) − Σ_value C(c_value, 2), in O(|g|).
  int64_t ViolatingPairs(const TableView& view, int g, AttrId rhs);

 private:
  GroupIndex index_;
  std::vector<int> group_of_;  // view index -> group, -1 when not kept
  std::vector<int> start_;     // group -> first offset into order_
  std::vector<int> order_;     // kept view indices, grouped
  DenseValueIndex rhs_values_;
  std::vector<int64_t> rhs_counts_;
};

template <typename Keep>
void LhsGroups::Build(const TableView& view, AttrSet lhs, Keep keep) {
  const int n = view.num_tuples();
  index_.Reset(view.table(), lhs, n);
  group_of_.assign(n, -1);
  int kept = 0;
  for (int i = 0; i < n; ++i) {
    if (!keep(i)) continue;
    ++kept;
    bool created = false;
    group_of_[i] = index_.FindOrCreate(view.row(i), &created);
  }
  // Counting scatter, filled back to front so members come out ascending
  // and each start_[g] ends on its group's first offset.
  start_.assign(index_.size() + 1, 0);
  for (int g : group_of_) {
    if (g >= 0) ++start_[g];
  }
  std::partial_sum(start_.begin(), start_.end(), start_.begin());
  order_.resize(kept);
  for (int i = n - 1; i >= 0; --i) {
    if (group_of_[i] >= 0) order_[--start_[group_of_[i]]] = i;
  }
}

/// True iff tuples t and s (jointly) satisfy ∆ — the pairwise test used by
/// fact-wise reductions.
bool PairConsistent(const Tuple& t, const Tuple& s, const FdSet& fds);

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_CONSISTENCY_H_
