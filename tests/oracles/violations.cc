#include "oracles/violations.h"

#include <unordered_map>

namespace fdrepair {

std::vector<Violation> FindViolations(const TableView& view, const FdSet& fds) {
  std::vector<Violation> out;
  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    // Group rows by lhs projection; within a group, tuples with different
    // rhs values pairwise violate the FD.
    std::unordered_map<ProjectionKey, std::vector<int>, ProjectionKeyHash>
        groups;
    for (int i = 0; i < view.num_tuples(); ++i) {
      groups[ProjectRow(view.table(), view.row(i), fd.lhs)].push_back(i);
    }
    for (const auto& [key, members] : groups) {
      for (size_t a = 0; a < members.size(); ++a) {
        for (size_t b = a + 1; b < members.size(); ++b) {
          int i = members[a];
          int j = members[b];
          if (view.value(i, fd.rhs) != view.value(j, fd.rhs)) {
            out.push_back(Violation{view.row(i), view.row(j), fd});
          }
        }
      }
    }
  }
  return out;
}

}  // namespace fdrepair
