#include "srepair/soft_repair.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "srepair/solver_backend.h"
#include "storage/distance.h"

namespace fdrepair {
namespace {

constexpr double kEps = 1e-9;
/// Auto-routed "ilp" cores self-limit exactly like the hard planner's
/// kAuto fallback (planner.cc): structured instances prove optimality in
/// tens of nodes; dense ones degrade to the factor-3 incumbent.
constexpr long kAutoSoftNodeBudget = 2000;

/// Accumulated provenance across the peel recursion.
struct SoftAggregate {
  double lower_bound = 0;
  bool optimal = true;
  double ratio_bound = 1.0;
  int peels = 0;
  int cores = 0;
  std::vector<std::string> backends;  // unique, in first-use order

  void NoteBackend(const std::string& name) {
    for (const std::string& seen : backends) {
      if (seen == name) return;
    }
    backends.push_back(name);
  }
};

/// One violating pair's accumulated price: hard if any hard FD fires on
/// it (deletion is then forced, so soft penalties on the same pair are
/// moot), otherwise the soft weights add.
struct PairInfo {
  double penalty = 0;
  bool hard = false;
};

/// Enumerates every violating pair of `fds` within the view, keyed by
/// view-local (i, j) with i < j. std::map iteration order makes the core
/// graph construction deterministic.
std::map<std::pair<int, int>, PairInfo> CollectViolatingPairs(
    const FdSet& fds, const TableView& view) {
  std::map<std::pair<int, int>, PairInfo> pairs;
  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    GroupedRows groups = view.GroupRows(fd.lhs);
    // GroupRows returns *dense* positions; remap to view-local indices.
    std::unordered_map<int, int> local;
    local.reserve(view.num_tuples());
    for (int i = 0; i < view.num_tuples(); ++i) local[view.row(i)] = i;
    for (const std::vector<int>& group : groups.rows) {
      for (size_t a = 0; a < group.size(); ++a) {
        for (size_t b = a + 1; b < group.size(); ++b) {
          const int ia = local[group[a]];
          const int ib = local[group[b]];
          if (view.table().value(group[a], fd.rhs) ==
              view.table().value(group[b], fd.rhs)) {
            continue;
          }
          auto key = std::minmax(ia, ib);
          PairInfo& info = pairs[{key.first, key.second}];
          if (fd.IsHard()) {
            info.hard = true;
          } else {
            info.penalty += fd.weight;
          }
        }
      }
    }
  }
  return pairs;
}

struct BlockSolve {
  std::vector<int> kept;  // dense row positions, ascending
};

Status SolveSoftView(const FdSet& fds, const TableView& view,
                     const SRepairOptions& options, SoftAggregate* agg,
                     BlockSolve* out);

/// The soft conflicted core: solve the pair instance with a registry
/// backend and complement back to kept rows.
Status SolveSoftCore(const FdSet& fds, const TableView& view,
                     const SRepairOptions& options, SoftAggregate* agg,
                     BlockSolve* out) {
  std::map<std::pair<int, int>, PairInfo> pairs =
      CollectViolatingPairs(fds, view);
  if (pairs.empty()) {
    out->kept = view.rows();
    std::sort(out->kept.begin(), out->kept.end());
    return Status::OK();
  }
  ++agg->cores;
  // Conflicted core: only nodes with at least one violating pair matter;
  // isolated tuples are always kept for free.
  std::vector<int> core;
  std::vector<int> core_index(view.num_tuples(), -1);
  for (const auto& [key, info] : pairs) {
    for (int node : {key.first, key.second}) {
      if (core_index[node] < 0) {
        core_index[node] = static_cast<int>(core.size());
        core.push_back(node);
      }
    }
  }
  NodeWeightedGraph graph(static_cast<int>(core.size()));
  for (size_t c = 0; c < core.size(); ++c) {
    graph.set_weight(static_cast<int>(c), view.weight(core[c]));
  }
  std::vector<double> penalties;
  penalties.reserve(pairs.size());
  for (const auto& [key, info] : pairs) {
    graph.AddEdge(core_index[key.first], core_index[key.second]);
    penalties.push_back(info.hard ? kHardFdWeight : info.penalty);
  }

  const SolverBackend* backend = nullptr;
  SolverExec exec;
  exec.deadline = options.exec.deadline;
  exec.node_budget = options.node_budget;
  if (!options.backend.empty()) {
    backend = FindSolverBackend(options.backend);
    if (backend == nullptr) {
      return Status::InvalidArgument("unknown solver backend '" +
                                     options.backend + "'");
    }
  } else if (static_cast<int>(core.size()) <= options.exact_guard) {
    backend = FindSolverBackend(kSolverBnb);
  } else {
    backend = FindSolverBackend(kSolverIlp);
    if (options.node_budget < 0) exec.node_budget = kAutoSoftNodeBudget;
  }
  FDR_CHECK(backend != nullptr);
  FDR_ASSIGN_OR_RETURN(SolverCover cover,
                       backend->SolveSoftCover(graph, penalties, exec));
  agg->NoteBackend(backend->name());
  agg->lower_bound += cover.lower_bound;
  agg->optimal = agg->optimal && cover.optimal;
  agg->ratio_bound = std::max(agg->ratio_bound, cover.ratio_bound);

  std::vector<char> deleted(view.num_tuples(), 0);
  for (int c : cover.cover) deleted[core[c]] = 1;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (!deleted[i]) out->kept.push_back(view.row(i));
  }
  std::sort(out->kept.begin(), out->kept.end());
  return Status::OK();
}

Status SolveSoftView(const FdSet& fds, const TableView& view,
                     const SRepairOptions& options, SoftAggregate* agg,
                     BlockSolve* out) {
  if (options.exec.has_deadline() &&
      std::chrono::steady_clock::now() >= options.exec.deadline) {
    return Status::DeadlineExceeded("soft-repair deadline expired");
  }
  const FdSet active = fds.WithoutTrivial();
  if (active.empty() || view.num_tuples() <= 1) {
    out->kept = view.rows();
    std::sort(out->kept.begin(), out->kept.end());
    return Status::OK();
  }
  // The weighted common-lhs simplification: an attribute in EVERY lhs
  // (hard and soft alike) makes σ_{A=a} blocks independent even for the
  // soft objective — any violating pair agrees on the block attribute.
  if (std::optional<AttrId> attr = active.FindCommonLhsAttr()) {
    ++agg->peels;
    const FdSet reduced = active.MinusAttrs(AttrSet().With(*attr));
    for (const TableView& block : view.GroupBy(AttrSet().With(*attr))) {
      BlockSolve block_solve;
      FDR_RETURN_IF_ERROR(
          SolveSoftView(reduced, block, options, agg, &block_solve));
      out->kept.insert(out->kept.end(), block_solve.kept.begin(),
                       block_solve.kept.end());
    }
    std::sort(out->kept.begin(), out->kept.end());
    return Status::OK();
  }
  return SolveSoftCore(active, view, options, agg, out);
}

}  // namespace

double SoftViolationCost(const FdSet& fds, const TableView& view) {
  double cost = 0;
  for (const Fd& fd : fds.fds()) {
    if (!fd.IsSoft() || fd.IsTrivial()) continue;
    GroupedRows groups = view.GroupRows(fd.lhs);
    for (const std::vector<int>& group : groups.rows) {
      // Violating pairs = C(g, 2) − Σ_value C(c_value, 2).
      const double g = static_cast<double>(group.size());
      double same = 0;
      std::unordered_map<ValueId, double> counts;
      for (int row : group) {
        counts[view.table().value(row, fd.rhs)] += 1;
      }
      for (const auto& [value, c] : counts) same += c * (c - 1) / 2;
      cost += fd.weight * (g * (g - 1) / 2 - same);
    }
  }
  return cost;
}

StatusOr<SoftRepairResult> ComputeSoftRepair(const FdSet& fds,
                                             const Table& table,
                                             const SRepairOptions& options) {
  if (!fds.HasSoftFds()) {
    // ω ≡ ∞: soft repairing IS subset repairing. Delegating wholesale —
    // same routing, same span recursion, same backends, same thread
    // fan-out — is what makes the pin bit-identical by construction.
    FDR_ASSIGN_OR_RETURN(SRepairResult result,
                         ComputeSRepair(fds, table, options));
    SoftRepairResult out{std::move(result.repair)};
    out.cost = result.distance;
    out.deleted_weight = result.distance;
    out.violation_cost = 0;
    out.optimal = result.optimal;
    out.ratio_bound = result.ratio_bound;
    out.route =
        std::string("soft[") + SRepairAlgorithmToString(result.algorithm) +
        "]";
    out.backend = result.backend;
    out.lower_bound = result.lower_bound;
    out.achieved_ratio = result.achieved_ratio;
    return out;
  }

  const TableView view(table);
  SoftAggregate agg;
  BlockSolve solve;
  FDR_RETURN_IF_ERROR(SolveSoftView(fds, view, options, &agg, &solve));

  SoftRepairResult out{table.SubsetByRows(solve.kept)};
  FDR_ASSIGN_OR_RETURN(out.deleted_weight, DistSub(out.repair, table));
  out.violation_cost = SoftViolationCost(fds, TableView(out.repair));
  out.cost = out.deleted_weight + out.violation_cost;
  out.optimal = agg.optimal;
  out.ratio_bound = agg.optimal ? 1.0 : agg.ratio_bound;
  const double proved = agg.optimal ? out.cost : agg.lower_bound;
  out.lower_bound = proved;
  out.achieved_ratio =
      proved > kEps ? std::max(1.0, out.cost / proved) : 1.0;
  {
    std::ostringstream route;
    route << "soft[peels=" << agg.peels << ",cores=" << agg.cores << "]";
    out.route = route.str();
  }
  for (const std::string& name : agg.backends) {
    if (!out.backend.empty()) out.backend += "+";
    out.backend += name;
  }
  if (options.max_ratio > 0) {
    const double certified = std::min(out.ratio_bound, out.achieved_ratio);
    if (certified > options.max_ratio + kEps) {
      return Status::ResourceExhausted(
          "repair certified only within ratio " + std::to_string(certified) +
          ", above the requested max_ratio " +
          std::to_string(options.max_ratio));
    }
  }
  return out;
}

}  // namespace fdrepair
