// The generalized (prize-collecting) vertex-cover instance behind soft
// S-repairs.
//
// A soft conflict graph has node weights (tuple deletion costs) and per-
// edge penalties: a hard edge (penalty = ∞, i.e. kHardFdWeight) must be
// covered by deleting an endpoint, while a soft edge may instead be left
// uncovered for its penalty. The objective is
//
//   min  Σ_{v deleted} w_v + Σ_{e uncovered} p_e
//   s.t. every hard edge has a deleted endpoint.
//
// Per uncovered-edge indicator y_e this is the covering program with the
// 3-ary constraints x_u + x_v + y_e ≥ 1 — NOT plain vertex cover (no
// 2-uniform gadget expresses the penalty choice), which is why the soft
// planner cannot reuse SolveCover directly. Both solvers below follow the
// local-ratio template on those 3-ary constraints: each constraint burns
// ε = min(residual_u, residual_v, residual_e) off its three items, the
// total burn is a feasible dual packing (≤ OPT), and a solution whose
// paid items are all residual-zero costs at most 3 · burn.
//
// Conversely, plain vertex cover is the instance whose penalties are all
// ∞ (a hard FD is the ω = ∞ case of a soft one): its burn is the Bar-
// Yehuda–Even edge packing and its bound tightens to 2 · burn. So the
// keep/delete search below is also the "bnb" backend's exact search on
// hard conflict graphs.

#ifndef FDREPAIR_SREPAIR_SOFT_COVER_H_
#define FDREPAIR_SREPAIR_SOFT_COVER_H_

#include <vector>

#include "graph/graph.h"
#include "srepair/solver_backend.h"

namespace fdrepair {

// Both solvers return a SolverCover (solver_backend.h): `cover` lists the
// deleted nodes, `weight` is their weight and `penalty` sums the
// penalties of the edges `cover` leaves untouched; the objective is
// weight + penalty, and `lower_bound` / `ratio_bound` refer to it.

/// The local-ratio primal-dual 3-approximation: one pass over the edges in
/// index order burning the 3-ary constraints, then a greedy improvement
/// pass that un-deletes nodes whose weight exceeds the penalties their
/// return would incur (never breaking a hard edge). Deterministic; O(n·m)
/// worst case from the improvement pass. `penalties` aligns with
/// graph.edges(); kHardFdWeight marks a hard edge.
SolverCover SoftCoverLocalRatio(const NodeWeightedGraph& graph,
                                const std::vector<double>& penalties);

/// Exact branch and bound over per-node keep/delete decisions. Keeping a
/// node force-deletes its undecided hard neighbors and prices its soft
/// edges to already-kept neighbors; every search node is pruned against
/// the incumbent with the residual-instance burn bound. The incumbent is
/// seeded with SoftCoverLocalRatio, so a truncated run (deadline or
/// exec.node_budget expiry, including a deadline already past on entry)
/// still returns a factor-3 solution (factor 2 when every edge is hard)
/// with the root bound as `lower_bound`. With `use_lp_bound`, the root
/// bound also takes the exact half-integral vertex-cover LP of the
/// hard-edge subgraph (graph/vc_lp.h) — the "ilp" flavor, strictly
/// stronger on hard-dominated instances. Exact (optimal = true) when the
/// search completes.
SolverCover SoftCoverBranchAndBound(const NodeWeightedGraph& graph,
                                    const std::vector<double>& penalties,
                                    const SolverExec& exec, bool use_lp_bound);

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_SOFT_COVER_H_
