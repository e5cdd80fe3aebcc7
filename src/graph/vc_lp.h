// The LP relaxation of minimum-weight vertex cover, solved exactly.
//
//   min Σ_v w_v·x_v   s.t.  x_u + x_v >= 1 for every edge, x >= 0.
//
// Two classic facts power the hard-side solver backends (srepair/):
//
//  - Half-integrality (Nemhauser–Trotter): the LP has an optimal solution
//    with x_v ∈ {0, ½, 1}, computable in polynomial time by a minimum cut
//    on the bipartite doubling of the graph (left copy L_v, right copy
//    R_v, arcs L_u–R_v and L_v–R_u per edge; s→L_v and R_v→t with
//    capacity w_v). We run an in-tree Dinic max-flow — no external solver.
//
//  - NT persistency: there is an *integral* optimum containing every
//    vertex with x_v = 1 and avoiding every vertex with x_v = 0, so the
//    search can be confined to the kernel {v : x_v = ½}, and
//    opt(G) = w(P1) + opt(G[kernel]).
//
// The LP value is a lower bound on the integral optimum. The local-ratio
// burn (graph/vertex_cover.h) is a cheaper (one pass, no max-flow) under-
// approximation of it: a feasible edge packing of the LP dual.

#ifndef FDREPAIR_GRAPH_VC_LP_H_
#define FDREPAIR_GRAPH_VC_LP_H_

#include <vector>

#include "graph/graph.h"

namespace fdrepair {

/// The half-integral LP optimum, as the Nemhauser–Trotter decomposition.
struct VcLpSolution {
  /// x_v in {0.0, 0.5, 1.0} per node; an optimal LP solution.
  std::vector<double> x;
  /// Σ w_v·x_v — the LP optimum, a lower bound on the min-weight cover.
  double value = 0;
  /// Nodes with x_v = 1: some optimal integral cover contains all of them.
  std::vector<int> ones;
  /// Nodes with x_v = ½: the kernel the integral search is confined to.
  std::vector<int> halves;
};

/// Solves the vertex-cover LP exactly (half-integral optimum) via max-flow
/// on the bipartite doubling. O(V·E²) worst case, far less in practice.
VcLpSolution SolveVcLp(const NodeWeightedGraph& graph);

}  // namespace fdrepair

#endif  // FDREPAIR_GRAPH_VC_LP_H_
