#include "graph/bipartite_matching.h"

#include <algorithm>
#include <functional>
#include <limits>

namespace fdrepair {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Stable counting sort of the edge indices `in` by `edges[e].*key` ∈
/// [0, num_keys). Afterwards (*bucket)[k] is the end of key k's run in
/// `out` (and so the start of key k + 1's).
void CountingSort(const std::vector<BipartiteEdge>& edges,
                  int BipartiteEdge::*key, int num_keys,
                  const std::vector<int>& in, std::vector<int>* bucket,
                  std::vector<int>* out) {
  bucket->assign(num_keys + 1, 0);
  for (int e : in) ++(*bucket)[edges[e].*key + 1];
  for (int k = 0; k < num_keys; ++k) (*bucket)[k + 1] += (*bucket)[k];
  out->resize(in.size());
  for (int e : in) (*out)[(*bucket)[edges[e].*key]++] = e;
}

/// The solver's working set, reused across calls on one thread. Between
/// searches `dist` is +inf and `scanned` 0 everywhere; a search resets only
/// the columns it touched.
struct MatchingScratch {
  // Rows are left nodes, columns right nodes. Column num_right + i is row i's
  // private "stay unmatched" column (cost 0, dual 0): it is never stored,
  // only pushed on the heap when row i is scanned.
  int num_right = 0;
  // CSR over rows: positive-weight edges sorted by (left, right), one entry
  // per pair (the heaviest copy, lowest input index among equals).
  std::vector<int> row_begin;
  std::vector<int> col;
  std::vector<double> cost;  // −weight
  std::vector<int> input_index;
  std::vector<int> sort_a, sort_b, bucket;
  // Assignment: row → CSR position of its edge (−1: unmatched), column →
  // row (−1: free), column duals. Row duals stay implicit:
  // u_i = cost[match_pos[i]] − v[col of i].
  std::vector<int> match_pos, row_of;
  std::vector<double> v;
  std::vector<int> free_rows;
  // Dijkstra over columns.
  std::vector<double> dist;
  std::vector<char> scanned;
  std::vector<int> pred_row, pred_pos, touched, scanned_list;
  std::vector<std::pair<double, int>> heap;  // min-heap on (dist, column)

  void BuildCsr(int num_left, const std::vector<BipartiteEdge>& edges) {
    sort_a.clear();
    for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
      if (edges[e].weight > 0) sort_a.push_back(e);
    }
    CountingSort(edges, &BipartiteEdge::right, num_right, sort_a, &bucket,
                 &sort_b);
    CountingSort(edges, &BipartiteEdge::left, num_left, sort_b, &bucket,
                 &sort_a);
    row_begin.assign(num_left + 1, 0);
    col.clear();
    cost.clear();
    input_index.clear();
    for (int i = 0, p = 0; i < num_left; ++i) {
      row_begin[i] = static_cast<int>(col.size());
      for (; p < bucket[i]; ++p) {
        const int e = sort_a[p];
        const BipartiteEdge& edge = edges[e];
        if (static_cast<int>(col.size()) > row_begin[i] &&
            col.back() == edge.right) {
          if (-edge.weight < cost.back()) {
            cost.back() = -edge.weight;
            input_index.back() = e;
          }
          continue;
        }
        col.push_back(edge.right);
        cost.push_back(-edge.weight);
        input_index.push_back(e);
      }
    }
    row_begin[num_left] = static_cast<int>(col.size());
  }

  void Push(double d, int column) {
    heap.emplace_back(d, column);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }

  /// Relaxes row i's columns, its private column included: column k gets
  /// h + c_ik − v_k, where h is the distance of i's matched column minus
  /// u_i (0 for the search's free row).
  void ScanRow(int i, double h) {
    for (int p = row_begin[i]; p < row_begin[i + 1]; ++p) {
      const int k = col[p];
      if (scanned[k]) continue;
      const double d = h + cost[p] - v[k];
      if (d < dist[k]) {
        if (dist[k] == kInf) touched.push_back(k);
        dist[k] = d;
        pred_row[k] = i;
        pred_pos[k] = p;
        Push(d, k);
      }
    }
    Push(h, num_right + i);
  }

  /// One shortest augmenting path from the free row s. The search ends at
  /// the first free column popped — a free real column, or some scanned
  /// row's private column (that row becomes unmatched).
  void Augment(int s) {
    ScanRow(s, 0.0);
    int end = -1;
    double end_dist = 0;
    while (true) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [d, k] = heap.back();
      heap.pop_back();
      if (k < num_right && (scanned[k] || d > dist[k])) continue;  // stale
      if (k >= num_right || row_of[k] < 0) {
        end = k;
        end_dist = d;
        break;
      }
      scanned[k] = 1;
      scanned_list.push_back(k);
      const int i = row_of[k];
      ScanRow(i, d - (cost[match_pos[i]] - v[k]));
    }
    for (int k : scanned_list) v[k] += dist[k] - end_dist;
    // Shift the assignment back along the path to s.
    int c = end;
    int r = end >= num_right ? end - num_right : pred_row[end];
    while (true) {
      const int old = match_pos[r] >= 0 ? col[match_pos[r]] : -1;
      if (c >= num_right) {
        match_pos[r] = -1;
      } else {
        match_pos[r] = pred_pos[c];
        row_of[c] = r;
      }
      if (r == s) break;
      c = old;
      r = pred_row[c];
    }
    for (int k : touched) {
      dist[k] = kInf;
      scanned[k] = 0;
    }
    touched.clear();
    scanned_list.clear();
    heap.clear();
  }

  MatchingResult Solve(int num_left, int right_nodes,
                       const std::vector<BipartiteEdge>& edges) {
    num_right = right_nodes;
    BuildCsr(num_left, edges);
    if (dist.size() < static_cast<size_t>(num_right)) {
      dist.resize(num_right, kInf);
      scanned.resize(num_right, 0);
      pred_row.resize(num_right);
      pred_pos.resize(num_right);
    }
    // Greedy start under v = 0: a row takes its cheapest column (the lowest
    // among equals) when still free; every other row with edges stays free.
    match_pos.assign(num_left, -1);
    row_of.assign(num_right, -1);
    v.assign(num_right, 0.0);
    free_rows.clear();
    for (int i = 0; i < num_left; ++i) {
      if (row_begin[i] == row_begin[i + 1]) continue;
      int best = row_begin[i];
      for (int p = best + 1; p < row_begin[i + 1]; ++p) {
        if (cost[p] < cost[best]) best = p;
      }
      if (row_of[col[best]] < 0) {
        match_pos[i] = best;
        row_of[col[best]] = i;
      } else {
        free_rows.push_back(i);
      }
    }
    for (int i : free_rows) Augment(i);

    MatchingResult result;
    for (int i = 0; i < num_left; ++i) {
      const int p = match_pos[i];
      if (p < 0) continue;
      result.pairs.emplace_back(i, col[p]);
      result.edge_indices.push_back(input_index[p]);
      result.total_weight += -cost[p];
    }
    return result;
  }
};

}  // namespace

MatchingResult MaxWeightBipartiteMatching(
    int num_left, int num_right, const std::vector<BipartiteEdge>& edges) {
  FDR_CHECK(num_left >= 0 && num_right >= 0);
  for (const BipartiteEdge& edge : edges) {
    FDR_CHECK_MSG(edge.left >= 0 && edge.left < num_left,
                  "left=" << edge.left);
    FDR_CHECK_MSG(edge.right >= 0 && edge.right < num_right,
                  "right=" << edge.right);
  }
  thread_local MatchingScratch scratch;
  return scratch.Solve(num_left, num_right, edges);
}

namespace {

void BruteForceSearch(const std::vector<BipartiteEdge>& edges, size_t index,
                      uint64_t used_left, uint64_t used_right, double weight,
                      std::vector<int>* chosen, double* best_weight,
                      std::vector<int>* best_chosen) {
  if (index == edges.size()) {
    if (weight > *best_weight) {
      *best_weight = weight;
      *best_chosen = *chosen;
    }
    return;
  }
  const BipartiteEdge& edge = edges[index];
  // Take the edge if both endpoints are free.
  if (!((used_left >> edge.left) & 1) && !((used_right >> edge.right) & 1)) {
    chosen->push_back(static_cast<int>(index));
    BruteForceSearch(edges, index + 1, used_left | (uint64_t{1} << edge.left),
                     used_right | (uint64_t{1} << edge.right),
                     weight + edge.weight, chosen, best_weight, best_chosen);
    chosen->pop_back();
  }
  // Skip the edge.
  BruteForceSearch(edges, index + 1, used_left, used_right, weight, chosen,
                   best_weight, best_chosen);
}

}  // namespace

StatusOr<MatchingResult> MaxWeightMatchingBruteForce(
    int num_left, int num_right, const std::vector<BipartiteEdge>& edges) {
  if (edges.size() > 20) {
    return Status::ResourceExhausted(
        "brute-force matching limited to 20 edges");
  }
  if (num_left > 64 || num_right > 64) {
    return Status::ResourceExhausted(
        "brute-force matching limited to 64 nodes per side");
  }
  double best_weight = 0;
  std::vector<int> chosen;
  std::vector<int> best_chosen;
  BruteForceSearch(edges, 0, 0, 0, 0.0, &chosen, &best_weight, &best_chosen);
  MatchingResult result;
  result.total_weight = best_weight;
  for (int index : best_chosen) {
    result.pairs.emplace_back(edges[index].left, edges[index].right);
    result.edge_indices.push_back(index);
  }
  return result;
}

}  // namespace fdrepair
