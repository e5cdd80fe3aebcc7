#include "mpd/mpd.h"

#include <cmath>
#include <limits>

#include "srepair/soft_repair.h"
#include "storage/consistency.h"
#include "storage/table_view.h"

namespace fdrepair {

Status ValidateProbabilisticTable(const Table& table) {
  for (int row = 0; row < table.num_tuples(); ++row) {
    double p = table.weight(row);
    if (!(p > 0.0) || p > 1.0) {
      return Status::InvalidArgument(
          "probabilistic table requires weights in (0, 1]; tuple id " +
          std::to_string(table.id(row)) + " has " + std::to_string(p));
    }
  }
  return Status::OK();
}

double SubsetLogProbability(const Table& table,
                            const std::vector<int>& kept_rows) {
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) kept[row] = 1;
  double log_probability = 0;
  for (int row = 0; row < table.num_tuples(); ++row) {
    double p = table.weight(row);
    if (kept[row]) {
      log_probability += std::log(p);
    } else if (p >= 1.0) {
      return -std::numeric_limits<double>::infinity();
    } else {
      log_probability += std::log1p(-p);
    }
  }
  return log_probability;
}

StatusOr<MpdResult> MostProbableDatabase(const FdSet& fds, const Table& table,
                                         const MpdOptions& options) {
  FDR_RETURN_IF_ERROR(ValidateProbabilisticTable(table));

  // Partition rows: certain (p = 1), discardable (p <= 0.5), contended.
  std::vector<int> certain_rows;
  std::vector<int> contended_rows;
  for (int row = 0; row < table.num_tuples(); ++row) {
    double p = table.weight(row);
    if (p >= 1.0) {
      certain_rows.push_back(row);
    } else if (p > 0.5) {
      contended_rows.push_back(row);
    }
    // p <= 0.5: always removed.
  }

  // If certain tuples conflict, every consistent subset has probability 0.
  Table certain = table.SubsetByRows(certain_rows);
  if (!Satisfies(certain, fds)) {
    Table empty = table.SubsetByRows({});
    MpdResult result{std::move(empty),
                     -std::numeric_limits<double>::infinity(), false};
    return result;
  }

  // Reweighted instance: log-odds for contended tuples; certain tuples get
  // a weight exceeding the total contended weight, so no optimal (or
  // 2-optimal) S-repair ever deletes one.
  Table reweighted(table.schema(), table.pool());
  double contended_total = 0;
  for (int row : contended_rows) {
    double p = table.weight(row);
    contended_total += std::log(p / (1.0 - p));
  }
  double certain_weight = contended_total + 1.0;
  for (int row : certain_rows) {
    FDR_RETURN_IF_ERROR(reweighted.AddInternedTupleWithId(
        table.id(row), table.tuple(row), certain_weight));
  }
  for (int row : contended_rows) {
    double p = table.weight(row);
    FDR_RETURN_IF_ERROR(reweighted.AddInternedTupleWithId(
        table.id(row), table.tuple(row), std::log(p / (1.0 - p))));
  }

  SRepairOptions srepair_options;
  srepair_options.strategy = options.strategy;
  srepair_options.exact_guard = options.exact_guard;
  FDR_ASSIGN_OR_RETURN(SRepairResult repair,
                       ComputeSRepair(fds, reweighted, srepair_options));

  // Map kept identifiers back to the original rows.
  std::vector<int> kept_rows;
  for (int row = 0; row < repair.repair.num_tuples(); ++row) {
    FDR_ASSIGN_OR_RETURN(int original_row,
                         table.RowOf(repair.repair.id(row)));
    kept_rows.push_back(original_row);
  }
  MpdResult result{table.SubsetByRows(kept_rows),
                   SubsetLogProbability(table, kept_rows), true};
  return result;
}

StatusOr<MpdResult> MostProbableDatabaseBruteForce(const FdSet& fds,
                                                   const Table& table,
                                                   int max_rows) {
  FDR_RETURN_IF_ERROR(ValidateProbabilisticTable(table));
  int n = table.num_tuples();
  if (n > max_rows) {
    return Status::ResourceExhausted("brute-force MPD limited to " +
                                     std::to_string(max_rows) + " rows");
  }
  double best_log_probability = -std::numeric_limits<double>::infinity();
  std::vector<int> best_rows;
  bool feasible = false;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<int> rows;
    for (int row = 0; row < n; ++row) {
      if ((mask >> row) & 1) rows.push_back(row);
    }
    if (!Satisfies(table.SubsetByRows(rows), fds)) continue;
    double log_probability = SubsetLogProbability(table, rows);
    if (!feasible || log_probability > best_log_probability) {
      best_log_probability = log_probability;
      best_rows = rows;
      feasible = true;
    }
  }
  // The empty subset is always consistent, so `feasible` is set; it stays
  // "infeasible" in the MPD sense only when the best probability is 0.
  bool positive = best_log_probability >
                  -std::numeric_limits<double>::infinity();
  MpdResult result{table.SubsetByRows(best_rows), best_log_probability,
                   positive};
  return result;
}

double SoftSubsetLogProbability(const FdSet& fds, const Table& table,
                                const std::vector<int>& kept_rows) {
  double log_probability = SubsetLogProbability(table, kept_rows);
  if (log_probability == -std::numeric_limits<double>::infinity()) {
    return log_probability;
  }
  Table kept = table.SubsetByRows(kept_rows);
  return log_probability - SoftViolationCost(fds, TableView(kept));
}

StatusOr<MpdResult> MostProbableDatabaseSoft(const FdSet& fds,
                                             const Table& table,
                                             const MpdOptions& options) {
  FDR_RETURN_IF_ERROR(ValidateProbabilisticTable(table));

  // Same partition as the hard reduction. Dropping p <= 0.5 tuples stays
  // safe in the noisy model: removal never lowers log Pr and can only
  // shed violation penalties.
  std::vector<int> certain_rows;
  std::vector<int> contended_rows;
  for (int row = 0; row < table.num_tuples(); ++row) {
    double p = table.weight(row);
    if (p >= 1.0) {
      certain_rows.push_back(row);
    } else if (p > 0.5) {
      contended_rows.push_back(row);
    }
  }

  // Only a *hard* conflict among certain tuples forces probability 0;
  // soft violations between them are merely penalized.
  Table certain = table.SubsetByRows(certain_rows);
  if (!Satisfies(certain, fds.HardPart())) {
    Table empty = table.SubsetByRows({});
    MpdResult result{std::move(empty),
                     -std::numeric_limits<double>::infinity(), false};
    return result;
  }

  Table reweighted(table.schema(), table.pool());
  double contended_total = 0;
  for (int row : contended_rows) {
    double p = table.weight(row);
    contended_total += std::log(p / (1.0 - p));
  }
  // Certain tuples must survive the soft repair: their weight exceeds every
  // saving a deletion could buy — all contended log-odds plus every soft
  // penalty the full table can incur.
  double certain_weight =
      contended_total + SoftViolationCost(fds, TableView(table)) + 1.0;
  for (int row : certain_rows) {
    FDR_RETURN_IF_ERROR(reweighted.AddInternedTupleWithId(
        table.id(row), table.tuple(row), certain_weight));
  }
  for (int row : contended_rows) {
    double p = table.weight(row);
    FDR_RETURN_IF_ERROR(reweighted.AddInternedTupleWithId(
        table.id(row), table.tuple(row), std::log(p / (1.0 - p))));
  }

  // The default strategy (kAuto), not options.strategy: soft MPD answers
  // by the soft planner's own auto-routing, all-hard ∆ included.
  SRepairOptions soft_options;
  soft_options.exact_guard = options.exact_guard;
  FDR_ASSIGN_OR_RETURN(SoftRepairResult repair,
                       ComputeSoftRepair(fds, reweighted, soft_options));

  std::vector<int> kept_rows;
  for (int row = 0; row < repair.repair.num_tuples(); ++row) {
    FDR_ASSIGN_OR_RETURN(int original_row,
                         table.RowOf(repair.repair.id(row)));
    kept_rows.push_back(original_row);
  }
  MpdResult result{table.SubsetByRows(kept_rows),
                   SoftSubsetLogProbability(fds, table, kept_rows), true};
  return result;
}

StatusOr<MpdResult> MostProbableDatabaseSoftBruteForce(const FdSet& fds,
                                                       const Table& table,
                                                       int max_rows) {
  FDR_RETURN_IF_ERROR(ValidateProbabilisticTable(table));
  int n = table.num_tuples();
  if (n > max_rows) {
    return Status::ResourceExhausted("brute-force soft MPD limited to " +
                                     std::to_string(max_rows) + " rows");
  }
  const FdSet hard = fds.HardPart();
  double best = -std::numeric_limits<double>::infinity();
  std::vector<int> best_rows;
  bool any = false;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<int> rows;
    for (int row = 0; row < n; ++row) {
      if ((mask >> row) & 1) rows.push_back(row);
    }
    if (!Satisfies(table.SubsetByRows(rows), hard)) continue;
    double penalized = SoftSubsetLogProbability(fds, table, rows);
    if (!any || penalized > best) {
      best = penalized;
      best_rows = rows;
      any = true;
    }
  }
  bool positive = best > -std::numeric_limits<double>::infinity();
  MpdResult result{table.SubsetByRows(best_rows), best, positive};
  return result;
}

}  // namespace fdrepair
