// soft — Soft/weighted FDs: pricing violations against deletions.
//
// Report: a noise × weight-profile sweep of the soft planner on the
// running example. The all-hard (ω ≡ ∞) column is pinned against
// OptSRepairRows — FDR_CHECK aborts the bench if the delegation ever
// drifts from the subset planner — and the tracked metrics gate both the
// soft planner's throughput and the "softening never costs more than
// deleting" invariant (light-profile cost / hard cost must stay <= 1).

#include <string>
#include <vector>

#include "report_util.h"
#include "common/random.h"
#include "srepair/opt_srepair.h"
#include "srepair/soft_repair.h"
#include "srepair/solver_backend.h"
#include "storage/table_view.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

using benchreport::Banner;
using benchreport::JsonReport;
using benchreport::Num;
using benchreport::ReportTable;
using benchreport::SmokeCap;

struct WeightProfile {
  std::string name;
  double weight;  // applied to every FD; kHardFdWeight = the hard column
};

FdSet Weighted(const FdSet& fds, double weight) {
  std::vector<double> weights(fds.size(), weight);
  auto result = fds.WithWeights(weights);
  FDR_CHECK(result.ok());
  return *result;
}

double TimeSoftMs(const FdSet& fds, const Table& table) {
  auto start = std::chrono::steady_clock::now();
  auto result = ComputeSoftRepair(fds, table);
  FDR_CHECK(result.ok());
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Report() {
  Banner("soft", "Soft FDs — deletion cost vs weighted violations");
  ParsedFdSet parsed = OfficeFds();
  const int n = static_cast<int>(SmokeCap(600, 200));
  const std::vector<int> noise_levels = {0, n / 50, n / 10};
  const std::vector<WeightProfile> profiles = {
      {"hard (ω=∞)", kHardFdWeight},
      {"heavy (ω=4)", 4.0},
      {"light (ω=0.05)", 0.05},
  };

  ReportTable sweep({"noise", "profile", "kept", "cost", "deleted",
                     "violations", "route"});
  double hard_cost_at_max_noise = 0;
  double light_cost_at_max_noise = 0;
  double light_ms_at_max_noise = 0;
  Rng rng(2718);
  for (int noise : noise_levels) {
    PlantedTableOptions toptions;
    toptions.num_tuples = n;
    toptions.num_entities = n / 10 + 1;
    toptions.corruptions = noise;
    toptions.heavy_fraction = 0.3;
    Rng table_rng = rng.Fork();
    Table table = PlantedDirtyTable(parsed.schema, parsed.fds, toptions,
                                    &table_rng);
    for (const WeightProfile& profile : profiles) {
      FdSet fds = Weighted(parsed.fds, profile.weight);
      double ms = TimeSoftMs(fds, table);
      auto result = ComputeSoftRepair(fds, table);
      FDR_CHECK(result.ok());
      if (profile.weight == kHardFdWeight) {
        // The ω ≡ ∞ pin: the delegation must reproduce OptSRepairRows
        // exactly — same kept rows, not merely the same cost.
        auto rows = OptSRepairRows(parsed.fds, TableView(table));
        FDR_CHECK(rows.ok());
        FDR_CHECK_MSG(
            static_cast<int>(rows->size()) == result->repair.num_tuples(),
            "all-hard soft repair kept " << result->repair.num_tuples()
                                         << " rows, OptSRepairRows kept "
                                         << rows->size());
        for (size_t i = 0; i < rows->size(); ++i) {
          FDR_CHECK(table.id((*rows)[i]) == result->repair.id(static_cast<int>(i)));
        }
        if (noise == noise_levels.back()) {
          hard_cost_at_max_noise = result->cost;
        }
      } else if (profile.weight == 0.05 && noise == noise_levels.back()) {
        light_cost_at_max_noise = result->cost;
        light_ms_at_max_noise = ms;
      }
      sweep.AddRow({Num(noise), profile.name,
                    Num(result->repair.num_tuples()), Num(result->cost),
                    Num(result->deleted_weight), Num(result->violation_cost),
                    result->route});
    }
  }
  sweep.Print();
  std::cout << "(hard rows FDR_CHECK-pinned against OptSRepairRows)\n";

  JsonReport::Get().Add("soft.office_us_per_tuple",
                        light_ms_at_max_noise * 1000.0 / n, "us/tuple");
  // Softening can never cost more than repairing hard: keeping the hard
  // optimum is always feasible at zero violation cost. Gate the ratio so
  // the soft planner can never quietly regress past that theory bar.
  double ratio = hard_cost_at_max_noise > 0
                     ? light_cost_at_max_noise / hard_cost_at_max_noise
                     : 1.0;
  JsonReport::Get().Add("soft.light_cost_over_hard", ratio, "ratio");
  std::cout << "light-profile cost / hard cost at max noise: " << Num(ratio)
            << " (must stay <= 1)\n";

  // Soft conflicted cores through each soft-capable backend: the exact
  // backends must agree; local-ratio stays within its factor-3 template.
  Banner("soft", "Soft cores across solver backends");
  ParsedFdSet core_parsed = DeltaAtoCfromB();
  ReportTable cores({"backend", "cost", "optimal", "certified ratio"});
  RandomTableOptions coptions;
  coptions.num_tuples = static_cast<int>(SmokeCap(60, 30));
  coptions.domain_size = 3;
  coptions.heavy_fraction = 0.4;
  Rng core_rng(4242);
  Table core_table = RandomTable(core_parsed.schema, coptions, &core_rng);
  FdSet core_fds = Weighted(core_parsed.fds, 1.5);
  double exact_cost = -1;
  for (const char* backend : {kSolverLocalRatio, kSolverBnb, kSolverIlp}) {
    SRepairOptions options;
    options.backend = backend;
    auto result = ComputeSoftRepair(core_fds, core_table, options);
    FDR_CHECK(result.ok());
    cores.AddRow({backend, Num(result->cost),
                  result->optimal ? "yes" : "no",
                  Num(result->achieved_ratio)});
    if (result->optimal) {
      if (exact_cost < 0) exact_cost = result->cost;
      FDR_CHECK_MSG(std::abs(result->cost - exact_cost) < 1e-6,
                    "exact backends disagree: " << result->cost << " vs "
                                                << exact_cost);
    }
  }
  cores.Print();
}

void BM_SoftRepairOffice(benchmark::State& state) {
  ParsedFdSet parsed = OfficeFds();
  int n = static_cast<int>(state.range(0));
  PlantedTableOptions toptions;
  toptions.num_tuples = n;
  toptions.num_entities = n / 10 + 1;
  toptions.corruptions = n / 10;
  Rng rng(31 + n);
  Table table = PlantedDirtyTable(parsed.schema, parsed.fds, toptions, &rng);
  FdSet fds = Weighted(parsed.fds, 0.5);
  for (auto _ : state) {
    auto result = ComputeSoftRepair(fds, table);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SoftRepairOffice)
    ->RangeMultiplier(4)
    ->Range(256, benchreport::SmokeCap(16384, 1024))
    ->Unit(benchmark::kMillisecond);

void BM_SoftCoreIlp(benchmark::State& state) {
  ParsedFdSet parsed = DeltaAtoCfromB();
  int n = static_cast<int>(state.range(0));
  RandomTableOptions toptions;
  toptions.num_tuples = n;
  toptions.domain_size = 4;
  Rng rng(53 + n);
  Table table = RandomTable(parsed.schema, toptions, &rng);
  FdSet fds = Weighted(parsed.fds, 1.5);
  SRepairOptions options;
  options.backend = kSolverIlp;
  for (auto _ : state) {
    auto result = ComputeSoftRepair(fds, table, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SoftCoreIlp)
    ->RangeMultiplier(2)
    ->Range(16, benchreport::SmokeCap(128, 64))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fdrepair

FDR_BENCH_MAIN(fdrepair::Report)
