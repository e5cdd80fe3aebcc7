// E12 — Parallel block-sharded repair engine. OptSRepair's recursion
// decomposes every tractable instance into independent blocks (Algorithm 1);
// the engine runs those blocks — and whole batches of (∆, T) jobs — on a
// work-stealing pool. Report: wall-clock and speedup at 1/2/4/8 threads on
// the Theorem 3.2 scaling families, bit-identical-results check, and the
// batch serving shape (many jobs, per-job deadlines). Target: ≥2× at 4
// threads on ≥4-core hardware.

#include <chrono>
#include <thread>

#include "report_util.h"
#include "common/random.h"
#include "engine/repair_engine.h"
#include "engine/thread_pool.h"
#include "srepair/opt_srepair.h"
#include "storage/consistency.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

using benchreport::Banner;
using benchreport::JsonReport;
using benchreport::Num;
using benchreport::ReportTable;

double TimeRepairMs(const FdSet& fds, const TableView& view,
                    const OptSRepairRowsOptions& options,
                    std::vector<int>* rows) {
  // One untimed burst first, on the same pool: a fresh pool's first burst
  // mostly measures how fast the host wakes its idle vCPUs. Then best of
  // three runs: CI runners are noisy and the regression gate compares
  // these numbers against checked-in baselines; min-of-N is the most
  // stable estimator of the achievable time.
  FDR_CHECK(OptSRepairRows(fds, view, options).ok());
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto result = OptSRepairRows(fds, view, options);
    auto stop = std::chrono::steady_clock::now();
    FDR_CHECK_MSG(result.ok(), result.status().ToString());
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best) {
      best = ms;
      *rows = *std::move(result);
    }
  }
  return best;
}

void ReportFamilyScaling() {
  const unsigned cpus = std::thread::hardware_concurrency();
  ReportTable table({"family", "n", "threads", "time (ms)", "speedup"});
  // The chain family uses the grouping-bound domain (n/512, σ-blocks of
  // ~hundreds of rows): with the singleton-block shortcuts in the span
  // recursion, the default n/16 domain collapses into trivial blocks whose
  // solve time is dwarfed by fan-out overhead — there would be nothing
  // left to parallelize. The marriage family keeps the default domain
  // (its cost is the per-block matchings, not grouping).
  for (const auto& [label, parsed, full_n, smoke_n, domain_divisor] :
       {std::tuple<std::string, ParsedFdSet, int, int, int>{
            "chain (office)", OfficeFds(), 262144, 32768, 512},
        {"marriage (A<->B->C)", DeltaAKeyBToC(), 16384, 6144, 16}}) {
    const int n = static_cast<int>(benchreport::SmokeCap(full_n, smoke_n));
    Table t = ScalingFamilyTable(parsed, n, 5 + n, domain_divisor);
    TableView view(t);
    std::vector<int> baseline_rows;
    double t1_ms = 0;
    const bool chain = label == std::string("chain (office)");
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      OptSRepairRowsOptions options;
      options.exec.pool = threads > 1 ? &pool : nullptr;
      std::vector<int> rows;
      double ms = TimeRepairMs(parsed.fds, view, options, &rows);
      if (threads == 1) {
        baseline_rows = rows;
        t1_ms = ms;
        FDR_CHECK(Satisfies(t.SubsetByRows(rows), parsed.fds));
      }
      // The acceptance bar: results must be bit-identical at every thread
      // count (block-local accumulation + ordered reduction, opt_srepair.h).
      FDR_CHECK(rows == baseline_rows);
      table.AddRow({label, Num(n), Num(threads), Num(ms), Num(t1_ms / ms)});
      if (chain) {
        JsonReport::Get().Add(
            "engine.chain_t" + std::to_string(threads) + "_ms", ms, "ms");
        if (threads == 1) {
          JsonReport::Get().Add("engine.chain_us_per_tuple_t1",
                                1000.0 * ms / n, "us");
        }
        if (threads == 4) {
          double speedup = ms > 0 ? t1_ms / ms : 0;
          JsonReport::Get().Add("engine.chain_speedup_4t", speedup, "x");
          std::cout << "chain family, 4 threads on " << cpus
                    << " cpus: speedup " << Num(speedup)
                    << (cpus >= 4
                            ? (speedup >= 2.0 ? "  [>=2x target: PASS]"
                                              : "  [>=2x target: FAIL]")
                            : "  [>=2x target needs >=4 cpus; skipped]")
                    << "\n";
        }
      }
    }
  }
  table.Print();
  std::cout << "rows bit-identical at 1/2/4/8 threads for every family "
               "(FDR_CHECKed)\n";
}

void ReportBatchServing() {
  // The "millions of users" serving shape: a wide batch of independent
  // (∆, T) jobs, deterministic result order, per-job deadlines.
  const int jobs_n = static_cast<int>(benchreport::SmokeCap(128, 48));
  const int tuples = 2000;
  ParsedFdSet chain = OfficeFds();
  ParsedFdSet marriage = DeltaAKeyBToC();
  std::vector<Table> tables;
  std::vector<RepairJob> jobs;
  tables.reserve(jobs_n);
  for (int j = 0; j < jobs_n; ++j) {
    const ParsedFdSet& parsed = (j % 2 == 0) ? chain : marriage;
    tables.push_back(ScalingFamilyTable(parsed, tuples, 100 + j));
  }
  for (int j = 0; j < jobs_n; ++j) {
    RepairJob job;
    job.fds = (j % 2 == 0) ? chain.fds : marriage.fds;
    job.table = &tables[j];
    jobs.push_back(std::move(job));
  }

  ReportTable table({"threads", "jobs", "time (ms)", "jobs/s", "speedup"});
  double t1_ms = 0;
  std::vector<double> distances;
  for (int threads : {1, 4}) {
    EngineOptions options;
    options.threads = threads;
    RepairEngine engine(options);
    engine.RepairBatch(jobs);  // untimed warm-up burst on the same pool
    auto start = std::chrono::steady_clock::now();
    std::vector<StatusOr<SRepairResult>> results = engine.RepairBatch(jobs);
    auto stop = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    std::vector<double> got;
    for (const auto& result : results) {
      FDR_CHECK_MSG(result.ok(), result.status().ToString());
      got.push_back(result->distance);
    }
    if (threads == 1) {
      t1_ms = ms;
      distances = got;
    }
    FDR_CHECK(got == distances);  // deterministic across thread counts
    table.AddRow({Num(threads), Num(jobs_n), Num(ms),
                  Num(1000.0 * jobs_n / ms), Num(t1_ms / ms)});
    JsonReport::Get().Add("engine.batch_t" + std::to_string(threads) + "_ms",
                          ms, "ms");
    if (threads == 4) {
      JsonReport::Get().Add("engine.batch_speedup_4t", ms > 0 ? t1_ms / ms : 0,
                            "x");
    }
  }
  table.Print();

  // Deadline admission: an already-expired job fails fast with
  // kDeadlineExceeded while the rest of the batch is served normally.
  std::vector<RepairJob> with_deadline = jobs;
  with_deadline[0].deadline = std::chrono::milliseconds(0);
  RepairEngine engine(EngineOptions{});
  std::vector<StatusOr<SRepairResult>> results =
      engine.RepairBatch(with_deadline);
  FDR_CHECK(results[0].status().code() == StatusCode::kDeadlineExceeded);
  int served = 0;
  for (size_t j = 1; j < results.size(); ++j) served += results[j].ok();
  std::cout << "deadline demo: job 0 expired ("
            << StatusCodeToString(results[0].status().code()) << "), "
            << served << "/" << results.size() - 1
            << " remaining jobs served\n";
}

void Report() {
  Banner("engine", "Parallel block-sharded repair engine");
  ReportFamilyScaling();
  ReportBatchServing();
}

void BM_OptSRepairChainThreads(benchmark::State& state) {
  ParsedFdSet parsed = OfficeFds();
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Table table = ScalingFamilyTable(parsed, n, 11);
  TableView view(table);
  ThreadPool pool(threads);
  OptSRepairRowsOptions options;
  options.exec.pool = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    auto rows = OptSRepairRows(parsed.fds, view, options);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OptSRepairChainThreads)
    ->ArgsProduct({{static_cast<long>(benchreport::SmokeCap(65536, 2048))},
                   {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_RepairBatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int jobs_n = static_cast<int>(benchreport::SmokeCap(64, 16));
  ParsedFdSet parsed = OfficeFds();
  std::vector<Table> tables;
  std::vector<RepairJob> jobs;
  for (int j = 0; j < jobs_n; ++j) {
    tables.push_back(ScalingFamilyTable(parsed, 1000, 200 + j));
  }
  for (int j = 0; j < jobs_n; ++j) {
    RepairJob job;
    job.fds = parsed.fds;
    job.table = &tables[j];
    jobs.push_back(std::move(job));
  }
  EngineOptions options;
  options.threads = threads;
  RepairEngine engine(options);
  for (auto _ : state) {
    auto results = engine.RepairBatch(jobs);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * jobs_n);
}
BENCHMARK(BM_RepairBatch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fdrepair

FDR_BENCH_MAIN(fdrepair::Report)
