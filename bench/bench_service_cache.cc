// E-service: the serving layer's cache economics.
//
// Cold latency (every request misses and runs the planner) vs warm latency
// (every request replays a cached recipe), plus a hit-ratio sweep that
// replays request streams with a configurable repeat probability — the
// serving shape the ROADMAP's "heavy traffic" target implies. Tracked
// metrics: cold/warm us-per-request and the warm-over-cold speedup at a
// 90% repeat ratio; a warm hit against computing the repair directly
// (`service.hit_over_direct`, must stay <= 1, and its update-mode
// counterpart `service.uhit_over_direct`, <= 0.15) and the cold content-hash
// cost per row; what plan capture adds to a cold plan
// (`srepair.capture_over_plan_{marriage,office}`, must stay <= 1.10);
// plus the incremental delta path: warm dirty-block
// re-repair vs a full re-plan of the same mutated state at a <=1%
// mutation rate, in both repair modes — kept-id recipe splicing for subset
// repairs (`service.delta_us_per_request`, and `service.delta_speedup`,
// never below 1x) and cell-edit recipe splicing for update repairs
// (`service.udelta_speedup`), and what an update splice costs beyond the
// subset splice inside it (`service.udelta_extra_us`); and a cold update
// on a never-seen table, whose pool interns every fresh name
// (`urepair.fresh_pool_us`).

#include <algorithm>
#include <chrono>
#include <ctime>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "report_util.h"
#include "service/repair_service.h"
#include "srepair/planner.h"
#include "storage/table_delta.h"
#include "storage/table_hash.h"
#include "urepair/opt_urepair.h"
#include "urepair/planner.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace {

using namespace fdrepair;
using benchreport::JsonReport;
using benchreport::Num;
using benchreport::ReportTable;
using Clock = std::chrono::steady_clock;

int TupleCount() {
  return static_cast<int>(benchreport::SmokeCap(8192, 1024));
}

struct Population {
  ParsedFdSet parsed;
  std::vector<Table> tables;
};

/// `count` distinct office-chain instances (distinct seeds => distinct
/// content hashes).
Population MakePopulation(int count, int tuples) {
  Population population{OfficeFds(), {}};
  population.tables.reserve(count);
  for (int i = 0; i < count; ++i) {
    population.tables.push_back(
        ScalingFamilyTable(population.parsed, tuples, 1000 + i));
  }
  return population;
}

double ServeAll(RepairService* service, const Population& population,
                const std::vector<int>& order, bool bypass_cache) {
  Clock::time_point start = Clock::now();
  for (int index : order) {
    RepairRequest request;
    request.mode = RepairMode::kSubset;
    request.fds = population.parsed.fds;
    request.table = &population.tables[index];
    request.options.bypass_cache = bypass_cache;
    auto response = service->Serve(request);
    if (!response.ok()) {
      std::cerr << "serve failed: " << response.status() << "\n";
      std::exit(1);
    }
  }
  std::chrono::duration<double, std::micro> elapsed = Clock::now() - start;
  return elapsed.count() / static_cast<double>(order.size());
}

void ReportColdVsWarm() {
  const int tuples = TupleCount();
  const int distinct = 8;
  Population population = MakePopulation(distinct, tuples);
  std::vector<int> order;
  for (int i = 0; i < distinct; ++i) order.push_back(i);

  RepairService service;
  double cold_us =
      ServeAll(&service, population, order, /*bypass_cache=*/false);
  double warm_us =
      ServeAll(&service, population, order, /*bypass_cache=*/false);
  double speedup = warm_us > 0 ? cold_us / warm_us : 0;

  ReportTable table({"phase", "requests", "us/request"});
  table.AddRow({"cold (all miss)", std::to_string(distinct), Num(cold_us)});
  table.AddRow({"warm (all hit)", std::to_string(distinct), Num(warm_us)});
  table.Print();
  std::cout << "  warm-over-cold speedup: " << Num(speedup) << "x\n";

  JsonReport::Get().Add("service.cold_us_per_request", cold_us, "us");
  JsonReport::Get().Add("service.warm_us_per_request", warm_us, "us");
  JsonReport::Get().Add("service.warm_speedup", speedup, "x");
}

void ReportHitRatioSweep() {
  const int tuples = TupleCount();
  const int requests = 200;
  // Worst case (repeat 0) touches `requests` distinct tables.
  Population population = MakePopulation(requests, tuples);

  ReportTable table({"repeat ratio", "requests", "distinct", "us/request",
                     "hit ratio", "vs cold"});
  for (double repeat : {0.0, 0.5, 0.9, 0.99}) {
    // With probability `repeat` a request re-sends an already-seen
    // instance; otherwise it introduces a fresh one.
    Rng rng(static_cast<uint64_t>(repeat * 1000) + 7);
    std::vector<int> stream;
    std::vector<int> seen;
    stream.reserve(requests);
    int next_new = 0;
    for (int r = 0; r < requests; ++r) {
      if (!seen.empty() && rng.UniformDouble() < repeat) {
        stream.push_back(seen[rng.UniformIndex(seen.size())]);
      } else {
        stream.push_back(next_new);
        seen.push_back(next_new);
        ++next_new;
      }
    }
    // Cold reference: the identical stream with the cache bypassed.
    RepairService cold_service;
    double cold_us =
        ServeAll(&cold_service, population, stream, /*bypass_cache=*/true);
    RepairService service;
    double us = ServeAll(&service, population, stream, /*bypass_cache=*/false);
    RepairServiceStats stats = service.stats();
    double hit_ratio = static_cast<double>(stats.hits) /
                       static_cast<double>(stats.hits + stats.misses);
    double speedup = us > 0 ? cold_us / us : 0;
    table.AddRow({Num(repeat), std::to_string(requests),
                  std::to_string(next_new), Num(us), Num(hit_ratio),
                  Num(speedup) + "x"});
    if (repeat == 0.9) {
      JsonReport::Get().Add("service.speedup_repeat90", speedup, "x");
      JsonReport::Get().Add("service.hit_ratio_repeat90", hit_ratio, "");
    }
  }
  table.Print();
}

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// What a cache hit is worth, per mode: a warm hit (the Table object was
/// served before, so its content hash is memoized, as for any client that
/// re-sends one Table) against computing the same repair directly — a
/// sequential ComputeSRepair for subset mode (`service.hit_over_direct`),
/// a sequential ComputeURepair for update mode (`service.uhit_over_direct`)
/// — both on the calling thread, interleaved. What an update miss costs
/// over that direct repair (`service.umiss_over_direct`): a cold update
/// Serve with bypass_cache, pinned to the calling thread, which plans,
/// captures and answers from the planner's own update. Also the cold
/// content-hash cost per row, on a fresh memo-less copy each time — traced
/// runs re-hash a Table the service already memoized, so this is where the
/// cost of hashing a never-seen table stays visible. Fixed size (no smoke
/// cap), as for the delta sections: the ratio's meaning depends on the
/// table size.
void ReportHitVsDirect() {
  const int tuples = 8192;
  const int reps = 31;
  const std::string rows = std::to_string(tuples);
  Population population = MakePopulation(1, tuples);
  const Table& table = population.tables[0];
  const FdSet& fds = population.parsed.fds;
  RepairService service;
  ReportTable report({"path", "rows", "median us"});
  auto micros_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };
  // Median Serve over median direct repair in `mode`, interleaved: a warm
  // hit, or with `cold` a bypass_cache miss on the calling thread. `direct`
  // runs the direct repair and returns its status.
  auto serve_over_direct = [&](RepairMode mode, bool cold,
                               const char* direct_name, auto direct) {
    RepairRequest request;
    request.mode = mode;
    request.fds = fds;
    request.table = &table;
    request.options.bypass_cache = cold;
    if (cold) request.options.threads = 1;
    if (auto response = service.Serve(request); !response.ok()) {
      std::cerr << "prime failed: " << response.status() << "\n";
      std::exit(1);
    }
    std::vector<double> hit_us, direct_us;
    for (int rep = 0; rep < reps; ++rep) {
      Clock::time_point start = Clock::now();
      auto hit = service.Serve(request);
      hit_us.push_back(micros_since(start));
      if (!hit.ok() || hit->cache_hit == cold) {
        std::cerr << "request did not " << (cold ? "miss" : "hit") << "\n";
        std::exit(1);
      }
      start = Clock::now();
      Status status = direct();
      direct_us.push_back(micros_since(start));
      if (!status.ok()) {
        std::cerr << "direct repair failed: " << status << "\n";
        std::exit(1);
      }
    }
    const double hit = MedianOf(hit_us);
    const double direct_median = MedianOf(direct_us);
    report.AddRow({std::string(cold ? "cold " : "warm ") +
                       RepairModeToString(mode) +
                       (cold ? " miss (Serve, bypass_cache)" : " hit (Serve)"),
                   rows, Num(hit)});
    report.AddRow({direct_name, rows, Num(direct_median)});
    return direct_median > 0 ? hit / direct_median : 0;
  };
  auto direct_srepair = [&] { return ComputeSRepair(fds, table).status(); };
  auto direct_urepair = [&] { return ComputeURepair(fds, table).status(); };
  const double subset_ratio = serve_over_direct(
      RepairMode::kSubset, false, "direct ComputeSRepair", direct_srepair);
  const double update_ratio = serve_over_direct(
      RepairMode::kUpdate, false, "direct ComputeURepair", direct_urepair);
  const double umiss_ratio = serve_over_direct(
      RepairMode::kUpdate, true, "direct ComputeURepair", direct_urepair);

  std::vector<int> all_rows(tuples);
  for (int row = 0; row < tuples; ++row) all_rows[row] = row;
  std::vector<double> hash_us;
  for (int rep = 0; rep < reps; ++rep) {
    const Table fresh = table.SubsetByRows(all_rows);  // no memo
    Clock::time_point start = Clock::now();
    benchmark::DoNotOptimize(TableContentHash(fresh));
    hash_us.push_back(micros_since(start));
  }
  const double hash = MedianOf(hash_us);
  report.AddRow({"cold TableContentHash", rows, Num(hash)});
  report.Print();
  std::cout << "  subset hit / direct: " << Num(subset_ratio)
            << "  update hit / direct: " << Num(update_ratio)
            << "  update miss / direct: " << Num(umiss_ratio)
            << "  (median of " << reps << ")\n";

  JsonReport::Get().Add("service.hit_over_direct", subset_ratio, "");
  JsonReport::Get().Add("service.uhit_over_direct", update_ratio, "");
  JsonReport::Get().Add("service.umiss_over_direct", umiss_ratio, "");
  JsonReport::Get().Add("storage.content_hash_us_per_row", hash / tuples,
                        "us");
}

/// What a cold update costs on a never-seen table
/// (`urepair.fresh_pool_us`): a sequential OptURepairCells of the 8192-row
/// Office table whose pool holds none of its ⊥ names, so every fresh cell's
/// name is built, digested and interned. Each repetition runs on its own
/// table and pool, all built before the timed loop and freed after it: a
/// pool freed inside the loop lets glibc trim the heap, and the next
/// repetition would time page faults. Median of `reps`, wall and thread CPU
/// time. Fixed size (no smoke cap).
void ReportFreshPool() {
  const int tuples = 8192;
  const int reps = 21;
  const ParsedFdSet parsed = OfficeFds();
  const FdSet cover = parsed.fds.CanonicalCover();
  std::vector<Table> tables;
  tables.reserve(reps);
  for (int rep = 0; rep < reps; ++rep) {
    tables.push_back(ScalingFamilyTable(parsed, tuples, 1000));
  }
  std::vector<OptURepairResult> results;
  results.reserve(reps);
  std::vector<double> wall_us, cpu_us;
  auto cpu_now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
  };
  for (const Table& table : tables) {
    const double cpu_start = cpu_now();
    const Clock::time_point start = Clock::now();
    StatusOr<OptURepairResult> result = OptURepairCells(cover, table);
    wall_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
    cpu_us.push_back(cpu_now() - cpu_start);
    if (!result.ok()) {
      std::cerr << "OptURepairCells failed: " << result.status() << "\n";
      std::exit(1);
    }
    results.push_back(std::move(*result));
  }
  const double wall = MedianOf(wall_us);
  ReportTable report({"path", "rows", "edits", "median us", "median cpu us"});
  report.AddRow({"cold OptURepairCells, fresh pool", std::to_string(tuples),
                 std::to_string(results.front().edits.size()), Num(wall),
                 Num(MedianOf(cpu_us))});
  report.Print();
  std::cout << "  (median of " << reps << ", one table and pool each)\n";
  JsonReport::Get().Add("urepair.fresh_pool_us", wall, "us");
}

/// What a plan capture costs a cold miss: a sequential ComputeSRepair that
/// captures its plan (the service captures on every subset miss, so any
/// later delta of that state can splice) against one that does not, on
/// 2048-row tables of the lhs-marriage and common-lhs routes. The plan is
/// destroyed inside the timed region: the service pays that when the entry
/// is evicted. Runs alternate between the two settings so host drift hits
/// both alike; each ratio is median over median. Fixed size (no smoke cap).
void ReportCaptureCost() {
  const int tuples = 2048;
  const int reps = 101;
  struct Case {
    const char* label;
    const char* metric;
    ParsedFdSet parsed;
  };
  const Case cases[] = {
      {"A<->B->C (marriage)", "srepair.capture_over_plan_marriage",
       DeltaAKeyBToC()},
      {"Office (common lhs)", "srepair.capture_over_plan_office",
       OfficeFds()},
  };
  ReportTable report({"table", "rows", "plan us", "plan+capture us",
                      "ratio"});
  for (const Case& c : cases) {
    const Table table = ScalingFamilyTable(c.parsed, tuples, 11);
    std::vector<double> plain_us, capture_us;
    for (int rep = 0; rep < reps; ++rep) {
      for (const bool capture : {false, true}) {
        Clock::time_point start = Clock::now();
        {
          SRepairPlanCache plan;
          SRepairOptions options;
          if (capture) options.capture = &plan;
          auto result = ComputeSRepair(c.parsed.fds, table, options);
          if (!result.ok() || (capture && !plan.spliceable)) {
            std::cerr << "capture run failed on " << c.label << "\n";
            std::exit(1);
          }
        }
        std::chrono::duration<double, std::micro> elapsed =
            Clock::now() - start;
        (capture ? capture_us : plain_us).push_back(elapsed.count());
      }
    }
    const double plain = MedianOf(plain_us);
    const double captured = MedianOf(capture_us);
    const double ratio = plain > 0 ? captured / plain : 0;
    report.AddRow({c.label, std::to_string(tuples), Num(plain), Num(captured),
                   Num(ratio)});
    JsonReport::Get().Add(c.metric, ratio, "");
  }
  report.Print();
  std::cout << "  (median of " << reps << " sequential runs each)\n";
}

/// Incremental serving, in both repair modes on one service and one delta
/// stream: chained 1%-mutation batches served through ApplyDelta
/// (dirty-block splicing against the cached plan — kept-id recipes in
/// subset mode, cell-edit recipes in update mode) vs a bypass-cache full
/// re-plan of the identical mutated state. Every side keys by the builder
/// table's content hash, which its memo keeps current, so none pays a
/// hashing pass and each speedup is the splice's over the re-plan's. A 1%
/// mutation of this chain dirties ~20% of the top-level blocks, so the
/// subset ratio is modest; the splices' own latencies
/// (`service.delta_us_per_request`, `service.udelta_us_per_request`) are
/// gated absolutely. What an update splice adds to the subset splice it
/// runs inside (Corollary 4.6: freshening and emitting one edit per deleted
/// row) is gated as `service.udelta_extra_us`, the median over rounds of
/// update-splice minus subset-splice time on the same delta: a difference,
/// not a ratio, so a faster subset splice leaves it where the update-only
/// work puts it.
void ReportDeltaSplices() {
  // Fixed size (no smoke cap): the tracked speedups compare an
  // O(|delta|) path against an O(table) one, so shrinking the table in
  // smoke runs would change the metrics' meaning — and a single 8K
  // instance is cheap enough for CI either way.
  const int tuples = 8192;
  const int edits_per_round = std::max(1, tuples / 100);  // 1% mutation
  // Enough rounds to average out scheduler noise on small CI runners; each
  // round is a few ms, so this stays cheap even in smoke mode.
  const int rounds = 32;
  Population population = MakePopulation(1, tuples);
  const Table& base = population.tables[0];
  // Update values draw from the generator's own domain so mutated tables
  // stay structurally similar to cold ones.
  const int domain = std::max(4, tuples / 16);
  const RepairMode modes[] = {RepairMode::kSubset, RepairMode::kUpdate};

  RepairService service;
  for (RepairMode mode : modes) {
    RepairRequest prime;
    prime.mode = mode;
    prime.fds = population.parsed.fds;
    prime.table = &base;
    if (auto response = service.Serve(prime); !response.ok()) {
      std::cerr << "prime failed: " << response.status() << "\n";
      std::exit(1);
    }
  }

  Rng rng(4242);
  DeltaBuilder builder(base);
  double splice_us[2] = {0, 0};
  double full_us[2] = {0, 0};
  std::vector<double> update_extra_us;
  for (int round = 0; round < rounds; ++round) {
    for (int e = 0; e < edits_per_round; ++e) {
      const int row =
          static_cast<int>(rng.UniformIndex(builder.table().num_tuples()));
      const TupleId id = builder.table().id(row);
      const AttrId attr = static_cast<AttrId>(
          rng.UniformIndex(builder.table().schema().arity()));
      const std::string text =
          "v" + std::to_string(rng.UniformInt(0, domain - 1));
      if (!builder.Update(id, attr, text).ok()) std::exit(1);
    }
    TableDelta delta = builder.Finish();

    double round_splice_us[2];
    for (int m = 0; m < 2; ++m) {
      RepairRequest incremental;
      incremental.mode = modes[m];
      incremental.fds = population.parsed.fds;
      incremental.table = &builder.table();
      incremental.delta = &delta;
      Clock::time_point start = Clock::now();
      auto spliced = service.ApplyDelta(incremental);
      std::chrono::duration<double, std::micro> elapsed =
          Clock::now() - start;
      if (!spliced.ok()) {
        std::cerr << RepairModeToString(modes[m])
                  << " delta serve failed: " << spliced.status() << "\n";
        std::exit(1);
      }
      round_splice_us[m] = elapsed.count();
      splice_us[m] += elapsed.count();

      RepairRequest cold = incremental;
      cold.delta = nullptr;
      cold.options.bypass_cache = true;
      start = Clock::now();
      auto replanned = service.Serve(cold);
      elapsed = Clock::now() - start;
      if (!replanned.ok()) {
        std::cerr << RepairModeToString(modes[m])
                  << " replan failed: " << replanned.status() << "\n";
        std::exit(1);
      }
      full_us[m] += elapsed.count();
    }
    update_extra_us.push_back(round_splice_us[1] - round_splice_us[0]);
  }
  const RepairServiceStats stats = service.stats();
  const uint64_t requests[2] = {stats.delta_requests, stats.udelta_requests};
  const uint64_t splices[2] = {stats.delta_splices, stats.udelta_splices};
  const uint64_t clean[2] = {stats.delta_blocks_clean,
                             stats.udelta_blocks_clean};
  const uint64_t dirty[2] = {stats.delta_blocks_dirty,
                             stats.udelta_blocks_dirty};
  const char* prefix[2] = {"service.delta", "service.udelta"};

  ReportTable table({"path", "rounds", "us/request"});
  std::ostringstream summary;
  for (int m = 0; m < 2; ++m) {
    splice_us[m] /= rounds;
    full_us[m] /= rounds;
    const double speedup = splice_us[m] > 0 ? full_us[m] / splice_us[m] : 0;
    const double splice_ratio =
        requests[m] > 0 ? static_cast<double>(splices[m]) /
                              static_cast<double>(requests[m])
                        : 0;
    const uint64_t blocks = clean[m] + dirty[m];
    const double clean_ratio =
        blocks > 0 ? static_cast<double>(clean[m]) /
                         static_cast<double>(blocks)
                   : 0;
    const std::string mode = RepairModeToString(modes[m]);
    table.AddRow({mode + " delta (splice)", std::to_string(rounds),
                  Num(splice_us[m])});
    table.AddRow(
        {mode + " full re-plan", std::to_string(rounds), Num(full_us[m])});
    summary << "  " << mode << " delta-over-full speedup: " << Num(speedup)
            << "x  (splice ratio " << Num(splice_ratio)
            << ", clean-block ratio " << Num(clean_ratio) << ")\n";
    const std::string name = prefix[m];
    JsonReport::Get().Add(name + "_us_per_request", splice_us[m], "us");
    JsonReport::Get().Add(name + "_full_us_per_request", full_us[m], "us");
    JsonReport::Get().Add(name + "_speedup", speedup, "x");
    JsonReport::Get().Add(name + "_clean_block_ratio", clean_ratio, "");
  }
  table.Print();
  std::cout << summary.str();
  const double udelta_extra = MedianOf(update_extra_us);
  std::cout << "  update splice - subset splice: " << Num(udelta_extra)
            << " us  (median of " << rounds << " rounds)\n";
  JsonReport::Get().Add("service.udelta_extra_us", udelta_extra, "us");
}

void Report() {
  benchreport::Banner("service", "RepairService cache: cold vs warm");
  ReportColdVsWarm();
  std::cout << "\n";
  ReportHitRatioSweep();
  std::cout << "\n";
  ReportHitVsDirect();
  std::cout << "\n";
  ReportFreshPool();
  std::cout << "\n";
  ReportCaptureCost();
  std::cout << "\n";
  ReportDeltaSplices();
}

void BM_ServeCold(benchmark::State& state) {
  Population population = MakePopulation(1, TupleCount());
  RepairService service;
  RepairRequest request;
  request.mode = RepairMode::kSubset;
  request.fds = population.parsed.fds;
  request.table = &population.tables[0];
  request.options.bypass_cache = true;
  for (auto _ : state) {
    auto response = service.Serve(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeCold)->Unit(benchmark::kMicrosecond);

void BM_ServeWarm(benchmark::State& state) {
  Population population = MakePopulation(1, TupleCount());
  RepairService service;
  RepairRequest request;
  request.mode = RepairMode::kSubset;
  request.fds = population.parsed.fds;
  request.table = &population.tables[0];
  (void)service.Serve(request);  // prime the cache
  for (auto _ : state) {
    auto response = service.Serve(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeWarm)->Unit(benchmark::kMicrosecond);

}  // namespace

FDR_BENCH_MAIN(Report)
