// served_bench: the served-request benchmark of the fdrepair stack.
//
// One process drives the public RepairService::Serve / ApplyDelta entry
// points, with default RepairServiceOptions, through one of three seeded
// workloads (see README.md in this directory for why each exists and which
// layers it loads):
//
//   repeat_read    Office ∆, 8192-row tables: 64 primed hot instances
//                  (3 subset : 1 update), 32 owned by each client;
//                  90% repeats of an owned instance, 10% never-seen;
//   cold_marriage  every request a never-seen 2048-row table in subset
//                  mode, 3 ∆A↔B→C : 1 ∆1 ssn (lhs-marriage route);
//   mutate_stream  16 primed Office 8192-row instances, each owned by one
//                  client: 80% ApplyDelta writes editing 1% of the rows,
//                  20% plain reads of the current state.
//
// Load model: a closed loop of 2 client threads, each blocking on its
// reply. max_inflight defaults to the engine's thread count (4 on a 4-way
// host), so admission control never engages. Every request is timed from
// the Serve/ApplyDelta call until it returns. A client's clock pauses
// while it prepares its next request or verifies the last response, so
// neither shows up in req_per_s or cpu_ms_per_req.
//
// Every response is checked: it must be OK and satisfy the hard cover, and
// a fixed sample (each instance's first response, then every k-th) must
// equal a direct sequential planner run on the same state bit for bit.
//
// Usage:
//   served_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--spans PATH] [--commit SHA]
//   served_bench --smoke
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// (layer_trace.h) with --trace 1. The line before it is a host and build
// fingerprint. --smoke runs every workload at tiny size, traced and not,
// and exits non-zero unless every metric is present and finite and no
// request failed.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <latch>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "layer_trace.h"
#include "service/repair_service.h"
#include "srepair/planner.h"
#include "storage/consistency.h"
#include "storage/table_delta.h"
#include "storage/table_hash.h"
#include "urepair/opt_urepair.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

#ifndef FDR_BENCH_BUILD_TYPE
#define FDR_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace fdrepair;

constexpr int kClients = 2;

struct WorkloadSpec {
  std::string name;
  int rows = 0;
  /// Primed instances, split evenly among the clients that re-send them.
  int hot = 0;
  /// Share of requests carrying a table the service has never seen.
  double cold_share = 0;
  /// mutate_stream: share of ApplyDelta writes, rows edited per write.
  double write_share = 0;
  double edit_share = 0;
  /// cold_marriage: never-seen requests per FD set served while priming.
  int warmup = 0;
  /// A run serves at least this many requests.
  int min_requests = 0;
  /// Set-up repetitions behind setup_s (the median is reported).
  int setups = 9;
  /// Every k-th response of an instance is compared with the planner.
  int sample_every = 0;
};

std::optional<WorkloadSpec> Spec(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "repeat_read") {
    spec.rows = 8192;
    spec.hot = 64;
    spec.cold_share = 0.1;
    spec.sample_every = 16;
  } else if (name == "cold_marriage") {
    spec.rows = 2048;
    spec.cold_share = 1.0;
    spec.warmup = 8;
    spec.sample_every = 8;
  } else if (name == "mutate_stream") {
    spec.rows = 8192;
    spec.hot = 16;
    spec.write_share = 0.8;
    spec.edit_share = 0.01;
    spec.sample_every = 8;
  } else {
    return std::nullopt;
  }
  spec.min_requests = 1200;
  if (smoke) {
    spec.rows = name == "cold_marriage" ? 128 : 256;
    spec.hot = spec.hot > 0 ? 8 : 0;
    spec.warmup = spec.warmup > 0 ? 2 : 0;
    spec.min_requests = 40;
    spec.setups = 1;
    spec.sample_every = 4;
  }
  return spec;
}

uint64_t Mix(uint64_t seed, uint64_t tag, uint64_t index) {
  return seed * 0x9E3779B97F4A7C15ULL ^ (tag << 56) ^
         (index + 1) * 0xBF58476D1CE4E5B9ULL;
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

/// Host speed, from one spin loop (a dependent multiply-add chain).
struct HostSpeed {
  /// Single-thread ns per step: rises when the host slows every core.
  double spin_ns = 0;
  /// Usable parallelism: the loop on 1 thread vs on `threads` threads at
  /// once, threads × t1 / tn. Reads ~nproc on an idle host, less when
  /// neighbours steal cycles.
  double speedup = 0;
};

HostSpeed MeasureHost(int threads) {
  constexpr int kSteps = 20'000'000;
  static std::atomic<uint64_t> sink{0};
  auto spin = [](int t) {
    uint64_t x = t + 1;
    for (int i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    sink.fetch_xor(x, std::memory_order_relaxed);
  };
  auto best_of_three = [&](int width) {
    double best = 0;
    for (int round = 0; round < 3; ++round) {
      const Clock::time_point start = Clock::now();
      std::vector<std::thread> workers;
      for (int t = 0; t < width; ++t) workers.emplace_back(spin, t);
      for (std::thread& worker : workers) worker.join();
      const double elapsed = Seconds(Clock::now() - start);
      if (round == 0 || elapsed < best) best = elapsed;
    }
    return best;
  };
  const double one = best_of_three(1);
  return HostSpeed{one / kSteps * 1e9, threads * one / best_of_three(threads)};
}

// ---------------------------------------------------------------------------
// Inputs

struct Family {
  std::string name;
  ParsedFdSet parsed;
  FdSet cover;
  FdSet hard;
  /// Value domain of the generated columns ("v0".."v<domain-1>").
  int domain = 0;
};

struct Instance {
  const Family* family = nullptr;
  RepairMode mode = RepairMode::kSubset;
  /// repeat_read: the immutable state.
  std::optional<Table> table;
  /// mutate_stream: the evolving state and its delta chain.
  std::unique_ptr<DeltaBuilder> builder;
  /// Traced runs: the benchmark's own plans for the current state.
  PlanState plans;

  const Table& state() const { return builder ? builder->table() : *table; }
};

struct Setup {
  std::vector<std::unique_ptr<Family>> families;
  std::vector<std::unique_ptr<Instance>> instances;
  /// The hot instances each client owns and alone re-sends.
  std::vector<std::vector<int>> owned;
  std::unique_ptr<RepairService> service;
};

std::unique_ptr<Family> MakeFamily(std::string name, ParsedFdSet parsed,
                                   int rows) {
  FdSet cover = parsed.fds.CanonicalCover();
  FdSet hard = cover.HardPart();
  return std::make_unique<Family>(Family{std::move(name), std::move(parsed),
                                         std::move(cover), std::move(hard),
                                         std::max(4, rows / 16)});
}

/// The checks every response gets, and what they found.
struct Checks {
  int64_t non_ok = 0;
  int64_t unsatisfied = 0;
  int64_t mismatched = 0;
  int64_t sampled = 0;
  int reported = 0;

  int64_t failures() const { return non_ok + unsatisfied + mismatched; }
  void Add(const Checks& other) {
    non_ok += other.non_ok;
    unsatisfied += other.unsatisfied;
    mismatched += other.mismatched;
    sampled += other.sampled;
  }
  void Report(const std::string& what) {
    if (reported++ < 5) std::cerr << "served_bench: " << what << "\n";
  }
};

/// Bit-identity with the direct sequential planner on the same state: the
/// kept ids (subset) or the rewritten cells (update), plus the distance.
bool MatchesDirect(const FdSet& cover, const Table& table, RepairMode mode,
                   const RepairResponse& response) {
  const Table& repair = response.repair;
  if (mode == RepairMode::kUpdate) {
    StatusOr<OptURepairResult> direct = OptURepairCells(cover, table);
    if (!direct.ok() || direct->distance != response.distance ||
        repair.num_tuples() != table.num_tuples()) {
      return false;
    }
    size_t next = 0;
    for (int row = 0; row < table.num_tuples(); ++row) {
      if (repair.id(row) != table.id(row)) return false;
      for (AttrId attr = 0; attr < table.schema().arity(); ++attr) {
        if (repair.value(row, attr) == table.value(row, attr)) continue;
        if (next == direct->edits.size()) return false;
        const URepairCellEdit& edit = direct->edits[next++];
        if (edit.id != table.id(row) || edit.attr != attr ||
            edit.text != repair.ValueText(row, attr)) {
          return false;
        }
      }
    }
    return next == direct->edits.size();
  }
  StatusOr<SRepairResult> direct = ComputeSRepair(cover, table);
  if (!direct.ok() || direct->distance != response.distance ||
      direct->repair.num_tuples() != repair.num_tuples()) {
    return false;
  }
  for (int row = 0; row < repair.num_tuples(); ++row) {
    if (direct->repair.id(row) != repair.id(row) ||
        direct->repair.weight(row) != repair.weight(row)) {
      return false;
    }
  }
  return true;
}

void Verify(const Family& family, const Table& table, RepairMode mode,
            const StatusOr<RepairResponse>& response, bool compare,
            int64_t request, SpanLog* log, Checks* checks) {
  if (!response.ok()) {
    ++checks->non_ok;
    checks->Report("request " + std::to_string(request) +
                   " failed: " + response.status().ToString());
    return;
  }
  const Clock::time_point start = Clock::now();
  const bool satisfied = Satisfies(response->repair, family.hard);
  if (log != nullptr) {
    log->Add("verify.satisfies", request, -1, start, Clock::now());
  }
  if (!satisfied) {
    ++checks->unsatisfied;
    checks->Report("request " + std::to_string(request) +
                   ": response violates the hard cover of " + family.name);
  }
  if (!compare) return;
  ++checks->sampled;
  if (!MatchesDirect(family.cover, table, mode, *response)) {
    ++checks->mismatched;
    checks->Report("request " + std::to_string(request) +
                   ": response differs from the direct planner on " +
                   family.name);
  }
}

RepairRequest MakeRequest(const Family& family, RepairMode mode,
                          const Table& table) {
  RepairRequest request;
  request.mode = mode;
  request.fds = family.parsed.fds;
  request.table = &table;
  return request;
}

/// Builds inputs, the service and its primed state. Returns the set-up
/// time, not counting the verification of priming responses.
double BuildSetup(const WorkloadSpec& spec, uint64_t seed, bool trace,
                  Setup* setup, Checks* checks) {
  const Clock::time_point start = Clock::now();
  double verify_s = 0;
  if (spec.name == "cold_marriage") {
    setup->families.push_back(MakeFamily("A<->B->C", DeltaAKeyBToC(), spec.rows));
    setup->families.push_back(MakeFamily("ssn", Example31Ssn(), spec.rows));
  } else {
    setup->families.push_back(MakeFamily("office", OfficeFds(), spec.rows));
  }
  const Family& office = *setup->families[0];
  for (int i = 0; i < spec.hot; ++i) {
    auto instance = std::make_unique<Instance>();
    instance->family = &office;
    instance->mode = i % 4 == 3 ? RepairMode::kUpdate : RepairMode::kSubset;
    Table base = ScalingFamilyTable(office.parsed, spec.rows, Mix(seed, 1, i));
    if (spec.write_share > 0) {
      instance->builder = std::make_unique<DeltaBuilder>(base);
    } else {
      instance->table.emplace(std::move(base));
    }
    setup->instances.push_back(std::move(instance));
  }
  // Owners take instances in runs of four, so each client holds the same
  // 3 subset : 1 update mix. No two clients re-send one table: derived
  // tables share its ValuePool, and an update replay's Intern can wait
  // 100 ms and more behind another client's readers of that pool, which
  // makes throughput bimodal from window to window.
  setup->owned.assign(kClients, {});
  for (int i = 0; i < spec.hot; ++i) {
    setup->owned[(i / 4) % kClients].push_back(i);
  }
  setup->service = std::make_unique<RepairService>(RepairServiceOptions{});
  // Priming for cold_marriage: a few never-seen requests per FD set, so
  // the engine's lazily built per-thread scratch exists before timing.
  for (size_t f = 0; f < setup->families.size() && spec.warmup > 0; ++f) {
    const Family& family = *setup->families[f];
    for (int w = 0; w < spec.warmup; ++w) {
      Table table =
          ScalingFamilyTable(family.parsed, spec.rows, Mix(seed, 5 + f, w));
      StatusOr<RepairResponse> response = setup->service->Serve(
          MakeRequest(family, RepairMode::kSubset, table));
      const Clock::time_point verify_start = Clock::now();
      Verify(family, table, RepairMode::kSubset, response, true, -1, nullptr,
             checks);
      verify_s += Seconds(Clock::now() - verify_start);
    }
  }
  for (size_t i = 0; i < setup->instances.size(); ++i) {
    Instance& instance = *setup->instances[i];
    const Table& table = instance.state();
    StatusOr<RepairResponse> response = setup->service->Serve(
        MakeRequest(*instance.family, instance.mode, table));
    const Clock::time_point verify_start = Clock::now();
    Verify(*instance.family, table, instance.mode, response, true,
           -1 - static_cast<int64_t>(i), nullptr, checks);
    if (trace && instance.builder) {
      CapturePlans(instance.family->cover, table, instance.mode,
                   &instance.plans);
    }
    verify_s += Seconds(Clock::now() - verify_start);
  }
  return Seconds(Clock::now() - start) - verify_s;
}

/// A digest of the inputs generated at set-up, so two runs can be checked
/// for identical inputs. Never-seen tables are generated per request from
/// (seed, client, count) and are covered by the seed.
uint64_t InputDigest(const WorkloadSpec& spec, uint64_t seed,
                     const Setup& setup) {
  StableHasher hasher;
  hasher.MixString(spec.name);
  hasher.MixUint64(seed);
  hasher.MixInt64(spec.rows);
  for (const auto& instance : setup.instances) {
    hasher.MixUint64(TableContentHash(instance->state()));
  }
  return hasher.digest();
}

// ---------------------------------------------------------------------------
// The closed loop

struct Prepared {
  RepairRequest request;
  const Family* family = nullptr;
  Instance* instance = nullptr;
  /// A never-seen table, generated before the request is timed.
  std::optional<Table> cold_table;
  TableDelta delta;
  bool write = false;
  bool compare = false;
  Clock::time_point build_start;
  Clock::time_point build_end;
};

/// A latency cluster: the path a request took and its repair mode.
int ClusterOf(ServePath path, RepairMode mode) {
  return static_cast<int>(path) * 2 + (mode == RepairMode::kUpdate ? 1 : 0);
}
constexpr int kClusters = 6;
const char* ClusterName(int cluster) {
  static const char* kNames[kClusters] = {"hit subset",   "hit update",
                                          "miss subset",  "miss update",
                                          "write subset", "write update"};
  return kNames[cluster];
}

struct Client {
  int index = 0;
  uint64_t seed = 0;
  std::unique_ptr<Rng> rng;
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> cluster_ms =
      std::vector<std::vector<double>>(kClusters);
  /// Responses seen per instance; never-seen tables generated so far.
  std::vector<int> served;
  int64_t cold_requests = 0;
  /// Completion time of each request, in seconds since the phase began.
  std::vector<double> end_s;
  /// Running totals the window sampler reads while the client runs.
  std::atomic<int64_t> done{0};
  std::atomic<int64_t> paused_wall_ns{0};
  std::atomic<int64_t> paused_cpu_ns{0};
  Checks checks;
  SpanLog log;
};

/// One mutate_stream write: ~1% of the rows, mostly cell updates plus an
/// equal number of inserts and erases so the size stays level.
bool Mutate(const WorkloadSpec& spec, Instance* instance, Rng* rng) {
  DeltaBuilder& builder = *instance->builder;
  const int arity = builder.table().schema().arity();
  const int edits = std::max(1, static_cast<int>(spec.edit_share * spec.rows));
  const int churn = std::max(1, edits / 40);
  auto value = [&] {
    std::string text = "v";
    text += std::to_string(rng->UniformUint64(instance->family->domain));
    return text;
  };
  bool ok = true;
  for (int e = 0; e < std::max(1, edits - 2 * churn); ++e) {
    const Table& table = builder.table();
    const int row = static_cast<int>(rng->UniformIndex(table.num_tuples()));
    const AttrId attr = static_cast<AttrId>(rng->UniformIndex(arity));
    ok &= builder.Update(table.id(row), attr, value()).ok();
  }
  for (int e = 0; e < churn; ++e) {
    std::vector<std::string> values(arity);
    for (std::string& v : values) v = value();
    builder.Insert(values);
    const Table& table = builder.table();
    const int row = static_cast<int>(rng->UniformIndex(table.num_tuples()));
    ok &= builder.Erase(table.id(row)).ok();
  }
  return ok;
}

/// Draws the client's next request from its seeded stream.
bool Prepare(const WorkloadSpec& spec, Setup* setup, Client* client,
             Prepared* next) {
  Rng& rng = *client->rng;
  next->instance = nullptr;
  next->write = false;
  next->delta = TableDelta{};
  if (spec.write_share > 0) {
    const std::vector<int>& owned = setup->owned[client->index];
    const int index = owned[rng.UniformIndex(owned.size())];
    Instance& instance = *setup->instances[index];
    next->instance = &instance;
    next->family = instance.family;
    next->write = rng.UniformDouble() < spec.write_share;
    bool ok = true;
    if (next->write) {
      next->build_start = Clock::now();
      ok = Mutate(spec, &instance, &rng);
      next->delta = instance.builder->Finish();
      next->build_end = Clock::now();
    }
    next->request = MakeRequest(*instance.family, instance.mode, instance.state());
    if (next->write) next->request.delta = &next->delta;
    next->compare = client->served[index]++ % spec.sample_every == 0;
    return ok;
  }
  if (rng.UniformDouble() < spec.cold_share) {
    const size_t family =
        setup->families.size() > 1 && rng.UniformDouble() < 0.25 ? 1 : 0;
    const RepairMode mode = spec.hot > 0 && rng.UniformDouble() < 0.25
                                ? RepairMode::kUpdate
                                : RepairMode::kSubset;
    const Family& chosen = *setup->families[family];
    next->cold_table.emplace(ScalingFamilyTable(
        chosen.parsed, spec.rows,
        Mix(client->seed, 2 + family,
            static_cast<uint64_t>(client->index) << 40 |
                static_cast<uint64_t>(client->cold_requests))));
    next->family = &chosen;
    next->request = MakeRequest(chosen, mode, *next->cold_table);
    next->compare = client->cold_requests++ % spec.sample_every == 0;
    return true;
  }
  const std::vector<int>& owned = setup->owned[client->index];
  const int index = owned[rng.UniformIndex(owned.size())];
  Instance& instance = *setup->instances[index];
  next->instance = &instance;
  next->family = instance.family;
  next->request = MakeRequest(*instance.family, instance.mode, instance.state());
  next->compare = client->served[index]++ % spec.sample_every == 0;
  return true;
}

/// The timed phase is cut into this many equal windows. p50, throughput and
/// CPU per request are the medians of their per-window values, so a burst
/// of host noise shorter than half the run cannot move them.
constexpr int kWindows = 20;
/// The tail is p90, taken per group of at least this many consecutive
/// requests (10 beyond p90); the run reports the median over groups, so a
/// stall of a few hundred ms moves a few groups, not the run's tail. p99
/// would need groups of 1000; on a shared 4-vCPU VM with 2-5% CPU steal it
/// spread by 39% (IQR / median) over ten runs of cold_marriage. It is
/// printed to stderr and in the fingerprint only.
constexpr double kTail = 0.90;
constexpr int64_t kTailGroup = 100;

struct Phase {
  /// Every request's latency, sorted.
  std::vector<double> latency_ms;
  /// Per group of requests: nearest-rank p90, and the fewest samples any
  /// group has beyond its p90.
  std::vector<double> group_p90_ms;
  int64_t beyond_p90 = 0;
  /// Per window: median latency; requests ÷ the mean over clients of their
  /// unpaused wall time; process CPU minus the clients' paused CPU, per
  /// request.
  std::vector<double> window_p50_ms;
  std::vector<double> window_req_per_s;
  std::vector<double> window_cpu_ms;
  double wall_s = 0;
  Clock::time_point origin;
  std::vector<std::vector<double>> cluster_ms =
      std::vector<std::vector<double>>(kClusters);
  int64_t attempted = 0;
  Checks checks;
  RepairServiceStats stats;
  SpanLog log;
};

RepairServiceStats StatsDelta(const RepairServiceStats& after,
                              const RepairServiceStats& before) {
  RepairServiceStats d = after;
  d.lookups -= before.lookups;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.single_flight_waits -= before.single_flight_waits;
  d.evictions -= before.evictions;
  d.rejected_deadline -= before.rejected_deadline;
  d.rejected_unavailable -= before.rejected_unavailable;
  d.delta_requests -= before.delta_requests;
  d.delta_splices -= before.delta_splices;
  d.delta_full_replans -= before.delta_full_replans;
  d.delta_blocks_clean -= before.delta_blocks_clean;
  d.delta_blocks_dirty -= before.delta_blocks_dirty;
  d.udelta_requests -= before.udelta_requests;
  d.udelta_splices -= before.udelta_splices;
  d.udelta_full_replans -= before.udelta_full_replans;
  d.udelta_blocks_clean -= before.udelta_blocks_clean;
  d.udelta_blocks_dirty -= before.udelta_blocks_dirty;
  return d;
}

Phase RunPhase(const WorkloadSpec& spec, uint64_t seed, double seconds,
               Setup* setup, RepairEngine* tracer) {
  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients[c].index = c;
    clients[c].seed = seed;
    clients[c].rng = std::make_unique<Rng>(Mix(seed, 9, c));
    clients[c].served.assign(setup->instances.size(), 0);
  }
  const int min_per_client = (spec.min_requests + kClients - 1) / kClients;
  const RepairServiceStats before = setup->service->stats();
  std::latch ready(kClients + 1);
  Clock::time_point origin;

  auto run = [&](Client& client) {
    ready.arrive_and_wait();
    const Clock::time_point deadline =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
    // Never run away: a slow host stops at 4× the budget (and ≤ 120 s)
    // even if the minimum request count is not reached.
    const Clock::time_point cutoff =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         std::min(4 * seconds, std::max(seconds, 120.0))));
    Prepared next;
    for (int64_t seq = 0;; ++seq) {
      Clock::time_point now = Clock::now();
      if (now >= cutoff ||
          (now >= deadline &&
           static_cast<int>(client.latency_ms.size()) >= min_per_client)) {
        break;
      }
      const int64_t id = static_cast<int64_t>(client.index) * 1'000'000'000 + seq;
      int64_t cpu = ThreadCpuNanos();
      if (!Prepare(spec, setup, &client, &next)) {
        client.checks.Report("request " + std::to_string(id) +
                             ": could not build its delta");
        ++client.checks.non_ok;
      }
      const Clock::time_point start = Clock::now();
      client.paused_wall_ns.fetch_add(Nanos(start - now),
                                      std::memory_order_relaxed);
      client.paused_cpu_ns.fetch_add(ThreadCpuNanos() - cpu,
                                     std::memory_order_relaxed);

      StatusOr<RepairResponse> response =
          next.write ? setup->service->ApplyDelta(next.request)
                     : setup->service->Serve(next.request);
      const Clock::time_point end = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(end - start).count();
      client.latency_ms.push_back(ms);
      client.end_s.push_back(Seconds(end - origin));
      client.done.fetch_add(1, std::memory_order_relaxed);

      cpu = ThreadCpuNanos();
      const Table& table = *next.request.table;
      const ServePath path = next.write ? ServePath::kWrite
                             : response.ok() && response->cache_hit
                                 ? ServePath::kHit
                                 : ServePath::kMiss;
      client.cluster_ms[ClusterOf(path, next.request.mode)].push_back(ms);
      if (tracer != nullptr && response.ok()) {
        TracedRequest traced;
        traced.id = id;
        traced.path = path;
        traced.mode = next.request.mode;
        traced.fds = &next.request.fds;
        traced.table = &table;
        traced.delta = next.write ? &next.delta : nullptr;
        traced.response = &*response;
        traced.serve_start = start;
        traced.serve_end = end;
        traced.build_start = next.build_start;
        traced.build_end = next.build_end;
        traced.plans = next.instance != nullptr ? &next.instance->plans : nullptr;
        TraceLayers(traced, tracer, &client.log);
      }
      Verify(*next.family, table, next.request.mode, response, next.compare,
             id, tracer != nullptr ? &client.log : nullptr, &client.checks);
      client.paused_wall_ns.fetch_add(Nanos(Clock::now() - end),
                                      std::memory_order_relaxed);
      client.paused_cpu_ns.fetch_add(ThreadCpuNanos() - cpu,
                                     std::memory_order_relaxed);
    }
  };

  // The sampler: process CPU and the clients' running totals at every
  // window boundary.
  struct Mark {
    double cpu_s = 0;
    int64_t done = 0;
    int64_t paused_cpu_ns = 0;
    int64_t paused_wall_ns[kClients] = {};
  };
  auto mark = [&] {
    Mark m;
    m.cpu_s = ProcessCpuSeconds();
    for (int c = 0; c < kClients; ++c) {
      m.done += clients[c].done.load(std::memory_order_relaxed);
      m.paused_cpu_ns += clients[c].paused_cpu_ns.load(std::memory_order_relaxed);
      m.paused_wall_ns[c] =
          clients[c].paused_wall_ns.load(std::memory_order_relaxed);
    }
    return m;
  };
  const double window_s = seconds / kWindows;
  std::vector<std::thread> threads;
  for (Client& client : clients) {
    threads.emplace_back([&run, &client] { run(client); });
  }
  origin = Clock::now();
  std::vector<Mark> marks = {mark()};
  ready.arrive_and_wait();
  for (int w = 1; w <= kWindows; ++w) {
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(w * window_s)));
    marks.push_back(mark());
  }
  for (std::thread& thread : threads) thread.join();

  Phase phase;
  phase.origin = origin;
  phase.wall_s = Seconds(Clock::now() - origin);
  phase.stats = StatsDelta(setup->service->stats(), before);
  std::vector<std::vector<double>> window_ms(kWindows);
  for (Client& client : clients) {
    for (size_t i = 0; i < client.latency_ms.size(); ++i) {
      const int w = static_cast<int>(client.end_s[i] / window_s);
      if (w < kWindows) window_ms[w].push_back(client.latency_ms[i]);
    }
    phase.latency_ms.insert(phase.latency_ms.end(), client.latency_ms.begin(),
                            client.latency_ms.end());
    for (int k = 0; k < kClusters; ++k) {
      phase.cluster_ms[k].insert(phase.cluster_ms[k].end(),
                                 client.cluster_ms[k].begin(),
                                 client.cluster_ms[k].end());
    }
    phase.checks.Add(client.checks);
    phase.log.Absorb(std::move(client.log));
  }
  for (int w = 0; w < kWindows; ++w) {
    const Mark& a = marks[w];
    const Mark& b = marks[w + 1];
    const double requests = static_cast<double>(b.done - a.done);
    if (requests == 0) continue;
    double active_s = window_s;
    for (int c = 0; c < kClients; ++c) {
      active_s -= (b.paused_wall_ns[c] - a.paused_wall_ns[c]) / 1e9 / kClients;
    }
    const double cpu_s =
        b.cpu_s - a.cpu_s - (b.paused_cpu_ns - a.paused_cpu_ns) / 1e9;
    phase.window_p50_ms.push_back(Median(window_ms[w]));
    phase.window_req_per_s.push_back(requests / active_s);
    phase.window_cpu_ms.push_back(cpu_s * 1e3 / requests);
  }
  phase.attempted = static_cast<int64_t>(phase.latency_ms.size());
  std::sort(phase.latency_ms.begin(), phase.latency_ms.end());
  // Requests in completion order, cut into groups of equal count.
  std::vector<std::pair<double, double>> by_end;  // (end_s, ms)
  for (const Client& client : clients) {
    for (size_t i = 0; i < client.latency_ms.size(); ++i) {
      by_end.emplace_back(client.end_s[i], client.latency_ms[i]);
    }
  }
  std::sort(by_end.begin(), by_end.end());
  const int64_t total = static_cast<int64_t>(by_end.size());
  const int64_t groups = std::max<int64_t>(1, total / kTailGroup);
  for (int64_t g = 0; g < groups; ++g) {
    std::vector<double> ms;
    for (int64_t i = g * total / groups; i < (g + 1) * total / groups; ++i) {
      ms.push_back(by_end[i].second);
    }
    std::sort(ms.begin(), ms.end());
    phase.group_p90_ms.push_back(Percentile(ms, kTail));
    const int64_t n = static_cast<int64_t>(ms.size());
    const int64_t beyond = n - static_cast<int64_t>(std::ceil(kTail * n));
    phase.beyond_p90 = g == 0 ? beyond : std::min(phase.beyond_p90, beyond);
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Reporting

using Metrics = std::vector<std::pair<std::string, double>>;

std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name == "req_per_s") return "1/s";
  if (name == "setup_s") return "s";
  if (ends("_ms") || name == "cpu_ms_per_req") return "ms";
  if (ends("_us")) return "us";
  if (ends("_mb")) return "MB";
  if (ends("_edges") || ends("_waits") || ends("evictions")) return "count";
  return "ratio";
}

std::string Number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           Number(metrics[i].second) + ", \"unit\": \"" +
           UnitOf(metrics[i].first) + "\"}";
  }
  return out + "}";
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string spans;
  std::string commit = "unknown";
};

struct Outcome {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
};

Outcome RunWorkload(const WorkloadSpec& spec, const Config& config) {
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const HostSpeed host = MeasureHost(std::max(1, nproc));

  Checks setup_checks;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  const int setups = config.trace ? 1 : spec.setups;
  for (int i = 0; i < setups; ++i) {
    setup.reset();  // two set-ups never coexist, so peak_rss_mb sees one
    setup = std::make_unique<Setup>();
    setup_s.push_back(
        BuildSetup(spec, config.seed, config.trace, setup.get(), &setup_checks));
  }
  const uint64_t digest = InputDigest(spec, config.seed, *setup);
  std::unique_ptr<RepairEngine> tracer;
  if (config.trace) tracer = std::make_unique<RepairEngine>(EngineOptions{});

  Phase phase = RunPhase(spec, config.seed, config.seconds, setup.get(),
                         tracer.get());

  Outcome outcome;
  outcome.attempted = phase.attempted;
  outcome.failed = phase.checks.failures();
  outcome.correct = outcome.failed == 0 && setup_checks.failures() == 0 &&
                    phase.stats.rejected_deadline == 0 &&
                    phase.stats.rejected_unavailable == 0;
  const double n = static_cast<double>(std::max<int64_t>(1, phase.attempted));
  // Where p50, p90 and p99 fall: one line per latency cluster, on stderr.
  std::cerr << std::fixed << std::setprecision(3) << spec.name
            << (config.trace ? " (traced)" : "") << ": " << phase.attempted
            << " requests, p50 " << Percentile(phase.latency_ms, 0.5)
            << " ms, p90 " << Percentile(phase.latency_ms, kTail) << " ms, p99 "
            << Percentile(phase.latency_ms, 0.99) << " ms\n";
  for (int k = 0; k < kClusters; ++k) {
    std::vector<double>& ms = phase.cluster_ms[k];
    if (ms.empty()) continue;
    std::sort(ms.begin(), ms.end());
    std::cerr << "  " << std::setw(12) << ClusterName(k) << "  share "
              << ms.size() / n << "  min " << ms.front() << "  p50 "
              << Percentile(ms, 0.5) << "  p90 " << Percentile(ms, kTail)
              << "  p99 " << Percentile(ms, 0.99)
              << "  max " << ms.back() << " ms\n";
  }
  std::cerr << "  windows (p50 ms / req/s / cpu ms):";
  for (size_t w = 0; w < phase.window_p50_ms.size(); ++w) {
    std::cerr << "  " << std::setprecision(2) << phase.window_p50_ms[w] << "/"
              << std::setprecision(0) << phase.window_req_per_s[w] << "/"
              << std::setprecision(2) << phase.window_cpu_ms[w];
  }
  std::cerr << "\n" << std::defaultfloat << std::setprecision(6);
  if (config.trace) {
    outcome.metrics = LayerMetrics(phase.log, phase.stats, host.speedup);
    if (!config.spans.empty() &&
        !phase.log.WriteJsonLines(config.spans, phase.origin)) {
      std::cerr << "served_bench: could not write spans to " << config.spans
                << "\n";
    }
  } else {
    outcome.metrics = {
        {"latency_p50_ms", Median(phase.window_p50_ms)},
        {"latency_p90_ms", Median(phase.group_p90_ms)},
        {"req_per_s", Median(phase.window_req_per_s)},
        {"cpu_ms_per_req", Median(phase.window_cpu_ms)},
        {"setup_s", Median(setup_s)},
        {"peak_rss_mb", PeakRssMb()},
    };
  }

  std::ostringstream fingerprint;
  fingerprint << "{\"fingerprint\": {\"workload\": \"" << spec.name
              << "\", \"seed\": " << config.seed
              << ", \"trace\": " << (config.trace ? 1 : 0)
              << ", \"nproc\": " << nproc << ", \"hardware_concurrency\": "
              << std::thread::hardware_concurrency()
              << ", \"spin_speedup\": " << Number(host.speedup)
              << ", \"spin_ns\": " << Number(host.spin_ns) << ", \"simd\": \""
              << simd::SimdModeName(simd::ActiveSimdMode())
              << "\", \"build_type\": \"" << FDR_BENCH_BUILD_TYPE
              << "\", \"commit\": \"" << config.commit
              << "\", \"input_digest\": \"" << std::hex << digest << std::dec
              << "\", \"clients\": " << kClients << ", \"max_inflight\": "
              << setup->service->max_inflight()
              << ", \"requests\": " << phase.attempted
              << ", \"p90_groups\": " << phase.group_p90_ms.size()
              << ", \"beyond_p90\": " << phase.beyond_p90 << ", \"p99_ms\": "
              << Number(Percentile(phase.latency_ms, 0.99))
              << ", \"wall_s\": " << Number(phase.wall_s)
              << ", \"sampled\": " << phase.checks.sampled
              << ", \"non_ok\": " << phase.checks.non_ok
              << ", \"unsatisfied\": " << phase.checks.unsatisfied
              << ", \"mismatched\": " << phase.checks.mismatched
              << ", \"setup_failures\": " << setup_checks.failures()
              << ", \"error_rate\": " << Number(outcome.failed / n)
              << ", \"hit_ratio\": "
              << Number(phase.stats.lookups > 0
                            ? static_cast<double>(phase.stats.hits) /
                                  phase.stats.lookups
                            : 0)
              << "}}";
  std::cout << fingerprint.str() << "\n";
  return outcome;
}

void PrintOutcome(const Outcome& outcome) {
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << MetricsJson(outcome.metrics) << "}"
            << std::endl;
}

/// Every workload, tiny, untraced then traced: all metrics present and
/// finite, no failed request.
int Smoke(const Config& base) {
  static const char* kWorkloads[] = {"repeat_read", "cold_marriage",
                                     "mutate_stream"};
  static const size_t kEndToEnd = 6;
  static const size_t kPerLayer = 29;
  bool ok = true;
  Outcome total;
  total.correct = true;
  for (const char* name : kWorkloads) {
    for (bool trace : {false, true}) {
      Config config = base;
      config.workload = name;
      config.seconds = 0.2;
      config.trace = trace;
      Outcome outcome = RunWorkload(*Spec(name, true), config);
      const size_t expected = trace ? kPerLayer : kEndToEnd;
      bool good = outcome.correct && outcome.failed == 0 &&
                  outcome.attempted > 0 && outcome.metrics.size() == expected;
      for (const auto& [metric, value] : outcome.metrics) {
        if (!std::isfinite(value)) {
          std::cerr << "smoke: " << name << " " << metric << " is not finite\n";
          good = false;
        }
      }
      PrintOutcome(outcome);
      std::cerr << "smoke: " << name << (trace ? " traced" : "") << ": "
                << (good ? "ok" : "FAILED") << " (" << outcome.attempted
                << " requests)\n";
      ok &= good;
      total.correct &= good;
      total.attempted += outcome.attempted;
      total.failed += outcome.failed;
    }
  }
  PrintOutcome(total);
  return ok ? 0 : 1;
}

int Usage() {
  std::cerr << "usage: served_bench --workload repeat_read|cold_marriage|"
               "mutate_stream --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--commit SHA]\n"
               "       served_bench --smoke\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
    } else if (arg == "--spans") {
      config.spans = value;
    } else if (arg == "--commit") {
      config.commit = value;
    } else {
      return Usage();
    }
  }
  if (config.smoke) return Smoke(config);
  std::optional<WorkloadSpec> spec = Spec(config.workload, false);
  if (!spec) return Usage();
  Outcome outcome = RunWorkload(*spec, config);
  PrintOutcome(outcome);
  return outcome.correct ? 0 : 1;
}
