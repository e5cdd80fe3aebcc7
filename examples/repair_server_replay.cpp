// repair_server_replay: replays a generated request log through the
// RepairService, the way a deployed repair endpoint would see traffic —
// a mix of repeated and fresh (FD set, table) instances, optionally from
// several client threads — and prints the throughput and cache counters.
//
// Usage:
//   repair_server_replay [--requests=N] [--repeat=0.9] [--rows=N]
//                        [--clients=C] [--mode=subset|update|soft|mixed]
//                        [--capacity=N] [--seed=S]
//                        [--backend=NAME] [--max-ratio=R]
//                        [--weight-profile=W[,W...]]
//                        [--mutation-rate=M]
//
//   --requests   length of the replayed log           (default 200)
//   --repeat     probability a request re-sends a previously seen
//                instance                             (default 0.9)
//   --rows       tuples per generated table           (default 500)
//   --clients    concurrent client threads            (default 4)
//   --mode       repair family of the requests        (default subset;
//                "soft" serves RepairMode::kSoft with the
//                --weight-profile weights; "mixed" alternates
//                subset/update per instance)
//   --capacity   result-cache entries                 (default 256)
//   --seed       workload seed                        (default 1)
//   --backend    hard-side solver backend for subset/soft requests
//                ("local-ratio", "bnb", "ilp", "lp-rounding";
//                default: planner auto-routing; soft cores need a
//                soft-capable backend)
//   --max-ratio  reject subset/soft repairs certified only above this
//                ratio (default 0 = no gate)
//   --weight-profile  per-FD violation weights for --mode=soft: either
//                one value applied to every FD or a comma-separated
//                list aligned with the FD set ("inf"/"hard" pins an FD
//                hard). Default: all FDs stay hard, which serves
//                bit-identically to --mode=subset through the soft
//                mode's delegation.
//   --mutation-rate  fraction of an instance's rows edited before each
//                repeated request (default 0 = tables never change).
//                Repeats are then served through
//                RepairService::ApplyDelta with a chained TableDelta, and
//                every delta request is shadowed by a bypass_cache full
//                re-plan of the identical mutated state, so the summary
//                can print the delta-hit (splice) ratios — per repair
//                mode: kept-id recipe splices for subset instances,
//                cell-edit recipe splices for update instances — and the
//                measured delta-over-full speedup. See
//                docs/ARCHITECTURE.md, "Caching & invalidation
//                semantics".
//
// Exits non-zero if any request fails for a reason other than the
// admission-control rejections this demo is meant to surface.

#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "service/repair_service.h"
#include "storage/table_delta.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

using namespace fdrepair;

namespace {

int Usage() {
  std::cerr << "usage: repair_server_replay [--requests=N] [--repeat=R] "
               "[--rows=N] [--clients=C] [--mode=subset|update|soft|mixed] "
               "[--capacity=N] [--seed=S] [--backend=NAME] [--max-ratio=R] "
               "[--weight-profile=W[,W...]] [--mutation-rate=M]\n";
  return 2;
}

struct Args {
  int requests = 200;
  double repeat = 0.9;
  int rows = 500;
  int clients = 4;
  std::string mode = "subset";
  size_t capacity = 256;
  uint64_t seed = 1;
  std::string backend;
  double max_ratio = 0;
  std::string weight_profile;
  double mutation_rate = 0;
};

/// Parses "--weight-profile=": one weight or a comma-separated list;
/// "inf"/"hard" mean kHardFdWeight. Returns false on malformed input.
bool ParseWeightProfile(const std::string& text, int num_fds,
                        std::vector<double>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    std::string item = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (item == "inf" || item == "hard") {
      out->push_back(kHardFdWeight);
    } else {
      char* end = nullptr;
      double value = std::strtod(item.c_str(), &end);
      if (end == item.c_str() || *end != '\0' || !(value > 0)) return false;
      out->push_back(value);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  // A single value fans out over every FD.
  if (out->size() == 1 && num_fds > 1) {
    out->assign(static_cast<size_t>(num_fds), (*out)[0]);
  }
  return static_cast<int>(out->size()) == num_fds;
}

/// Per-instance mutable state for --mutation-rate: the DeltaBuilder owns the
/// instance's evolving table and the delta chain; the mutex serializes the
/// (mutate, ApplyDelta, shadow re-plan) sequence per instance — concurrent
/// clients still overlap freely across *different* instances, which is the
/// contention pattern a sharded deployment sees.
struct MutableInstance {
  std::mutex mu;
  std::unique_ptr<DeltaBuilder> builder;
  bool primed = false;
};

bool ParseInt(const std::string& text, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    long long value = 0;
    if (StartsWith(arg, "--requests=") && ParseInt(arg.substr(11), &value)) {
      args.requests = static_cast<int>(value);
    } else if (StartsWith(arg, "--repeat=")) {
      args.repeat = std::atof(arg.substr(9).c_str());
    } else if (StartsWith(arg, "--rows=") && ParseInt(arg.substr(7), &value)) {
      args.rows = static_cast<int>(value);
    } else if (StartsWith(arg, "--clients=") &&
               ParseInt(arg.substr(10), &value)) {
      args.clients = std::max(1, static_cast<int>(value));
    } else if (StartsWith(arg, "--mode=")) {
      args.mode = arg.substr(7);
    } else if (StartsWith(arg, "--capacity=") &&
               ParseInt(arg.substr(11), &value)) {
      args.capacity = static_cast<size_t>(value);
    } else if (StartsWith(arg, "--seed=") && ParseInt(arg.substr(7), &value)) {
      args.seed = static_cast<uint64_t>(value);
    } else if (StartsWith(arg, "--backend=")) {
      args.backend = arg.substr(10);
    } else if (StartsWith(arg, "--max-ratio=")) {
      args.max_ratio = std::atof(arg.substr(12).c_str());
    } else if (StartsWith(arg, "--weight-profile=")) {
      args.weight_profile = arg.substr(17);
    } else if (StartsWith(arg, "--mutation-rate=")) {
      args.mutation_rate = std::atof(arg.substr(16).c_str());
    } else {
      return Usage();
    }
  }
  if (args.mode != "subset" && args.mode != "update" && args.mode != "soft" &&
      args.mode != "mixed") {
    return Usage();
  }
  if (args.mutation_rate < 0 || args.mutation_rate > 1) {
    std::cerr << "--mutation-rate wants a fraction in [0, 1]\n";
    return Usage();
  }
  if (args.mode == "soft" && args.mutation_rate > 0) {
    // The service rejects delta + soft (no soft splice); don't generate a
    // log every request of which would fail.
    std::cerr << "--mode=soft does not support --mutation-rate\n";
    return Usage();
  }
  if (!args.weight_profile.empty() && args.mode != "soft") {
    std::cerr << "--weight-profile requires --mode=soft\n";
    return Usage();
  }

  // Generate the instance population and the request log: each log entry
  // either re-sends a previously seen instance (probability --repeat) or
  // introduces a fresh one.
  ParsedFdSet parsed = OfficeFds();
  std::vector<double> soft_weights;
  if (!args.weight_profile.empty() &&
      !ParseWeightProfile(args.weight_profile, static_cast<int>(parsed.fds.size()),
                          &soft_weights)) {
    std::cerr << "--weight-profile wants one positive weight (or \"inf\"/"
                 "\"hard\") or a comma-separated list of "
              << parsed.fds.size() << "\n";
    return Usage();
  }
  Rng rng(args.seed);
  std::vector<Table> tables;
  std::vector<int> log;
  std::vector<int> seen;
  log.reserve(args.requests);
  for (int r = 0; r < args.requests; ++r) {
    if (!seen.empty() && rng.UniformDouble() < args.repeat) {
      log.push_back(seen[rng.UniformIndex(seen.size())]);
    } else {
      int fresh = static_cast<int>(tables.size());
      tables.push_back(
          ScalingFamilyTable(parsed, args.rows, args.seed * 7919 + fresh));
      log.push_back(fresh);
      seen.push_back(fresh);
    }
  }
  auto mode_of = [&](int instance) {
    if (args.mode == "subset") return RepairMode::kSubset;
    if (args.mode == "update") return RepairMode::kUpdate;
    if (args.mode == "soft") return RepairMode::kSoft;
    return instance % 2 == 0 ? RepairMode::kSubset : RepairMode::kUpdate;
  };

  RepairServiceOptions options;
  options.cache_capacity = args.capacity;
  // A forced exact backend (--backend=ilp/bnb) would otherwise search
  // without bound on instances whose optimality proof is out of reach
  // (dense conflict graphs have LP integrality gap ≈ 2). A node budget
  // keeps every request bounded: truncated searches return their
  // factor-2 incumbent with an honest certified ratio instead of
  // claiming optimality — exactly what the provenance line below shows.
  options.srepair.node_budget = 20000;
  RepairService service(options);

  // Replay: client c serves log entries c, c+clients, c+2*clients, ...
  // Under --mutation-rate, a repeated instance is first edited (that
  // fraction of its rows), then served through ApplyDelta, then shadowed
  // by a bypass_cache full re-plan of the same mutated state — the two
  // timings below are what the summary's speedup line compares.
  std::vector<MutableInstance> instances(
      args.mutation_rate > 0 ? tables.size() : 0);
  const int edits_per_repeat =
      std::max(1, static_cast<int>(args.mutation_rate * args.rows));
  const int domain = std::max(4, args.rows / 16);
  std::atomic<int> failures{0};
  std::atomic<long> served{0};
  std::atomic<int64_t> delta_ns{0};
  std::atomic<int64_t> full_ns{0};
  std::atomic<long> shadowed{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng edit_rng(args.seed * 6271 + c);
      for (size_t r = c; r < log.size(); r += args.clients) {
        RepairRequest request;
        request.mode = mode_of(log[r]);
        request.fds = parsed.fds;
        request.table = &tables[log[r]];
        if (request.mode != RepairMode::kUpdate) {
          request.options.backend = args.backend;
          request.options.max_ratio = args.max_ratio;
        }
        if (request.mode == RepairMode::kSoft) {
          request.options.soft_weights = soft_weights;
        }
        std::unique_lock<std::mutex> instance_lock;
        TableDelta delta;
        bool timed_delta = false;
        if (args.mutation_rate > 0) {
          MutableInstance& instance = instances[log[r]];
          instance_lock = std::unique_lock<std::mutex>(instance.mu);
          if (!instance.builder) {
            instance.builder = std::make_unique<DeltaBuilder>(tables[log[r]]);
          }
          if (instance.primed) {
            DeltaBuilder& builder = *instance.builder;
            for (int e = 0; e < edits_per_repeat; ++e) {
              const int row = static_cast<int>(
                  edit_rng.UniformIndex(builder.table().num_tuples()));
              const TupleId id = builder.table().id(row);
              const AttrId attr = static_cast<AttrId>(
                  edit_rng.UniformIndex(builder.table().schema().arity()));
              if (!builder
                       .Update(id, attr,
                               "v" + std::to_string(
                                         edit_rng.UniformInt(0, domain - 1)))
                       .ok()) {
                failures.fetch_add(1);
                continue;
              }
            }
            delta = builder.Finish();
            request.delta = &delta;
            timed_delta = true;
          }
          request.table = &instance.builder->table();
        }
        auto request_start = std::chrono::steady_clock::now();
        auto response = timed_delta ? service.ApplyDelta(request)
                                    : service.Serve(request);
        auto request_end = std::chrono::steady_clock::now();
        if (response.ok()) {
          served.fetch_add(1);
          if (args.mutation_rate > 0) instances[log[r]].primed = true;
        } else {
          failures.fetch_add(1);
          std::cerr << "request " << r << " failed: " << response.status()
                    << "\n";
        }
        if (timed_delta) {
          delta_ns.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  request_end - request_start)
                  .count());
          // Shadow re-plan: the same mutated state, cache bypassed.
          RepairRequest cold = request;
          cold.delta = nullptr;
          cold.options.bypass_cache = true;
          auto cold_start = std::chrono::steady_clock::now();
          auto replanned = service.Serve(cold);
          auto cold_end = std::chrono::steady_clock::now();
          if (replanned.ok()) {
            full_ns.fetch_add(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    cold_end - cold_start)
                    .count());
            shadowed.fetch_add(1);
          } else {
            failures.fetch_add(1);
            std::cerr << "shadow re-plan for request " << r
                      << " failed: " << replanned.status() << "\n";
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  RepairServiceStats stats = service.stats();
  double total = static_cast<double>(stats.hits + stats.misses);
  std::cout << "replayed " << served.load() << "/" << args.requests
            << " requests (" << tables.size() << " distinct instances, "
            << args.clients << " clients, mode " << args.mode << ") in "
            << FormatDouble(elapsed.count(), 4) << " s  ("
            << FormatDouble(served.load() / elapsed.count(), 4) << " req/s)\n"
            << "cache: " << stats.hits << " hits, " << stats.misses
            << " misses (hit ratio "
            << FormatDouble(total > 0 ? stats.hits / total : 0, 4) << "), "
            << stats.single_flight_waits << " single-flight waits, "
            << stats.evictions << " evictions, " << stats.entries
            << " resident entries\n"
            << "rejections: " << stats.rejected_deadline << " deadline, "
            << stats.rejected_unavailable << " unavailable\n";

  if (args.mutation_rate > 0) {
    std::cout << "delta (mutation rate " << FormatDouble(args.mutation_rate, 4)
              << ", " << edits_per_repeat << " edits/repeat):\n";
    if (stats.delta_requests > 0) {
      const double delta_total = static_cast<double>(stats.delta_requests);
      const double splice_ratio = stats.delta_splices / delta_total;
      const uint64_t blocks =
          stats.delta_blocks_clean + stats.delta_blocks_dirty;
      const double clean_ratio =
          blocks > 0 ? static_cast<double>(stats.delta_blocks_clean) /
                           static_cast<double>(blocks)
                     : 0;
      std::cout << "  subset: " << stats.delta_requests << " delta requests, "
                << stats.delta_splices << " spliced / "
                << stats.delta_full_replans
                << " full re-plans (delta-hit ratio "
                << FormatDouble(splice_ratio, 4) << ", clean-block ratio "
                << FormatDouble(clean_ratio, 4) << ")\n";
    }
    if (stats.udelta_requests > 0) {
      const double udelta_total = static_cast<double>(stats.udelta_requests);
      const double usplice_ratio = stats.udelta_splices / udelta_total;
      const uint64_t ublocks =
          stats.udelta_blocks_clean + stats.udelta_blocks_dirty;
      const double uclean_ratio =
          ublocks > 0 ? static_cast<double>(stats.udelta_blocks_clean) /
                            static_cast<double>(ublocks)
                      : 0;
      std::cout << "  update: " << stats.udelta_requests
                << " delta requests, " << stats.udelta_splices
                << " spliced / " << stats.udelta_full_replans
                << " full re-plans (update-delta-hit ratio "
                << FormatDouble(usplice_ratio, 4) << ", clean-block ratio "
                << FormatDouble(uclean_ratio, 4) << ")\n";
    }
    const long shadows = shadowed.load();
    const double delta_us =
        shadows > 0 ? delta_ns.load() / 1e3 / shadows : 0;
    const double full_us = shadows > 0 ? full_ns.load() / 1e3 / shadows : 0;
    std::cout << "delta timing: " << FormatDouble(delta_us, 4)
              << " us/request vs " << FormatDouble(full_us, 4)
              << " us bypass_cache re-plan  ("
              << FormatDouble(delta_us > 0 ? full_us / delta_us : 0, 4)
              << "x speedup, " << shadows << " shadow re-plans)\n";
  }

  // One post-replay probe against instance 0 shows the solver provenance
  // the cache replays: route + backend + proved lower bound + certified
  // per-instance ratio.
  if (args.mode != "update" && !tables.empty()) {
    RepairRequest probe;
    probe.mode =
        args.mode == "soft" ? RepairMode::kSoft : RepairMode::kSubset;
    probe.fds = parsed.fds;
    probe.table = &tables[0];
    probe.options.backend = args.backend;
    probe.options.max_ratio = args.max_ratio;
    if (probe.mode == RepairMode::kSoft) {
      probe.options.soft_weights = soft_weights;
    }
    auto response = service.Serve(probe);
    if (response.ok()) {
      std::cout << "sample provenance (instance 0, "
                << (response->cache_hit ? "cached" : "cold")
                << "): route " << response->route << ", backend "
                << (response->backend.empty() ? "-" : response->backend)
                << ", distance " << FormatDouble(response->distance, 4)
                << ", " << (response->optimal ? "optimal" : "approximate")
                << ", lower bound "
                << FormatDouble(response->lower_bound, 4)
                << ", certified ratio "
                << FormatDouble(response->achieved_ratio, 4) << "\n";
    }
  }
  return failures.load() == 0 ? 0 : 1;
}
