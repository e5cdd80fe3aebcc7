// Per-layer spans for the served-request benchmark's traced run.
//
// The traced run serves the same seeded request log as the end-to-end run.
// Around every Serve/ApplyDelta call it records a `service.serve` span; it
// then re-executes, on the same inputs and through public headers only,
// each layer call the request's path crossed, and records one child span
// per call:
//
//   hit:   catalog.cover → storage.content_hash → storage.subset_by_rows
//                                               | storage.clone_apply
//   miss:  catalog.cover → storage.content_hash → engine.repair
//                                               | urepair.plan
//   write: storage.delta_build → storage.delta_validate → srepair.splice
//                                                       | urepair.splice
//
// Baselines that are not on the request's path — the direct sequential
// `srepair.plan`, the top-level marriage `graph.matching`, and the
// benchmark's own `verify.satisfies` — are root spans tagged with the
// request id, so a layer's self time (serve span minus its children) never
// subtracts them. Spans stay in memory until the run ends.

#ifndef PERFBENCH_LAYER_TRACE_H_
#define PERFBENCH_LAYER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/fdset.h"
#include "engine/repair_engine.h"
#include "service/repair_service.h"
#include "storage/table.h"
#include "storage/table_delta.h"
#include "urepair/opt_urepair.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Which way a served request went through the service.
enum class ServePath { kHit, kMiss, kWrite };

/// One timed interval of one request.
struct Span {
  const char* name = "";
  int64_t request = 0;
  /// Index of the parent span in the same log; -1 for a root span.
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
  /// An exact size measured with the span (graph edges); -1 when none.
  int64_t count = -1;

  double us() const {
    return std::chrono::duration<double, std::micro>(end - start).count();
  }
};

/// What the log knows about each traced request.
struct RequestRecord {
  int64_t id = 0;
  ServePath path = ServePath::kMiss;
  fdrepair::RepairMode mode = fdrepair::RepairMode::kSubset;
  /// Index of the request's service.serve span.
  int serve_span = -1;
};

/// An append-only span log; one per client thread, merged after the run.
class SpanLog {
 public:
  int Add(const char* name, int64_t request, int parent,
          Clock::time_point start, Clock::time_point end, int64_t count = -1);
  void AddRequest(const RequestRecord& record) { requests_.push_back(record); }
  /// Moves `other`'s spans and records in, re-basing its parent indices.
  void Absorb(SpanLog&& other);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<RequestRecord>& requests() const { return requests_; }

  /// Writes one JSON object per span, times in µs since `origin`.
  bool WriteJsonLines(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
  std::vector<RequestRecord> requests_;
};

/// The benchmark's own captured plans for one mutable instance: the state
/// the traced run splices from, refreshed by every traced write.
struct PlanState {
  std::shared_ptr<fdrepair::SRepairPlanCache> splan;
  std::shared_ptr<fdrepair::URepairPlanCache> uplan;
};

/// Captures `plans` for the state `table` (a cold planner run with capture).
void CapturePlans(const fdrepair::FdSet& cover, const fdrepair::Table& table,
                  fdrepair::RepairMode mode, PlanState* plans);

/// One served request, as the traced run re-executes it.
struct TracedRequest {
  int64_t id = 0;
  ServePath path = ServePath::kMiss;
  fdrepair::RepairMode mode = fdrepair::RepairMode::kSubset;
  const fdrepair::FdSet* fds = nullptr;
  const fdrepair::Table* table = nullptr;
  const fdrepair::TableDelta* delta = nullptr;
  const fdrepair::RepairResponse* response = nullptr;
  Clock::time_point serve_start;
  Clock::time_point serve_end;
  /// Writes: the client's DeltaBuilder edits + Finish.
  Clock::time_point build_start;
  Clock::time_point build_end;
  /// Writes: the pre-mutation plans; replaced by the spliced state's.
  PlanState* plans = nullptr;
};

/// Records the serve span and every layer span of `request` into `log`.
/// `engine` runs engine.repair with the service's default engine options.
void TraceLayers(const TracedRequest& request, fdrepair::RepairEngine* engine,
                 SpanLog* log);

/// The per-layer metrics of one traced run, in BENCHMARK.json order. A
/// layer the workload never crossed reads 0.
std::vector<std::pair<std::string, double>> LayerMetrics(
    const SpanLog& log, const fdrepair::RepairServiceStats& stats,
    double spin_speedup);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_TRACE_H_
