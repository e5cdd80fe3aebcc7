#include "layer_trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <unordered_map>

#include "graph/bipartite_matching.h"
#include "srepair/opt_srepair.h"
#include "srepair/planner.h"
#include "srepair/simplification.h"
#include "storage/table_hash.h"
#include "storage/table_view.h"

namespace perfbench {

using namespace fdrepair;

namespace {

/// Keeps a re-executed call's result observable so it cannot be elided.
void Keep(uint64_t value) {
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(value, std::memory_order_relaxed);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Subroutine 3's top-level graph for a cover whose first simplification
/// is an lhs marriage (X1, X2): one node per distinct π_X1 / π_X2 value,
/// one edge per σ_{X1=a1,X2=a2} block weighted by that block's optimal
/// S-repair under ∆ − X1X2. Times only the matching itself.
void TraceTopLevelMatching(const FdSet& cover, const Table& table,
                           int64_t request, SpanLog* log) {
  const SimplificationStep step = NextSimplification(cover);
  if (step.kind != SimplificationKind::kLhsMarriage) return;
  std::unordered_map<ProjectionKey, int, ProjectionKeyHash> left;
  std::unordered_map<ProjectionKey, int, ProjectionKeyHash> right;
  std::vector<BipartiteEdge> edges;
  TableView view(table);
  for (const TableView& block :
       view.GroupBy(step.marriage_x1.Union(step.marriage_x2))) {
    StatusOr<std::vector<int>> kept = OptSRepairRows(step.after, block);
    if (!kept.ok()) return;
    double weight = 0;
    for (int row : *kept) weight += table.weight(row);
    const int l = left.try_emplace(ProjectTuple(block.tuple(0), step.marriage_x1),
                                   static_cast<int>(left.size()))
                      .first->second;
    const int r =
        right.try_emplace(ProjectTuple(block.tuple(0), step.marriage_x2),
                          static_cast<int>(right.size()))
            .first->second;
    edges.push_back(BipartiteEdge{l, r, weight});
  }
  const Clock::time_point start = Clock::now();
  MatchingResult matching =
      MaxWeightBipartiteMatching(static_cast<int>(left.size()),
                                 static_cast<int>(right.size()), edges);
  log->Add("graph.matching", request, -1, start, Clock::now(),
           static_cast<int64_t>(edges.size()));
  Keep(matching.pairs.size());
}

/// Root span: the direct sequential planner on the request's table.
void TraceDirectPlan(const FdSet& cover, const Table& table, int64_t request,
                     SpanLog* log) {
  const Clock::time_point start = Clock::now();
  StatusOr<SRepairResult> direct = ComputeSRepair(cover, table);
  log->Add("srepair.plan", request, -1, start, Clock::now());
  if (direct.ok()) Keep(direct->repair.num_tuples());
}

}  // namespace

int SpanLog::Add(const char* name, int64_t request, int parent,
                 Clock::time_point start, Clock::time_point end,
                 int64_t count) {
  spans_.push_back(Span{name, request, parent, start, end, count});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Absorb(SpanLog&& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span& span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
  for (RequestRecord& record : other.requests_) {
    record.serve_span += offset;
    requests_.push_back(record);
  }
  other.spans_.clear();
  other.requests_.clear();
}

bool SpanLog::WriteJsonLines(const std::string& path,
                             Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) return false;
  auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::vector<const RequestRecord*> serve_of(spans_.size(), nullptr);
  for (const RequestRecord& record : requests_) {
    serve_of[record.serve_span] = &record;
  }
  static const char* kPaths[] = {"hit", "miss", "write"};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"request\":" << span.request << ",\"name\":\"" << span.name
        << "\",\"parent\":" << span.parent
        << ",\"start_us\":" << since(span.start)
        << ",\"end_us\":" << since(span.end);
    if (span.count >= 0) out << ",\"count\":" << span.count;
    if (const RequestRecord* record = serve_of[i]) {
      out << ",\"path\":\"" << kPaths[static_cast<int>(record->path)]
          << "\",\"mode\":\"" << RepairModeToString(record->mode) << "\"";
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

void CapturePlans(const FdSet& cover, const Table& table, RepairMode mode,
                  PlanState* plans) {
  if (mode == RepairMode::kUpdate) {
    auto uplan = std::make_shared<URepairPlanCache>();
    if (OptURepairCells(cover, table, {}, uplan.get()).ok()) {
      plans->uplan = std::move(uplan);
    }
    return;
  }
  auto splan = std::make_shared<SRepairPlanCache>();
  SRepairOptions options;
  options.capture = splan.get();
  if (ComputeSRepair(cover, table, options).ok()) plans->splan = std::move(splan);
}

void TraceLayers(const TracedRequest& request, RepairEngine* engine,
                 SpanLog* log) {
  const int serve = log->Add("service.serve", request.id, -1,
                             request.serve_start, request.serve_end);
  log->AddRequest(RequestRecord{request.id, request.path, request.mode, serve});
  const Table& table = *request.table;
  auto child = [&](const char* name, Clock::time_point start) {
    log->Add(name, request.id, serve, start, Clock::now());
  };
  Clock::time_point start;

  if (request.path == ServePath::kWrite) {
    log->Add("storage.delta_build", request.id, serve, request.build_start,
             request.build_end);
    start = Clock::now();
    Status valid = ValidateDelta(*request.delta, table);
    child("storage.delta_validate", start);
    Keep(valid.ok());
    const FdSet cover = request.fds->CanonicalCover();
    PlanState& plans = *request.plans;
    if (request.mode == RepairMode::kUpdate) {
      auto next = std::make_shared<URepairPlanCache>();
      OptURepairOptions options;
      options.delta_base = plans.uplan.get();
      options.delta_updated_ids = &request.delta->updated;
      start = Clock::now();
      StatusOr<OptURepairResult> result =
          OptURepairCells(cover, table, options, next.get());
      if (!result.ok() &&
          result.status().code() == StatusCode::kFailedPrecondition) {
        // The service's own fallback: a refused splice re-plans in full.
        options.delta_base = nullptr;
        result = OptURepairCells(cover, table, options, next.get());
      }
      child("urepair.splice", start);
      if (result.ok()) Keep(result->edits.size());
      plans.uplan = std::move(next);
    } else {
      auto next = std::make_shared<SRepairPlanCache>();
      SRepairOptions options;
      options.capture = next.get();
      options.delta_base = plans.splan.get();
      options.delta_updated_ids = &request.delta->updated;
      start = Clock::now();
      StatusOr<SRepairResult> result = ComputeSRepair(cover, table, options);
      child("srepair.splice", start);
      if (result.ok()) Keep(result->repair.num_tuples());
      plans.splan = std::move(next);
    }
    return;
  }

  start = Clock::now();
  const FdSet cover = request.fds->CanonicalCover();
  child("catalog.cover", start);
  start = Clock::now();
  const uint64_t hash = TableContentHash(table);
  child("storage.content_hash", start);
  Keep(hash);

  if (request.path == ServePath::kHit) {
    const Table& repair = request.response->repair;
    if (request.mode == RepairMode::kUpdate) {
      // The recipe a hit replays: every cell the response rewrote.
      struct Edit {
        int row;
        AttrId attr;
        std::string text;
      };
      std::vector<Edit> edits;
      for (int row = 0; row < table.num_tuples(); ++row) {
        for (AttrId attr = 0; attr < table.schema().arity(); ++attr) {
          if (repair.value(row, attr) != table.value(row, attr)) {
            edits.push_back(Edit{row, attr, repair.ValueText(row, attr)});
          }
        }
      }
      start = Clock::now();
      Table update = table.Clone();
      for (const Edit& edit : edits) {
        update.SetValue(edit.row, edit.attr, update.Intern(edit.text));
      }
      child("storage.clone_apply", start);
      Keep(update.num_tuples());
      return;
    }
    std::vector<int> rows;
    rows.reserve(repair.num_tuples());
    for (int row = 0; row < repair.num_tuples(); ++row) {
      StatusOr<int> position = table.RowOf(repair.id(row));
      if (position.ok()) rows.push_back(*position);
    }
    start = Clock::now();
    Table subset = table.SubsetByRows(rows);
    child("storage.subset_by_rows", start);
    Keep(subset.num_tuples());
    TraceDirectPlan(cover, table, request.id, log);
    return;
  }

  if (request.mode == RepairMode::kUpdate) {
    start = Clock::now();
    StatusOr<OptURepairResult> result = OptURepairCells(cover, table);
    child("urepair.plan", start);
    if (result.ok()) Keep(result->edits.size());
    return;
  }
  RepairJob job;
  job.fds = cover;
  job.table = &table;
  start = Clock::now();
  StatusOr<SRepairResult> result = engine->Repair(job);
  child("engine.repair", start);
  if (result.ok()) Keep(result->repair.num_tuples());
  TraceDirectPlan(cover, table, request.id, log);
  TraceTopLevelMatching(cover, table, request.id, log);
}

std::vector<std::pair<std::string, double>> LayerMetrics(
    const SpanLog& log, const RepairServiceStats& stats, double spin_speedup) {
  const std::vector<Span>& spans = log.spans();
  std::unordered_map<int64_t, const RequestRecord*> by_id;
  for (const RequestRecord& record : log.requests()) by_id[record.id] = &record;

  std::map<std::string, std::vector<double>> us;
  std::vector<double> child_us(spans.size(), 0);
  std::vector<double> edges;
  std::vector<double> direct_on_hit;
  std::vector<double> direct_on_miss;
  for (const Span& span : spans) {
    us[span.name].push_back(span.us());
    if (span.parent >= 0) child_us[span.parent] += span.us();
    if (span.count >= 0) edges.push_back(static_cast<double>(span.count));
    if (std::string(span.name) == "srepair.plan") {
      auto it = by_id.find(span.request);
      if (it == by_id.end()) continue;
      (it->second->path == ServePath::kHit ? direct_on_hit : direct_on_miss)
          .push_back(span.us());
    }
  }
  std::vector<double> hit, miss, write, self, hit_subset;
  for (const RequestRecord& record : log.requests()) {
    const double serve = spans[record.serve_span].us();
    self.push_back(serve - child_us[record.serve_span]);
    switch (record.path) {
      case ServePath::kHit:
        hit.push_back(serve);
        if (record.mode == RepairMode::kSubset) hit_subset.push_back(serve);
        break;
      case ServePath::kMiss:
        miss.push_back(serve);
        break;
      case ServePath::kWrite:
        write.push_back(serve);
        break;
    }
  }
  std::vector<double> all_serve = us["service.serve"];
  auto med = [&](const char* name) { return Median(us[name]); };
  const double delta_requests =
      static_cast<double>(stats.delta_requests + stats.udelta_requests);
  const double splices =
      static_cast<double>(stats.delta_splices + stats.udelta_splices);
  const double clean =
      static_cast<double>(stats.delta_blocks_clean + stats.udelta_blocks_clean);
  const double dirty =
      static_cast<double>(stats.delta_blocks_dirty + stats.udelta_blocks_dirty);
  return {
      {"catalog.cover_us", med("catalog.cover")},
      {"storage.content_hash_us", med("storage.content_hash")},
      {"storage.subset_by_rows_us", med("storage.subset_by_rows")},
      {"storage.clone_apply_us", med("storage.clone_apply")},
      {"storage.delta_build_us", med("storage.delta_build")},
      {"storage.delta_validate_us", med("storage.delta_validate")},
      {"srepair.plan_us", med("srepair.plan")},
      {"srepair.splice_us", med("srepair.splice")},
      {"urepair.plan_us", med("urepair.plan")},
      {"urepair.splice_us", med("urepair.splice")},
      {"graph.matching_us", med("graph.matching")},
      {"graph.matching_edges", Median(edges)},
      {"graph.matching_share",
       Ratio(med("graph.matching"), Median(direct_on_miss))},
      {"engine.repair_us", med("engine.repair")},
      {"engine.fanout_speedup",
       Ratio(Median(direct_on_miss), med("engine.repair"))},
      {"service.hit_us", Median(hit)},
      {"service.miss_us", Median(miss)},
      {"service.write_us", Median(write)},
      {"service.self_us", Median(self)},
      {"service.hit_over_direct",
       Ratio(Median(hit_subset), Median(direct_on_hit))},
      {"service.content_hash_share",
       Ratio(med("storage.content_hash"), Median(all_serve))},
      {"service.hit_ratio", Ratio(static_cast<double>(stats.hits),
                                  static_cast<double>(stats.lookups))},
      {"service.single_flight_waits",
       static_cast<double>(stats.single_flight_waits)},
      {"service.evictions", static_cast<double>(stats.evictions)},
      {"service.splice_ratio", Ratio(splices, delta_requests)},
      {"service.clean_block_ratio", Ratio(clean, clean + dirty)},
      {"verify.satisfies_us", med("verify.satisfies")},
      {"trace.latency_p50_ms", Median(all_serve) / 1e3},
      {"host.spin_speedup", spin_speedup},
  };
}

}  // namespace perfbench
