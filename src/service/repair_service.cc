#include "service/repair_service.h"

#include <algorithm>
#include <utility>

#include "srepair/soft_repair.h"
#include "srepair/solver_backend.h"
#include "storage/table_hash.h"

namespace fdrepair {
namespace {

using Clock = std::chrono::steady_clock;

const char* RepairModeName(RepairMode mode) {
  switch (mode) {
    case RepairMode::kSubset:
      return "subset";
    case RepairMode::kUpdate:
      return "update";
    case RepairMode::kSoft:
      return "soft";
  }
  return "unknown";
}

/// THE validator: every mode/option compatibility rule lives here, and
/// nowhere else — Serve runs it before keying, admission or execution, so
/// a bad combination always fails the same way, with kInvalidArgument.
/// Returns the request's effective FD cover: the soft-weight profile
/// applied, then canonicalized (the weight-preserving cover of
/// catalog/fdset.h).
StatusOr<FdSet> ResolveRequest(const RepairRequest& request) {
  if (request.table == nullptr) {
    return Status::InvalidArgument("RepairRequest.table is null");
  }
  const RepairOptions& options = request.options;
  if (options.max_ratio < 0) {
    return Status::InvalidArgument("options.max_ratio must be >= 0, got " +
                                   std::to_string(options.max_ratio));
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("options.threads must be >= 0, got " +
                                   std::to_string(options.threads));
  }

  const std::string mode = RepairModeName(request.mode);
  const bool solver_mode =
      request.mode == RepairMode::kSubset || request.mode == RepairMode::kSoft;
  if (!solver_mode && (!options.backend.empty() || options.max_ratio > 0)) {
    return Status::InvalidArgument(
        "backend selection and max_ratio apply to subset and soft repairs "
        "only (mode=" +
        mode + ")");
  }
  if (!options.soft_weights.empty() && request.mode != RepairMode::kSoft) {
    return Status::InvalidArgument(
        "options.soft_weights requires mode=soft (mode=" + mode + ")");
  }
  if (request.delta != nullptr && options.bypass_cache) {
    return Status::InvalidArgument(
        "RepairRequest.delta cannot be combined with bypass_cache: "
        "incremental re-repair splices and publishes cached state");
  }
  if (request.delta != nullptr && request.mode == RepairMode::kSoft) {
    return Status::InvalidArgument(
        "delta requests are not supported in soft mode (no soft splice); "
        "re-send the mutated table as an ordinary soft request");
  }

  FdSet effective = request.fds;
  if (!options.soft_weights.empty()) {
    FDR_ASSIGN_OR_RETURN(effective,
                         request.fds.WithWeights(options.soft_weights));
  }
  if (effective.HasSoftFds() && request.mode != RepairMode::kSoft) {
    return Status::InvalidArgument(
        "the FD set carries finite weights but mode=" + mode +
        " treats every FD as hard; use RepairMode::kSoft (or strip the "
        "weights)");
  }
  FdSet cover = effective.CanonicalCover();
  if (!options.backend.empty()) {
    const SolverBackend* backend = FindSolverBackend(options.backend);
    if (backend == nullptr) {
      return Status::InvalidArgument("unknown solver backend '" +
                                     options.backend + "'");
    }
    if (cover.HasSoftFds() && !backend->soft_capable()) {
      return Status::InvalidArgument(
          "solver backend '" + options.backend +
          "' cannot solve soft-cover instances (finite-weight violations "
          "survive canonicalization); pick a soft-capable backend "
          "(local-ratio, bnb, ilp)");
    }
  }
  return cover;
}

/// The canonical request key: mode, canonical cover (as lhs-bitmask/rhs
/// pairs — attribute names are bound to those positions by the table hash),
/// the table state identity, and the solver knobs (backend, max_ratio) —
/// two requests that may be answered by different solvers must never share
/// an entry. `table_hash` is TableContentHash for ordinary requests and
/// the delta chain hash for delta requests (see storage/table_delta.h for
/// why the two identities deliberately differ); both flow through the same
/// key structure, which is what lets a first delta's base_hash find the
/// base table's cold entry.
uint64_t RequestKey(RepairMode mode, const RepairOptions& options,
                    const FdSet& cover, uint64_t table_hash) {
  StableHasher hasher;
  hasher.MixUint64(static_cast<uint64_t>(mode));
  hasher.MixUint64(static_cast<uint64_t>(cover.size()));
  for (const Fd& fd : cover.fds()) {
    hasher.MixUint64(fd.lhs.bits());
    hasher.MixInt64(fd.rhs);
    // Weights are part of the key: the same cover under two weight
    // profiles is two different optimization problems (∞ for hard FDs —
    // MixDouble is bit-stable on infinities).
    hasher.MixDouble(fd.weight);
  }
  hasher.MixUint64(table_hash);
  hasher.MixString(options.backend);
  hasher.MixDouble(options.max_ratio);
  return hasher.digest();
}

std::optional<Clock::time_point> AbsoluteDeadline(
    const RepairOptions& options, Clock::time_point admitted) {
  if (!options.deadline) return std::nullopt;
  return admitted + *options.deadline;
}

}  // namespace

const char* RepairModeToString(RepairMode mode) { return RepairModeName(mode); }

RepairService::RepairService(const RepairServiceOptions& options)
    : options_(options), engine_(options.engine) {
  max_inflight_ = options_.max_inflight > 0 ? options_.max_inflight
                                            : engine_.threads();
}

RepairService::~RepairService() = default;

RepairServiceStats RepairService::stats() const {
  RepairServiceStats snapshot;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    snapshot = stats_;
  }
  // Taken separately (never while holding stats_mu_): Serve acquires
  // cache_mu_ before stats_mu_, so nesting them here would invert the order.
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    snapshot.entries = lru_.size();
  }
  {
    std::lock_guard<std::mutex> admission_lock(admission_mu_);
    snapshot.inflight = static_cast<uint64_t>(inflight_);
    snapshot.queued = static_cast<uint64_t>(queued_);
  }
  return snapshot;
}

void RepairService::InvalidateCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (uint64_t key : lru_) entries_.erase(key);
  lru_.clear();
}

Status RepairService::AcquireExecSlot(
    const std::optional<Clock::time_point>& deadline) {
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (inflight_ < max_inflight_) {
    ++inflight_;
    return Status::OK();
  }
  if (queued_ >= options_.max_queue) {
    return Status::Unavailable(
        "repair service over capacity: " + std::to_string(inflight_) +
        " executing and " + std::to_string(queued_) + " queued");
  }
  ++queued_;
  while (inflight_ >= max_inflight_) {
    if (deadline) {
      if (admission_cv_.wait_until(lock, *deadline) ==
              std::cv_status::timeout &&
          inflight_ >= max_inflight_) {
        --queued_;
        return Status::DeadlineExceeded(
            "deadline expired while queued for an execution slot");
      }
    } else {
      admission_cv_.wait(lock);
    }
  }
  --queued_;
  ++inflight_;
  return Status::OK();
}

void RepairService::ReleaseExecSlot() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --inflight_;
  }
  admission_cv_.notify_one();
}

StatusOr<RepairService::CachedRepair> RepairService::Execute(
    const RepairRequest& request, const FdSet& cover,
    const std::optional<Clock::time_point>& deadline,
    const SRepairPlanCache* delta_base, const URepairPlanCache* udelta_base,
    SRepairSpliceStats* splice, std::optional<Table>* materialized) {
  const Table& table = *request.table;
  const RepairOptions& request_options = request.options;
  CachedRepair cached;
  cached.mode = request.mode;
  if (deadline && Clock::now() >= *deadline) {
    return Status::DeadlineExceeded("deadline expired before execution");
  }
  // A soft request whose canonical cover is all-hard IS a subset request
  // (violations are priced out entirely): run it through the very same
  // pipeline — engine fan-out, plan capture and all — so the ω ≡ ∞ pin is
  // bit-identical by construction, not by reimplementation.
  const bool soft_core =
      request.mode == RepairMode::kSoft && cover.HasSoftFds();
  if (request.mode == RepairMode::kSubset ||
      (request.mode == RepairMode::kSoft && !soft_core)) {
    // Per-request solver knobs override the service-wide configuration.
    SRepairOptions srepair = options_.srepair;
    if (!request_options.backend.empty()) {
      srepair.backend = request_options.backend;
    }
    if (request_options.max_ratio > 0) {
      srepair.max_ratio = request_options.max_ratio;
    }
    // Capture the run's top-level plan so later deltas of this state can
    // splice; when this run IS a delta with a live base plan, splice it.
    // The planner only honors these on the polynomial route — explicit
    // backends and hard instances carry no plan and always re-solve.
    auto plan = std::make_shared<SRepairPlanCache>();
    srepair.capture = plan.get();
    if (request.delta != nullptr && delta_base != nullptr) {
      srepair.delta_base = delta_base;
      srepair.delta_updated_ids = &request.delta->updated;
      srepair.splice_stats = splice;
    }
    StatusOr<SRepairResult> result = Status::Internal("never ran");
    if (request_options.threads == 1) {
      // Sequential hint: run on the calling thread, no block fan-out. The
      // engine guarantees bit-identical results either way.
      SRepairOptions options = srepair;
      options.exec.pool = nullptr;
      if (deadline) options.exec.deadline = *deadline;
      result = ComputeSRepair(cover, table, options);
    } else {
      RepairJob job;
      job.fds = cover;
      job.table = &table;
      job.options = srepair;
      if (deadline) {
        job.deadline = std::chrono::duration_cast<std::chrono::milliseconds>(
            *deadline - Clock::now());
      }
      result = engine_.Repair(job);
    }
    if (!result.ok()) return result.status();
    cached.kept_ids.reserve(result->repair.num_tuples());
    for (int row = 0; row < result->repair.num_tuples(); ++row) {
      cached.kept_ids.push_back(result->repair.id(row));
    }
    cached.distance = result->distance;
    cached.optimal = result->optimal;
    cached.ratio_bound = result->ratio_bound;
    cached.route = SRepairAlgorithmToString(result->algorithm);
    if (request.mode == RepairMode::kSoft) {
      cached.route = "soft[" + cached.route + "]";
    }
    cached.backend = result->backend;
    cached.lower_bound = result->lower_bound;
    cached.achieved_ratio = result->achieved_ratio;
    if (plan->spliceable) cached.plan = std::move(plan);
    *materialized = std::move(result->repair);
    return cached;
  }
  if (soft_core) {
    // Finite-weight violations survive canonicalization: the soft planner
    // (weighted common-lhs peel + soft conflicted cores through the
    // soft-capable solver backends). Its recursion is sequential, so the
    // threads hint is moot — responses are identical at every setting.
    SoftRepairOptions soptions;
    soptions.backend = request_options.backend;
    soptions.exact_guard = options_.srepair.exact_guard;
    soptions.node_budget = options_.srepair.node_budget;
    soptions.max_ratio = request_options.max_ratio > 0
                             ? request_options.max_ratio
                             : options_.srepair.max_ratio;
    if (deadline) soptions.exec.deadline = *deadline;
    FDR_ASSIGN_OR_RETURN(SoftRepairResult result,
                         ComputeSoftRepair(cover, table, soptions));
    cached.kept_ids.reserve(result.repair.num_tuples());
    for (int row = 0; row < result.repair.num_tuples(); ++row) {
      cached.kept_ids.push_back(result.repair.id(row));
    }
    // `distance` carries the full soft objective (deleted weight plus
    // violation cost) — the quantity the planner minimized.
    cached.distance = result.cost;
    cached.optimal = result.optimal;
    cached.ratio_bound = result.ratio_bound;
    cached.route = result.route;
    cached.backend = result.backend;
    cached.lower_bound = result.lower_bound;
    cached.achieved_ratio = result.achieved_ratio;
    *materialized = std::move(result.repair);
    return cached;
  }
  // Update repairs run the cell-edit pipeline (urepair/opt_urepair.h): the
  // canonical edit list IS the cache recipe, a captured U-plan seeds later
  // deltas of this state, and a live base U-plan splices. Inner S-repairs
  // honor the deadline cooperatively; the approximation/exact routes
  // remain admission-only.
  OptURepairOptions uoptions;
  uoptions.planner = options_.urepair;
  if (request_options.threads != 1) {
    // The engine's pool fans the inner S-repairs' blocks out; threads == 1
    // pins the bit-identical sequential baseline, exactly as subset mode.
    uoptions.exec.pool = engine_.pool();
    uoptions.exec.parallel_cutoff = options_.engine.parallel_cutoff;
  }
  if (deadline) uoptions.exec.deadline = *deadline;
  auto uplan = std::make_shared<URepairPlanCache>();
  StatusOr<OptURepairResult> result = Status::Internal("never ran");
  if (request.delta != nullptr && udelta_base != nullptr) {
    OptURepairOptions delta_options = uoptions;
    delta_options.delta_base = udelta_base;
    delta_options.delta_updated_ids = &request.delta->updated;
    delta_options.splice_stats = splice;
    result = OptURepairCells(cover, table, delta_options, uplan.get());
    if (!result.ok() &&
        result.status().code() == StatusCode::kFailedPrecondition) {
      // The base plan refused to splice (non-spliceable route, shape
      // drift): degrade to a full re-plan — bit-identical, only slower.
      result = OptURepairCells(cover, table, uoptions, uplan.get());
    }
  } else {
    result = OptURepairCells(cover, table, uoptions, uplan.get());
  }
  if (!result.ok()) return result.status();
  cached.edits.reserve(result->edits.size());
  for (const URepairCellEdit& edit : result->edits) {
    cached.edits.push_back(
        CachedRepair::CellEdit{edit.id, edit.attr, edit.text});
  }
  cached.distance = result->distance;
  cached.optimal = result->optimal;
  cached.ratio_bound = result->ratio_bound;
  std::string routes;
  for (const URepairComponentPlan& component : result->plan.components) {
    if (!routes.empty()) routes += ",";
    routes += URepairRouteToString(component.route);
  }
  cached.route = "urepair[" + (routes.empty() ? "noop" : routes) + "]";
  if (uplan->spliceable) cached.uplan = std::move(uplan);
  // Materialize the leader's response exactly as Replay would (clone +
  // apply edits): one shared code shape keeps leader, followers and hits
  // bit-identical.
  Table update = table.Clone();
  for (const CachedRepair::CellEdit& edit : cached.edits) {
    FDR_ASSIGN_OR_RETURN(int row, table.RowOf(edit.id));
    update.SetValue(row, edit.attr, update.Intern(edit.text));
  }
  *materialized = std::move(update);
  return cached;
}

StatusOr<RepairResponse> RepairService::Replay(const CachedRepair& cached,
                                               const Table& table,
                                               bool cache_hit,
                                               uint64_t key) const {
  if (cached.mode != RepairMode::kUpdate) {
    std::vector<int> rows;
    rows.reserve(cached.kept_ids.size());
    for (TupleId id : cached.kept_ids) {
      FDR_ASSIGN_OR_RETURN(int row, table.RowOf(id));
      rows.push_back(row);
    }
    RepairResponse response{table.SubsetByRows(rows),
                            cached.distance,
                            cached.optimal,
                            cached.ratio_bound,
                            cached.route,
                            cached.backend,
                            cached.lower_bound,
                            cached.achieved_ratio,
                            cache_hit,
                            key};
    return response;
  }
  Table update = table.Clone();
  for (const CachedRepair::CellEdit& edit : cached.edits) {
    FDR_ASSIGN_OR_RETURN(int row, table.RowOf(edit.id));
    update.SetValue(row, edit.attr, update.Intern(edit.text));
  }
  RepairResponse response{std::move(update),
                          cached.distance,
                          cached.optimal,
                          cached.ratio_bound,
                          cached.route,
                          cached.backend,
                          cached.lower_bound,
                          cached.achieved_ratio,
                          cache_hit,
                          key};
  return response;
}

void RepairService::Publish(uint64_t key, const std::shared_ptr<Entry>& entry,
                            Status status, CachedRepair result) {
  size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    entry->status = std::move(status);
    entry->result = std::move(result);
    entry->ready = true;
    auto it = entries_.find(key);
    bool mapped = it != entries_.end() && it->second.entry == entry;
    if (!entry->status.ok()) {
      // Failures are not cached: erase so a later request retries, while
      // current followers read the failure from their shared_ptr.
      if (mapped) entries_.erase(it);
    } else if (mapped) {
      lru_.push_front(key);
      it->second.lru_pos = lru_.begin();
      it->second.listed = true;
      while (lru_.size() > options_.cache_capacity) {
        uint64_t victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        ++evicted;
      }
    }
  }
  if (evicted > 0) {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.evictions += evicted;
  }
  cache_cv_.notify_all();
}

StatusOr<RepairResponse> RepairService::Serve(const RepairRequest& request) {
  const Clock::time_point admitted = Clock::now();
  // All request validation — mode/option mismatches, weight application
  // and cover canonicalization — lives in ResolveRequest.
  FDR_ASSIGN_OR_RETURN(const FdSet cover, ResolveRequest(request));
  const RepairOptions& options = request.options;
  const std::optional<Clock::time_point> deadline =
      AbsoluteDeadline(options, admitted);
  if (request.delta != nullptr) {
    // A stale or corrupted delta would poison the chain-keyed cache with a
    // result attributed to the wrong state — reject it before keying.
    FDR_RETURN_IF_ERROR(ValidateDelta(*request.delta, *request.table));
  }
  // Delta requests are identified by their O(|delta|) chain hash; everyone
  // else pays the O(n) content hash. The two identities never alias (see
  // storage/table_delta.h).
  const uint64_t table_hash = request.delta != nullptr
                                  ? request.delta->result_hash
                                  : TableContentHash(*request.table);
  const uint64_t key =
      RequestKey(request.mode, options, cover, table_hash);

  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.lookups;
    if (request.delta != nullptr) {
      if (request.mode == RepairMode::kSubset) {
        ++stats_.delta_requests;
      } else {
        ++stats_.udelta_requests;
      }
    }
  }

  // Fail a request with the right code and keep the rejection counters
  // truthful for every exit path.
  auto fail = [&](Status status) -> Status {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    if (status.code() == StatusCode::kDeadlineExceeded) {
      ++stats_.rejected_deadline;
    } else if (status.code() == StatusCode::kUnavailable) {
      ++stats_.rejected_unavailable;
    }
    return status;
  };

  std::shared_ptr<Entry> entry;
  bool leader = false;
  while (!options.bypass_cache) {
    std::unique_lock<std::mutex> lock(cache_mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entry = std::make_shared<Entry>();
      entries_.emplace(key, Slot{entry, lru_.end(), false});
      leader = true;
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.misses;
      break;
    }
    entry = it->second.entry;
    if (entry->ready) {
      // Mapped ready entries are always successes (failures are erased at
      // publish time).
      if (it->second.listed && it->second.lru_pos != lru_.begin()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        it->second.lru_pos = lru_.begin();
      }
      break;
    }
    // Single-flight: another thread is computing this exact request; wait
    // for its answer instead of recomputing.
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.single_flight_waits;
    }
    while (!entry->ready) {
      if (deadline) {
        if (cache_cv_.wait_until(lock, *deadline) ==
                std::cv_status::timeout &&
            !entry->ready) {
          return fail(Status::DeadlineExceeded(
              "deadline expired waiting on an in-flight computation of "
              "the same request"));
        }
      } else {
        cache_cv_.wait(lock);
      }
    }
    if (entry->status.ok()) break;
    // The leader failed. Deterministic failures (bad request, planner
    // precondition) propagate — re-running would reproduce them. But
    // kDeadlineExceeded/kUnavailable reflect the *leader's* deadline and
    // the queue at *its* admission; this follower's constraints may be
    // laxer, so retry the lookup — the failed entry was erased, and the
    // retry becomes the new leader (bounded: a leader returns its own
    // result directly).
    if (entry->status.code() != StatusCode::kDeadlineExceeded &&
        entry->status.code() != StatusCode::kUnavailable) {
      return fail(entry->status);
    }
    entry.reset();
  }

  if (!leader) {
    if (entry != nullptr) {
      // Served from cache (ready at lookup, or single-flight follower) —
      // unless the deadline passed before the lookup completed: an expired
      // request fails on every path, so whether it is answered never
      // depends on another client's timing. Replay itself is not
      // interrupted.
      if (deadline && Clock::now() >= *deadline) {
        return fail(Status::DeadlineExceeded(
            "deadline expired before the cache lookup completed"));
      }
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.hits;
      }
      return Replay(entry->result, *request.table, /*cache_hit=*/true, key);
    }
    // bypass_cache: execute without touching the cache — a delta request
    // here never splices (the splice's base plan IS cached state).
    Status slot = AcquireExecSlot(deadline);
    if (!slot.ok()) return fail(std::move(slot));
    std::optional<Table> materialized;
    SRepairSpliceStats splice;
    StatusOr<CachedRepair> computed =
        Execute(request, cover, deadline, nullptr, nullptr, &splice,
                &materialized);
    ReleaseExecSlot();
    if (!computed.ok()) return fail(computed.status());
    return RepairResponse{std::move(*materialized),
                          computed->distance,
                          computed->optimal,
                          computed->ratio_bound,
                          computed->route,
                          computed->backend,
                          computed->lower_bound,
                          computed->achieved_ratio,
                          /*cache_hit=*/false,
                          key};
  }

  // Leader of a delta request: look up the pre-mutation state's entry and
  // pin its plan for the splice. A miss (evicted, never served, or a
  // planless hard/backend route) simply degrades to a full re-plan — the
  // result is bit-identical either way, only slower.
  std::shared_ptr<Entry> base_entry;
  const SRepairPlanCache* base_plan = nullptr;
  const URepairPlanCache* base_uplan = nullptr;
  if (request.delta != nullptr) {
    const uint64_t base_key = RequestKey(request.mode, options, cover,
                                         request.delta->base_hash);
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = entries_.find(base_key);
    if (it != entries_.end() && it->second.entry->ready &&
        it->second.entry->status.ok()) {
      const CachedRepair& base_result = it->second.entry->result;
      if (request.mode == RepairMode::kSubset &&
          base_result.plan != nullptr) {
        base_entry = it->second.entry;
        base_plan = base_result.plan.get();
      } else if (request.mode == RepairMode::kUpdate &&
                 base_result.uplan != nullptr) {
        base_entry = it->second.entry;
        base_uplan = base_result.uplan.get();
      }
    }
  }

  // Leader: admission control, then plan & execute, then publish.
  Status slot = AcquireExecSlot(deadline);
  if (!slot.ok()) {
    Publish(key, entry, slot, CachedRepair{});
    return fail(std::move(slot));
  }
  std::optional<Table> materialized;
  SRepairSpliceStats splice;
  StatusOr<CachedRepair> computed =
      Execute(request, cover, deadline, base_plan, base_uplan, &splice,
              &materialized);
  ReleaseExecSlot();
  if (request.delta != nullptr && computed.ok()) {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    if (request.mode == RepairMode::kSubset) {
      if (splice.blocks_total > 0) {
        ++stats_.delta_splices;
        stats_.delta_blocks_clean +=
            static_cast<uint64_t>(splice.blocks_clean);
        stats_.delta_blocks_dirty +=
            static_cast<uint64_t>(splice.blocks_dirty);
      } else {
        ++stats_.delta_full_replans;
      }
    } else {
      if (splice.blocks_total > 0) {
        ++stats_.udelta_splices;
        stats_.udelta_blocks_clean +=
            static_cast<uint64_t>(splice.blocks_clean);
        stats_.udelta_blocks_dirty +=
            static_cast<uint64_t>(splice.blocks_dirty);
      } else {
        ++stats_.udelta_full_replans;
      }
    }
  }
  if (!computed.ok()) {
    Publish(key, entry, computed.status(), CachedRepair{});
    return fail(computed.status());
  }
  // Answer from the planner's own output (copying only the provenance
  // strings), then publish — followers and later hits replay the entry.
  RepairResponse response{std::move(*materialized),
                          computed->distance,
                          computed->optimal,
                          computed->ratio_bound,
                          computed->route,
                          computed->backend,
                          computed->lower_bound,
                          computed->achieved_ratio,
                          /*cache_hit=*/false,
                          key};
  Publish(key, entry, Status::OK(), std::move(*computed));
  return response;
}

StatusOr<RepairResponse> RepairService::ApplyDelta(
    const RepairRequest& request) {
  if (request.delta == nullptr) {
    return Status::InvalidArgument(
        "ApplyDelta requires RepairRequest.delta; use Serve for "
        "whole-table requests");
  }
  return Serve(request);
}

}  // namespace fdrepair
