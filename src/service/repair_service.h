// RepairService: the long-lived serving façade over the repair stack.
//
// Real repair traffic repeats itself — the same FD sets and the same (or
// re-sent) tables arrive again and again across tenants and retries. The
// service turns that repetition into O(1) work:
//
//   request ──► canonicalize ∆ (FdSet::CanonicalCover)
//           ──► key = stable 64-bit hash of (mode, cover, table content)
//           ──► bounded LRU result cache
//                 ├─ ready entry      → reconstruct the repair  (hit)
//                 ├─ entry computing  → wait for it (single-flight dedup)
//                 └─ miss             → admission control → plan & execute
//
// Canonicalization makes the key phrasing-independent: equivalent FD sets
// (reordered, duplicated, inflated-lhs, implied FDs) and content-identical
// tables (regardless of which Table/ValuePool object carries them) share one
// entry. The cache stores *recipes*, not tables — kept tuple ids for subset
// repairs, cell edits for update repairs — and replays them against the
// request's own table, so a hit returns a repair bit-identical (ids, value
// texts, weights) to what the planner would produce, at O(result) cost.
//
// Execution always runs on the canonical cover, on hits and misses alike,
// so the two paths answer from the same deterministic computation.
//
// Admission control: concurrent cache-missing requests beyond
// `max_inflight` wait for a slot; more than `max_queue` waiters are
// rejected immediately with kUnavailable, and a waiter whose deadline
// passes is rejected with kDeadlineExceeded — the service never stalls
// unboundedly. Cache hits and single-flight followers bypass admission
// entirely (they do no planner work).
//
// Deadlines mean the same thing on every path: a request whose deadline
// has passed by the time its cache lookup completes fails with
// kDeadlineExceeded — leader, single-flight follower and cache hit alike —
// so whether an expired request is answered never depends on another
// client's timing. A lookup that completes in time is answered: replaying
// a cached recipe is never interrupted by the deadline.
//
// Thread safety: Serve() may be called from any number of threads.

#ifndef FDREPAIR_SERVICE_REPAIR_SERVICE_H_
#define FDREPAIR_SERVICE_REPAIR_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "engine/repair_engine.h"
#include "storage/table.h"
#include "storage/table_delta.h"
#include "urepair/opt_urepair.h"
#include "urepair/planner.h"

namespace fdrepair {

/// Which repair family the request asks for.
enum class RepairMode {
  /// Optimal subset repair (delete tuples; §3 routes via the S-planner).
  kSubset,
  /// Optimal update repair (rewrite cells; §4 routes via the U-planner).
  kUpdate,
  /// Soft repair: tuple deletions traded against weighted FD violations
  /// (srepair/soft_repair.h). FDs with finite weights (catalog/fd.h) may
  /// stay violated at cost ω per violating pair; an all-hard FD set makes
  /// this mode delegate to the subset pipeline outright, so its responses
  /// are bit-identical to kSubset's.
  kSoft,
};

const char* RepairModeToString(RepairMode mode);

/// Every per-request knob in one place, embedded in RepairRequest as
/// `options`. Mode/option compatibility is validated centrally in Serve;
/// mismatches fail with kInvalidArgument before keying or admission.
struct RepairOptions {
  /// kSubset/kSoft: hard-side solver backend by registry name
  /// ("local-ratio", "bnb", "ilp", "lp-rounding", ...). Empty defers to
  /// the service's configured SRepairOptions. kSoft with finite-weight
  /// violations additionally requires a soft-capable backend. Part of the
  /// cache key, so responses produced by different solvers never alias.
  std::string backend;
  /// kSubset/kSoft: reject results whose certified ratio exceeds this
  /// (see SRepairOptions::max_ratio). 0 disables the gate. Also keyed.
  double max_ratio = 0;
  /// Time budget from the moment Serve is called; covers the cache lookup,
  /// queueing, waiting on a single-flight leader, and execution. Expired at
  /// the end of the lookup ⇒ kDeadlineExceeded, even for a cache hit (see
  /// the file comment). Unset: no limit.
  std::optional<std::chrono::milliseconds> deadline;
  /// Thread hint: 0 uses the service's engine as configured; 1 forces this
  /// request's execution onto the calling thread (no block fan-out — the
  /// bit-identical sequential baseline). Values > 1 are advisory only and
  /// currently behave like 0 (the engine's pool is shared and fixed-size).
  int threads = 0;
  /// Skip the cache entirely (no lookup, no store, no dedup). Admission
  /// control still applies. Used by benches to measure cold latency.
  /// Incompatible with delta requests (incremental replay is defined by
  /// cached state) — that combination is rejected, not ignored.
  bool bypass_cache = false;
  /// kSoft only: a per-FD weight profile applied over request.fds in its
  /// stored FD order (FdSet::WithWeights) — size must equal fds.size(),
  /// entries must be positive (kHardFdWeight = ∞ pins an FD hard). Empty
  /// keeps whatever weights the FDs already carry. The effective weights
  /// are part of the cache key: two profiles never share an entry.
  std::vector<double> soft_weights;
};

/// One typed serving request. The table is borrowed and must stay alive
/// (and unmodified) until Serve returns.
struct RepairRequest {
  RepairMode mode = RepairMode::kSubset;
  FdSet fds;
  const Table* table = nullptr;
  /// The per-request options (see RepairOptions).
  RepairOptions options;
  /// The mutation taking a previously served table state to *table
  /// (borrowed, like the table; must validate against it — see
  /// storage/table_delta.h). When set, the request is keyed by the delta's
  /// result_hash chain instead of rehashing the table, and if the
  /// pre-mutation state's entry (keyed by delta->base_hash) still holds a
  /// spliceable plan, execution re-repairs only the blocks the mutation
  /// dirtied — kept-id recipes in subset mode, cell-edit recipes in update
  /// mode (urepair/opt_urepair.h) — and the response is bit-identical to a
  /// cold full re-plan either way. Null: the ordinary content-hash path.
  const TableDelta* delta = nullptr;
};

struct RepairResponse {
  /// The repaired table, over the request table's schema and pool.
  Table repair;
  /// dist_sub / dist_upd to the request table.
  double distance = 0;
  /// True iff provably optimal; `ratio_bound` as for the planners.
  bool optimal = false;
  double ratio_bound = 1;
  /// Human-readable route ("OptSRepair", "urepair[consensus-plurality]"...).
  std::string route;
  /// Solver provenance for subset repairs: the backend registry name
  /// (empty on the polynomial route and for update repairs), the proved
  /// lower bound on the optimal distance, and the certified ratio
  /// distance / lower_bound (see SRepairResult).
  std::string backend;
  double lower_bound = 0;
  double achieved_ratio = 1;
  /// True when this response was replayed from the cache (including
  /// single-flight followers); false when this call ran the planner.
  bool cache_hit = false;
  /// The canonical request key (stable across processes; loggable).
  uint64_t cache_key = 0;
};

/// Monotonic counters since construction, plus the current entry count.
struct RepairServiceStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Requests that found another thread computing the same key and waited
  /// for its result instead of recomputing (they also count as hits once
  /// served).
  uint64_t single_flight_waits = 0;
  uint64_t evictions = 0;
  uint64_t rejected_deadline = 0;
  uint64_t rejected_unavailable = 0;
  /// Delta-path observability. A delta request that misses its own chain
  /// key either splices (the pre-mutation entry still held a plan) or
  /// falls back to a full re-plan; the block counters aggregate how much
  /// cached work the splices replayed vs recomputed.
  uint64_t delta_requests = 0;
  uint64_t delta_splices = 0;
  uint64_t delta_full_replans = 0;
  uint64_t delta_blocks_clean = 0;
  uint64_t delta_blocks_dirty = 0;
  /// The same counters for update-mode delta requests (the delta_* family
  /// above counts subset mode only; block counts aggregate across the
  /// U-plan's inner per-component S-repair splices).
  uint64_t udelta_requests = 0;
  uint64_t udelta_splices = 0;
  uint64_t udelta_full_replans = 0;
  uint64_t udelta_blocks_clean = 0;
  uint64_t udelta_blocks_dirty = 0;
  /// Ready entries currently cached.
  uint64_t entries = 0;
  /// Requests currently executing / waiting for an execution slot.
  uint64_t inflight = 0;
  uint64_t queued = 0;
};

struct RepairServiceOptions {
  /// Maximum number of ready results kept (LRU eviction beyond this).
  /// 0 disables caching but keeps single-flight dedup of in-flight work.
  size_t cache_capacity = 256;
  /// Cache-missing requests allowed to execute concurrently; 0 resolves to
  /// the engine's thread count.
  int max_inflight = 0;
  /// Cache-missing requests allowed to *wait* for an execution slot beyond
  /// `max_inflight`; anything past that is rejected with kUnavailable.
  int max_queue = 64;
  /// The batch engine serving subset-repair execution.
  EngineOptions engine;
  /// Route options passed through to the planners (exec is overwritten).
  SRepairOptions srepair;
  URepairOptions urepair;
};

class RepairService {
 public:
  explicit RepairService(const RepairServiceOptions& options = {});
  ~RepairService();

  RepairService(const RepairService&) = delete;
  RepairService& operator=(const RepairService&) = delete;

  /// Serves one request: cache lookup, single-flight wait, or plan+execute
  /// under admission control. Safe to call concurrently.
  StatusOr<RepairResponse> Serve(const RepairRequest& request);

  /// The explicit delta entry point: serves a request whose `delta` field
  /// describes the mutation from a previously served state to
  /// *request.table. Identical to Serve() on the same request — provided
  /// so call sites that *mean* incremental re-repair fail loudly
  /// (kInvalidArgument) when the delta is missing instead of silently
  /// paying a full content hash + re-plan. Safe to call concurrently.
  StatusOr<RepairResponse> ApplyDelta(const RepairRequest& request);

  /// A point-in-time snapshot of the counters.
  RepairServiceStats stats() const;

  /// Drops every ready entry (in-flight computations are unaffected).
  void InvalidateCache();

  int max_inflight() const { return max_inflight_; }

 private:
  /// The cached recipe: enough to replay a repair against any table with
  /// the same content hash, without storing the table itself.
  struct CachedRepair {
    RepairMode mode = RepairMode::kSubset;
    /// kSubset/kSoft: surviving tuple ids, in the repair's row order.
    std::vector<TupleId> kept_ids;
    /// kUpdate: cell rewrites (tuple id, attribute, new value text).
    ///
    /// ⊥ fresh-value note: update repairs may introduce fresh constants.
    /// Their names are *deterministic* — derived from the freshened cell's
    /// (TupleId, attribute), "⊥t<id>.<attr>", or from the exact search's
    /// (attribute, index) column symbols, "⊥e<attr>.<j>" (urepair/fresh.h)
    /// — never from a pool-global allocation counter. A replay therefore
    /// reproduces the same names a planner run against the request's own
    /// pool would pick, even on a content-identical copy with a private
    /// pool, and cached cell-edit recipes replay bit-identically across
    /// re-plans and delta splices. One caveat survives: when user data
    /// already occupies a fresh name, the pool disambiguates by appending
    /// "'" (value_pool.h), so the final text additionally depends on that
    /// colliding user content — identical tables still agree on it.
    struct CellEdit {
      TupleId id;
      AttrId attr;
      std::string text;
    };
    std::vector<CellEdit> edits;
    double distance = 0;
    bool optimal = false;
    double ratio_bound = 1;
    std::string route;
    std::string backend;
    double lower_bound = 0;
    double achieved_ratio = 1;
    /// kSubset, polynomial route only: the captured top-level plan
    /// (always spliceable when present), the seed for delta re-repairs of
    /// this entry's table state. shared_ptr so delta executions can pin it
    /// beyond the entry's LRU lifetime; the plan itself is immutable once
    /// published.
    std::shared_ptr<const SRepairPlanCache> plan;
    /// kUpdate, spliceable routes only: the captured U-plan (consensus
    /// attributes, per-component inner S-plans and cell-edit block
    /// recipes), the update-mode delta seed. Same pinning and immutability
    /// contract as `plan`.
    std::shared_ptr<const URepairPlanCache> uplan;
  };

  /// One cache slot; exists from first request until eviction. `ready`
  /// flips exactly once, under cache_mu_, guarded by cache_cv_.
  struct Entry {
    bool ready = false;
    Status status;  // when ready and not ok(): the leader's failure
    CachedRepair result;
  };

  struct Slot {
    std::shared_ptr<Entry> entry;
    /// Position in lru_; only valid while the entry is ready (listed).
    std::list<uint64_t>::iterator lru_pos;
    bool listed = false;
  };

  Status AcquireExecSlot(
      const std::optional<std::chrono::steady_clock::time_point>& deadline);
  void ReleaseExecSlot();

  /// Runs the planner and condenses its result into a CachedRepair. Also
  /// moves the planner's already-materialized repair table into
  /// *materialized: the caller that just executed answers from it directly
  /// instead of replaying the cache entry (Replay re-resolves every kept id
  /// against the table — pure overhead when the planner's own output is
  /// still in hand). Only cache hits and single-flight followers replay.
  StatusOr<CachedRepair> Execute(
      const RepairRequest& request, const FdSet& cover,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      const SRepairPlanCache* delta_base, const URepairPlanCache* udelta_base,
      SRepairSpliceStats* splice, std::optional<Table>* materialized);

  StatusOr<RepairResponse> Replay(const CachedRepair& cached,
                                  const Table& table, bool cache_hit,
                                  uint64_t key) const;

  /// Marks `entry` ready (ok or failed) and wakes followers; stores ready
  /// successes into the LRU (evicting beyond capacity) and erases failures
  /// so later requests retry. Requires the entry to be the one mapped at
  /// `key` (if still mapped).
  void Publish(uint64_t key, const std::shared_ptr<Entry>& entry,
               Status status, CachedRepair result);

  RepairServiceOptions options_;
  int max_inflight_ = 1;
  RepairEngine engine_;

  mutable std::mutex cache_mu_;
  std::condition_variable cache_cv_;
  std::unordered_map<uint64_t, Slot> entries_;
  /// Ready keys, most-recently-used first.
  std::list<uint64_t> lru_;

  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int inflight_ = 0;
  int queued_ = 0;

  mutable std::mutex stats_mu_;
  RepairServiceStats stats_;
};

}  // namespace fdrepair

#endif  // FDREPAIR_SERVICE_REPAIR_SERVICE_H_
