#ifndef URPSM_SRC_SIM_FLEET_H_
#define URPSM_SRC_SIM_FLEET_H_

#include <cstdint>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/index/grid_index.h"
#include "src/model/feasibility.h"
#include "src/model/route.h"
#include "src/model/types.h"
#include "src/shortest/oracle.h"

namespace urpsm {

class FleetShards;

/// The moving fleet: every worker's committed route, its progress along it,
/// and the spatial index of worker anchors.
///
/// Motion model (matching the paper's simulation): a worker follows its
/// planned schedule; its position is resolved at stop granularity. When the
/// simulated clock passes a stop's scheduled arrival, the stop is
/// *committed* — it becomes the new route anchor, pickups/drop-offs are
/// recorded, and the grid index is updated. Workers with empty routes idle
/// in place; their anchor time is bumped to "now" before planning so no
/// schedule can depart in the past.
class Fleet {
 public:
  Fleet(std::vector<Worker> workers, const RoadNetwork* graph);

  /// Registers the grid index that should track anchor movement (owned by
  /// the caller); inserts all current anchors.
  void AttachIndex(GridIndex* index);

  /// Switches the fleet into shard-safe mode (nullptr switches back):
  /// Touch, ApplyInsertion, ReplaceRoute and CachedState serialize on the
  /// owning shard's mutex, and the cross-shard state a commit mutates
  /// (arrival heap, grid index, pickup/drop-off records) goes behind one
  /// commit mutex — so distinct requests may plan and mutate overlapping
  /// worker sets from pool threads concurrently.
  /// With no shards attached (the default) every call stays lock-free and
  /// the PR-2 single-request contract applies. AdvanceTo and FinishAll
  /// remain driver-thread-only in both modes: they walk the arrival heap
  /// unlocked and must not overlap locked mutations.
  void AttachShards(FleetShards* shards);

  int size() const { return static_cast<int>(workers_.size()); }
  const std::vector<Worker>& workers() const { return workers_; }
  const Worker& worker(WorkerId w) const {
    return workers_[static_cast<std::size_t>(w)];
  }
  const Route& route(WorkerId w) const {
    return routes_[static_cast<std::size_t>(w)];
  }

  /// The auxiliary arrays (Sec. 4.3) of worker `w`'s current route,
  /// memoized on Route::version(): a rebuild happens only after the route
  /// actually mutated (Insert/SetStops/PopFront/anchor-time bump), so the
  /// decision and planning phases stop re-deriving O(n) state per
  /// candidate. Equivalent to a fresh BuildRouteState at every call.
  ///
  /// Thread-safety: calls for *distinct* workers may run concurrently
  /// (each worker owns its slot; the planners' parallel phases touch every
  /// candidate exactly once per loop). Without attached shards, calls for
  /// the same worker must be externally ordered — in the planners that
  /// holds because the fleet is frozen between Touch and ApplyInsertion,
  /// so after the decision phase warms a worker's entry, later calls are
  /// pure reads. With shards attached (dispatch-window engine), the
  /// check-and-rebuild is serialized on the worker's shard mutex, so
  /// concurrent requests sharing a candidate may both call this; the
  /// returned reference stays valid while the route's version is stable.
  const RouteState& CachedState(WorkerId w, PlanningContext* ctx);
  const Point& anchor_point(WorkerId w) const {
    return graph_->coord(route(w).anchor());
  }

  /// Commits every stop scheduled at or before `t`, fleet-wide. Amortized
  /// O(log |W|) per committed stop via the arrival heap.
  void AdvanceTo(double t);

  /// Ensures worker `w` can be planned at time `t`: commits its due stops
  /// and, if idle, moves its clock forward to `t`.
  void Touch(WorkerId w, double t);

  /// Commits worker `w`'s stops due at or before `t` — Touch without the
  /// idle-clock bump, i.e. exactly worker `w`'s share of AdvanceTo(t).
  /// The pipelined dispatch engine advances the fleet through this, shard
  /// by shard, instead of the driver-only heap walk: per-worker advance
  /// results are independent of each other, so a fixed shard-then-worker
  /// call order reproduces AdvanceTo's end state deterministically while
  /// individual shards advance as the previous window releases them.
  /// Shard-locked like Touch; safe to interleave with commit-stage
  /// mutations of workers in other shards.
  void AdvanceWorkerTo(WorkerId w, double t);

  /// Applies an insertion (pickup after position i, drop-off after j) to
  /// worker `w`'s route and records the assignment.
  void ApplyInsertion(WorkerId w, const Request& r, int i, int j,
                      DistanceOracle* oracle);

  /// Replaces worker `w`'s pending stops wholesale (kinetic-tree planners
  /// may reorder existing stops) and records that `r` is now assigned to
  /// `w`. Leg costs are recomputed through `oracle`.
  void ReplaceRoute(WorkerId w, const Request& r, std::vector<Stop> stops,
                    DistanceOracle* oracle);

  /// Commits all remaining stops (end of simulation).
  void FinishAll();

  /// Drops the arrival heap and stops feeding it: commits no longer push
  /// entries, and AdvanceTo becomes a no-op. The pipelined engine calls
  /// this before its stages start — it advances the fleet exclusively
  /// through AdvanceWorkerTo, so heap entries would accumulate for the
  /// whole run with no consumer (three pushes per served request).
  /// Irreversible for this Fleet; must not be combined with AdvanceTo.
  void DisableArrivalHeap();

  /// Worker assigned to a request, or kInvalidWorker.
  WorkerId AssignedWorker(RequestId r) const;
  /// Recorded pickup / drop-off times (kInf when the event never happened).
  double PickupTime(RequestId r) const;
  double DropoffTime(RequestId r) const;

  /// One executed stop: what was committed, when, at which vertex.
  struct CommittedStop {
    Stop stop;
    double time = 0.0;
  };

  /// Full execution log of worker `w`, in commit order. Used by the
  /// invariant checker (capacity/ordering/deadline replay).
  const std::vector<CommittedStop>& CommitLog(WorkerId w) const {
    return commit_log_[static_cast<std::size_t>(w)];
  }

  /// Total distance (travel time) driven so far by all workers, committed
  /// legs only. Each worker's legs are summed in route order and the
  /// per-worker sums are added in worker-id order, so the value does not
  /// depend on how commits of different workers interleave (heap-driven
  /// AdvanceTo, per-worker Touch/AdvanceWorkerTo, shard-parallel commits).
  double committed_distance() const;
  /// Committed plus still-planned distance: equals sum_w D(S_w) over the
  /// full simulation once all requests are in.
  double TotalPlannedDistance() const;

 private:
  void CommitFront(WorkerId w);
  void PushHeap(WorkerId w);
  /// Shard lock of worker `w` when shards are attached, else a no-op lock.
  std::unique_lock<std::mutex> MaybeLockShard(WorkerId w);
  /// Commit lock (heap/index/records) when sharded, else no-op.
  std::unique_lock<std::mutex> MaybeLockCommit();

  struct StateCacheEntry {
    std::uint64_t route_version = 0;
    bool valid = false;
    RouteState state;
  };

  struct HeapEntry {
    double arrival;
    WorkerId worker;
    // Route::version() at push time; a mismatch on pop means the route
    // mutated since and the entry is stale. (The route's counter is the
    // single mutation clock — the state cache keys on it too.)
    std::uint64_t version;
    bool operator>(const HeapEntry& o) const { return arrival > o.arrival; }
  };

  std::vector<Worker> workers_;
  const RoadNetwork* graph_;
  GridIndex* index_ = nullptr;
  FleetShards* shards_ = nullptr;  // non-null => shard-safe mode
  bool heap_enabled_ = true;       // false => per-worker advance only
  std::mutex commit_mu_;           // guards cross-shard commit state
  std::vector<Route> routes_;
  std::vector<StateCacheEntry> state_cache_;  // slot w ↔ routes_[w]
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;

  std::unordered_map<RequestId, WorkerId> assignment_;
  std::unordered_map<RequestId, double> pickup_time_;
  std::unordered_map<RequestId, double> dropoff_time_;
  std::vector<std::vector<CommittedStop>> commit_log_;
  std::vector<double> committed_distance_;  // per worker, commit order
};

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_FLEET_H_
