#include "src/sim/fleet.h"

#include <cassert>

#include "src/parallel/fleet_shards.h"

namespace urpsm {

Fleet::Fleet(std::vector<Worker> workers, const RoadNetwork* graph)
    : workers_(std::move(workers)), graph_(graph) {
  routes_.reserve(workers_.size());
  state_cache_.resize(workers_.size());
  commit_log_.resize(workers_.size());
  committed_distance_.resize(workers_.size(), 0.0);
  for (const Worker& w : workers_) {
    routes_.emplace_back(w.initial_location, 0.0);
  }
}

std::unique_lock<std::mutex> Fleet::MaybeLockShard(WorkerId w) {
  if (shards_ == nullptr) return {};
  return std::unique_lock<std::mutex>(shards_->mutex_of(w));
}

std::unique_lock<std::mutex> Fleet::MaybeLockCommit() {
  if (shards_ == nullptr) return {};
  return std::unique_lock<std::mutex>(commit_mu_);
}

const RouteState& Fleet::CachedState(WorkerId w, PlanningContext* ctx) {
  const std::unique_lock<std::mutex> lock = MaybeLockShard(w);
  StateCacheEntry& entry = state_cache_[static_cast<std::size_t>(w)];
  const Route& rt = routes_[static_cast<std::size_t>(w)];
  if (!entry.valid || entry.route_version != rt.version()) {
    BuildRouteState(rt, ctx, &entry.state);
    entry.route_version = rt.version();
    entry.valid = true;
  }
  return entry.state;
}

void Fleet::AttachIndex(GridIndex* index) {
  index_ = index;
  for (const Worker& w : workers_) {
    index_->Insert(w.id, anchor_point(w.id));
  }
}

void Fleet::AttachShards(FleetShards* shards) { shards_ = shards; }

void Fleet::PushHeap(WorkerId w) {
  if (!heap_enabled_) return;
  const Route& rt = routes_[static_cast<std::size_t>(w)];
  if (rt.empty()) return;
  heap_.push({rt.anchor_time() + rt.leg_costs().front(), w, rt.version()});
}

void Fleet::DisableArrivalHeap() {
  heap_enabled_ = false;
  heap_ = {};
}

void Fleet::CommitFront(WorkerId w) {
  // Callers either run on the driver thread (AdvanceTo/FinishAll) or hold
  // the worker's shard lock (Touch in shard-safe mode): the route, the
  // per-worker commit log and the per-worker distance need no further
  // locking here. The cross-shard commit state does.
  const auto ws = static_cast<std::size_t>(w);
  Route& rt = routes_[ws];
  assert(!rt.empty());
  const Point from = anchor_point(w);
  committed_distance_[ws] += rt.leg_costs().front();
  const Stop stop = rt.PopFront();
  commit_log_[ws].push_back({stop, rt.anchor_time()});
  const std::unique_lock<std::mutex> lock = MaybeLockCommit();
  if (stop.kind == StopKind::kPickup) {
    pickup_time_[stop.request] = rt.anchor_time();
  } else {
    dropoff_time_[stop.request] = rt.anchor_time();
  }
  if (index_ != nullptr) index_->Move(w, from, anchor_point(w));
  PushHeap(w);
}

void Fleet::AdvanceTo(double t) {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    const auto ws = static_cast<std::size_t>(top.worker);
    if (top.version != routes_[ws].version()) {
      heap_.pop();
      continue;
    }
    if (top.arrival > t) break;
    heap_.pop();
    CommitFront(top.worker);
  }
}

void Fleet::Touch(WorkerId w, double t) {
  const std::unique_lock<std::mutex> lock = MaybeLockShard(w);
  Route& rt = routes_[static_cast<std::size_t>(w)];
  while (!rt.empty() && rt.anchor_time() + rt.leg_costs().front() <= t) {
    CommitFront(w);
  }
  if (rt.empty() && rt.anchor_time() < t) rt.set_anchor_time(t);
}

void Fleet::AdvanceWorkerTo(WorkerId w, double t) {
  const std::unique_lock<std::mutex> lock = MaybeLockShard(w);
  Route& rt = routes_[static_cast<std::size_t>(w)];
  while (!rt.empty() && rt.anchor_time() + rt.leg_costs().front() <= t) {
    CommitFront(w);
  }
}

void Fleet::ApplyInsertion(WorkerId w, const Request& r, int i, int j,
                           DistanceOracle* oracle) {
  const std::unique_lock<std::mutex> shard_lock = MaybeLockShard(w);
  Route& rt = routes_[static_cast<std::size_t>(w)];
  rt.Insert(r, i, j, oracle);
  const std::unique_lock<std::mutex> lock = MaybeLockCommit();
  assignment_[r.id] = w;
  PushHeap(w);
}

void Fleet::ReplaceRoute(WorkerId w, const Request& r, std::vector<Stop> stops,
                         DistanceOracle* oracle) {
  const std::unique_lock<std::mutex> shard_lock = MaybeLockShard(w);
  Route& rt = routes_[static_cast<std::size_t>(w)];
  rt.SetStops(std::move(stops), oracle);
  const std::unique_lock<std::mutex> lock = MaybeLockCommit();
  assignment_[r.id] = w;
  PushHeap(w);
}

void Fleet::FinishAll() {
  for (WorkerId w = 0; w < size(); ++w) {
    while (!routes_[static_cast<std::size_t>(w)].empty()) CommitFront(w);
  }
}

WorkerId Fleet::AssignedWorker(RequestId r) const {
  auto it = assignment_.find(r);
  return it == assignment_.end() ? kInvalidWorker : it->second;
}

double Fleet::PickupTime(RequestId r) const {
  auto it = pickup_time_.find(r);
  return it == pickup_time_.end() ? kInf : it->second;
}

double Fleet::DropoffTime(RequestId r) const {
  auto it = dropoff_time_.find(r);
  return it == dropoff_time_.end() ? kInf : it->second;
}

double Fleet::committed_distance() const {
  double total = 0.0;
  for (const double d : committed_distance_) total += d;
  return total;
}

double Fleet::TotalPlannedDistance() const {
  double total = committed_distance();
  for (const Route& rt : routes_) total += rt.RemainingCost();
  return total;
}

}  // namespace urpsm
