#ifndef URPSM_PERFBENCH_CHECKS_H_
#define URPSM_PERFBENCH_CHECKS_H_

// Output checks of the benchmark. All of them run outside the timed
// region of a replay.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/shortest/dijkstra.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace urpsm::perfbench {

/// The deterministic fields of one replay: equal inputs must give equal
/// outcomes at any thread count, traced or not, bit for bit.
struct Outcome {
  int processed = 0;
  int served = 0;
  int rejected = 0;
  int shed = 0;
  int dnf = 0;
  double unified_cost = 0.0;
  double total_distance = 0.0;
  double penalty_sum = 0.0;
  std::int64_t distance_queries = 0;
  std::vector<bool> served_mask;

  static Outcome Of(const SimReport& rep, const Simulation& sim) {
    Outcome o;
    o.processed = rep.processed_requests;
    o.served = rep.served_requests;
    o.rejected = rep.rejected_requests;
    o.shed = rep.shed_requests;
    o.dnf = rep.dnf_requests;
    o.unified_cost = rep.unified_cost;
    o.total_distance = rep.total_distance;
    o.penalty_sum = rep.penalty_sum;
    o.distance_queries = rep.distance_queries;
    o.served_mask = sim.served();
    return o;
  }
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

inline std::string Describe(const Outcome& o) {
  return "served=" + std::to_string(o.served) +
         " rejected=" + std::to_string(o.rejected) +
         " unified_cost=" + std::to_string(o.unified_cost) +
         " queries=" + std::to_string(o.distance_queries);
}

/// The engine's own checks: the model invariants replayed from the commit
/// log, and the served/rejected/shed/dnf partition. "" when clean.
inline std::string CheckEngine(const Simulation& sim, const SimReport& rep,
                               const std::vector<Request>& requests) {
  const InvariantReport inv = VerifyInvariants(sim.fleet(), requests);
  if (!inv.ok) return "VerifyInvariants: " + inv.violation;
  const InvariantReport acc = CheckAccounting(rep);
  if (!acc.ok) return "CheckAccounting: " + acc.violation;
  return "";
}

/// Pickups the schedule places before their request's release time. The
/// fleet resolves a busy worker's position at its last committed stop, so
/// an insertion right after that anchor departs from it in the past (see
/// Fleet's motion model). Reported, not failed: it is the engine's model,
/// not a violation of the checks below.
struct EarlyPickups {
  std::int64_t pickups = 0;
  double max_min = 0.0;  // largest lead over the release time, minutes
};

/// Independent route audit: replays every worker's commit log against
/// plain Dijkstra distances (not the hub labels the engine planned with)
/// and checks that each leg was physically drivable in the time between
/// its stops, pickup before drop-off by the same worker, capacity,
/// deadlines, that served requests are exactly the delivered ones, and
/// that total distance and unified cost recompute.
/// "" when clean.
inline std::string AuditRoutes(const RoadNetwork& graph, const Fleet& fleet,
                               const std::vector<Request>& requests,
                               const SimReport& rep,
                               const std::vector<bool>& served, double alpha,
                               EarlyPickups* early) {
  std::unordered_map<RequestId, std::size_t> index;
  index.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    index.emplace(requests[i].id, i);
  }
  // One single-source Dijkstra per distinct leg origin.
  struct Leg {
    VertexId from;
    VertexId to;
    std::size_t slot;
  };
  std::vector<Leg> legs;
  std::vector<std::size_t> first_leg(static_cast<std::size_t>(fleet.size()));
  for (WorkerId w = 0; w < fleet.size(); ++w) {
    first_leg[static_cast<std::size_t>(w)] = legs.size();
    VertexId at = fleet.worker(w).initial_location;
    for (const Fleet::CommittedStop& c : fleet.CommitLog(w)) {
      legs.push_back({at, c.stop.location, legs.size()});
      at = c.stop.location;
    }
  }
  std::vector<double> leg_len(legs.size(), kInfDistance);
  std::vector<Leg> by_from = legs;
  std::sort(by_from.begin(), by_from.end(),
            [](const Leg& a, const Leg& b) { return a.from < b.from; });
  for (std::size_t k = 0; k < by_from.size();) {
    const VertexId from = by_from[k].from;
    const std::vector<double> dist = DijkstraAll(graph, from);
    for (; k < by_from.size() && by_from[k].from == from; ++k) {
      leg_len[by_from[k].slot] =
          dist[static_cast<std::size_t>(by_from[k].to)];
    }
  }

  const auto near_le = [](double a, double b) {
    return a <= b + 1e-7 * (1.0 + std::abs(b));
  };
  std::vector<WorkerId> picked_by(requests.size(), kInvalidWorker);
  std::vector<bool> delivered(requests.size(), false);
  double total = 0.0;
  for (WorkerId w = 0; w < fleet.size(); ++w) {
    const std::string who = "worker " + std::to_string(w) + ": ";
    const int capacity = fleet.worker(w).capacity;
    int load = 0;
    double t = 0.0;
    std::size_t leg = first_leg[static_cast<std::size_t>(w)];
    for (const Fleet::CommittedStop& c : fleet.CommitLog(w)) {
      const double len = leg_len[leg++];
      if (!std::isfinite(len)) return who + "unreachable leg";
      if (!near_le(t + len, c.time)) {
        return who + "stop reached faster than the shortest path allows";
      }
      total += len;
      t = c.time;
      const auto it = index.find(c.stop.request);
      if (it == index.end()) return who + "stop of an unknown request";
      const std::size_t i = it->second;
      const Request& r = requests[i];
      const VertexId expected =
          c.stop.kind == StopKind::kPickup ? r.origin : r.destination;
      if (c.stop.location != expected) return who + "stop at the wrong vertex";
      if (c.stop.kind == StopKind::kPickup) {
        if (picked_by[i] != kInvalidWorker) {
          return who + "request picked twice";
        }
        if (!near_le(r.release_time, c.time)) {
          ++early->pickups;
          early->max_min = std::max(early->max_min, r.release_time - c.time);
        }
        picked_by[i] = w;
        load += r.capacity;
        if (load > capacity) return who + "capacity exceeded";
      } else {
        if (picked_by[i] != w || delivered[i]) {
          return who + "drop-off without this worker's pickup";
        }
        if (!near_le(c.time, r.deadline)) return who + "deadline missed";
        delivered[i] = true;
        load -= r.capacity;
      }
    }
    if (load != 0) return who + "passengers left on board";
  }
  double penalties = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (delivered[i] != static_cast<bool>(served[i])) {
      return "request " + std::to_string(requests[i].id) +
             ": served flag disagrees with the routes";
    }
    if (picked_by[i] != kInvalidWorker && !delivered[i]) {
      return "request " + std::to_string(requests[i].id) + ": never dropped";
    }
    if (!delivered[i]) penalties += requests[i].penalty;
  }
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(b));
  };
  if (!close(total, rep.total_distance)) {
    return "total distance " + std::to_string(rep.total_distance) +
           " != Dijkstra replay " + std::to_string(total);
  }
  if (!close(alpha * total + penalties, rep.unified_cost)) {
    return "unified cost " + std::to_string(rep.unified_cost) +
           " != recomputed " + std::to_string(alpha * total + penalties);
  }
  return "";
}

}  // namespace urpsm::perfbench

#endif  // URPSM_PERFBENCH_CHECKS_H_
