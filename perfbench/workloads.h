#ifndef URPSM_PERFBENCH_WORKLOADS_H_
#define URPSM_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads and the seeded input generator.
//
// The road network and its demand hotspots are fixed per workload (a
// synthetic city stands in for the paper's real one); --seed draws the
// fleet and the request trace on it. Why each workload exists and which
// layer it isolates is in perfbench/README.md.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/objective.h"
#include "src/graph/road_network.h"
#include "src/model/types.h"
#include "src/shortest/oracle.h"
#include "src/util/rng.h"
#include "src/workload/requests.h"

namespace urpsm::perfbench {

/// A stretch [begin_min, end_min) of a generated day.
struct Slice {
  double begin_min = 0.0;
  double end_min = 0.0;
};

struct WorkloadSpec {
  std::string name;
  double city_scale = 1.0;     // MakeChengduLike(scale, city_seed)
  std::uint64_t city_seed = 2;
  int workers = 0;
  double capacity_mean = 4.0;
  RequestParams requests;
  /// When not empty, only requests released in one of these slices of the
  /// generated day are kept, and the slices are laid end to end from time
  /// 0 on: release times and deadlines are re-based to the slice's start
  /// plus the lengths of the slices before it.
  std::vector<Slice> slices;
  /// Food delivery: orders of 1-3 items and revenue penalties
  /// (p_r = fare_per_min * dis(o_r, d_r)) with alpha = courier cost.
  bool delivery = false;
  double fare_per_min = 0.0;
  double alpha = 1.0;
  /// > 0: lock-step dispatch windows of this many simulated seconds,
  /// planned by DispatchWindowPlanner on nproc threads. 0: per-request
  /// pruneGreedyDP on one thread (the paper's setting).
  double window_s = 0.0;
};

inline std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec day;
  day.name = "day_taxi";
  day.city_scale = 1.0;
  day.workers = 1000;
  day.requests.count = 24000;
  day.requests.duration_min = 1440.0;
  day.requests.deadline_offset_min = 15.0;
  day.requests.penalty_factor = 10.0;
  out.push_back(day);

  // The release-time sampler clamps its fixed 8:30 / 18:00 rush peaks into
  // [0, duration_min], so a short duration would pile the peaks onto its
  // last instant. The rush hours are therefore cut out of a whole dense
  // day. Both of them, laid end to end: plan_p99_ms rests on the few
  // heaviest windows, and one hour holds so few that p99 moved by a
  // quarter between seeds; two hours halve that.
  WorkloadSpec rush;
  rush.name = "rush_window";
  rush.city_scale = 1.0;
  rush.workers = 1200;
  rush.requests.count = 80000;
  rush.requests.duration_min = 1440.0;
  rush.requests.deadline_offset_min = 15.0;
  rush.requests.penalty_factor = 10.0;
  rush.slices = {{8.0 * 60.0, 9.0 * 60.0}, {17.5 * 60.0, 18.5 * 60.0}};
  rush.window_s = 6.0;
  out.push_back(rush);

  WorkloadSpec food;
  food.name = "delivery_long";
  food.city_scale = 0.5;
  food.city_seed = 11;
  food.workers = 150;
  food.capacity_mean = 8.0;
  food.requests.count = 16000;
  food.requests.duration_min = 1440.0;
  food.requests.hotspot_count = 4;
  food.requests.hotspot_stddev_km = 0.6;
  food.requests.uniform_fraction = 0.1;
  food.requests.deadline_offset_min = 30.0;
  food.delivery = true;
  food.fare_per_min = 3.0;
  food.alpha = 0.5;
  out.push_back(food);

  return out;
}

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  static const std::vector<WorkloadSpec> all = AllWorkloads();
  for (const WorkloadSpec& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

struct Inputs {
  std::vector<Worker> workers;
  std::vector<Request> requests;
};

/// The request generator's release-time distribution (GenerateRequests):
/// two Gaussian rush peaks at 8:30 and 18:00, clamped into the day, over a
/// uniform base load.
inline double SampleReleaseTime(const RequestParams& p, Rng* rng) {
  if (rng->Bernoulli(p.rush_fraction)) {
    const bool morning = rng->Bernoulli(0.45);
    const double peak = morning ? 8.5 * 60.0 : 18.0 * 60.0;
    return std::clamp(rng->Gaussian(peak, 45.0), 0.0, p.duration_min);
  }
  return rng->Uniform(0.0, p.duration_min);
}

/// The workload's fleet and request trace for `seed`. Trips follow
/// GenerateRequests' distributions (hotspot-clustered endpoints, the rush
/// peaks above, NYC passenger counts, penalty = factor * dis(o_r, d_r))
/// with one difference: GenerateRequests draws the hotspot centres from
/// the same stream as the trips, so every seed would move the city's
/// demand centres and with them the served rate by tens of percent. Here
/// the centres belong to the city and the seed draws only the fleet and
/// the trips. `labels` prices the penalties.
inline Inputs MakeInputs(const WorkloadSpec& spec, const RoadNetwork& graph,
                         DistanceOracle* labels, std::uint64_t seed) {
  const RequestParams& p = spec.requests;
  const VertexSampler sampler(graph);
  Rng city_rng(spec.city_seed);
  std::vector<Point> hotspots;
  for (int h = 0; h < p.hotspot_count; ++h) {
    hotspots.push_back(graph.coord(sampler.SampleUniform(&city_rng)));
  }

  // Distinct odd constants keep neighbouring seeds' streams unrelated.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull);
  Inputs in;
  in.workers = GenerateWorkers(graph, spec.workers, spec.capacity_mean, &rng);
  const auto endpoint = [&]() -> VertexId {
    if (hotspots.empty() || rng.Bernoulli(p.uniform_fraction)) {
      return sampler.SampleUniform(&rng);
    }
    const Point& c = hotspots[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(hotspots.size()) - 1))];
    return sampler.SampleNear({c.x + rng.Gaussian(0.0, p.hotspot_stddev_km),
                               c.y + rng.Gaussian(0.0, p.hotspot_stddev_km)},
                              &rng);
  };
  // NYC TLC passenger counts, as in GenerateRequests.
  const std::vector<double> passengers = {0.72, 0.14, 0.05, 0.05, 0.02, 0.02};
  for (int i = 0; i < p.count; ++i) {
    double t = SampleReleaseTime(p, &rng);
    if (!spec.slices.empty()) {
      double offset = 0.0;
      bool kept = false;
      for (const Slice& slice : spec.slices) {
        if (t >= slice.begin_min && t < slice.end_min) {
          t = offset + (t - slice.begin_min);
          kept = true;
          break;
        }
        offset += slice.end_min - slice.begin_min;
      }
      if (!kept) continue;
    }
    Request r;
    r.origin = endpoint();
    do {
      r.destination = endpoint();
    } while (r.destination == r.origin);
    r.release_time = t;
    r.deadline = r.release_time + p.deadline_offset_min;
    r.capacity = spec.delivery ? rng.UniformInt(1, 3)
                               : 1 + rng.Categorical(passengers);
    in.requests.push_back(r);
  }
  std::sort(in.requests.begin(), in.requests.end(),
            [](const Request& a, const Request& b) {
              return a.release_time < b.release_time;
            });
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    in.requests[i].id = static_cast<RequestId>(i);
  }
  if (spec.delivery) {
    SetRevenuePenalties(&in.requests, spec.fare_per_min, labels);
  } else {
    SetPenaltyFactors(&in.requests, p.penalty_factor, labels);
  }
  return in;
}

}  // namespace urpsm::perfbench

#endif  // URPSM_PERFBENCH_WORKLOADS_H_
