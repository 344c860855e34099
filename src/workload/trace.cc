#include "src/workload/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

namespace urpsm {

namespace {

/// Bucket coordinate of `offset_km` on an axis of `n` buckets. The clamp
/// runs in floating point before the cast, so a far (or non-finite)
/// point lands in an edge bucket instead of overflowing the int cast.
/// Within [0, n) this is exactly the plain truncating cast.
int BucketCoord(double offset_km, double bucket_km, int n) {
  const double c = offset_km / bucket_km;
  if (!(c > 0.0)) return 0;  // negative or NaN
  return static_cast<int>(std::min(c, static_cast<double>(n - 1)));
}

}  // namespace

bool LoadTripCsv(const std::string& path, std::vector<TripRecord>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;  // header
  std::vector<TripRecord> trips;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    TripRecord t;
    char sep[5] = {};
    if (!(ss >> t.release_min >> sep[0] >> t.pickup.x >> sep[1] >>
          t.pickup.y >> sep[2] >> t.dropoff.x >> sep[3] >> t.dropoff.y >>
          sep[4] >> t.passengers)) {
      return false;
    }
    if (std::any_of(std::begin(sep), std::end(sep),
                    [](char c) { return c != ','; })) {
      return false;
    }
    ss >> std::ws;
    if (!ss.eof()) return false;  // anything after `passengers`
    for (const double v : {t.release_min, t.pickup.x, t.pickup.y,
                           t.dropoff.x, t.dropoff.y}) {
      if (!std::isfinite(v)) return false;
    }
    trips.push_back(t);
  }
  *out = std::move(trips);
  return true;
}

bool SaveTripCsv(const std::vector<TripRecord>& trips,
                 const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "release_min,pickup_x,pickup_y,dropoff_x,dropoff_y,passengers\n";
  for (const TripRecord& t : trips) {
    out << t.release_min << ',' << t.pickup.x << ',' << t.pickup.y << ','
        << t.dropoff.x << ',' << t.dropoff.y << ',' << t.passengers << '\n';
  }
  return static_cast<bool>(out);
}

NearestVertexIndex::NearestVertexIndex(const RoadNetwork& graph,
                                       double bucket_km)
    : graph_(&graph), bucket_km_(bucket_km) {
  Point hi;
  graph.BoundingBox(&lo_, &hi);
  bx_ = std::max(1, static_cast<int>(std::ceil((hi.x - lo_.x) / bucket_km_)));
  by_ = std::max(1, static_cast<int>(std::ceil((hi.y - lo_.y) / bucket_km_)));
  buckets_.resize(static_cast<std::size_t>(bx_) * by_);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const Point& p = graph.coord(v);
    const int x = BucketCoord(p.x - lo_.x, bucket_km_, bx_);
    const int y = BucketCoord(p.y - lo_.y, bucket_km_, by_);
    buckets_[static_cast<std::size_t>(y) * bx_ + x].push_back(v);
  }
}

VertexId NearestVertexIndex::Nearest(const Point& p) const {
  const int cx = BucketCoord(p.x - lo_.x, bucket_km_, bx_);
  const int cy = BucketCoord(p.y - lo_.y, bucket_km_, by_);
  VertexId best = kInvalidVertex;
  double best_d = std::numeric_limits<double>::infinity();
  const int max_ring = std::max(bx_, by_);
  for (int ring = 0; ring <= max_ring; ++ring) {
    // Once a candidate exists, one extra ring suffices: anything farther
    // out is at least (ring - 1) * bucket_km away.
    if (best != kInvalidVertex &&
        static_cast<double>(ring - 1) * bucket_km_ > best_d) {
      break;
    }
    for (int y = std::max(0, cy - ring); y <= std::min(by_ - 1, cy + ring);
         ++y) {
      for (int x = std::max(0, cx - ring); x <= std::min(bx_ - 1, cx + ring);
           ++x) {
        if (std::max(std::abs(x - cx), std::abs(y - cy)) != ring) continue;
        for (VertexId v : buckets_[static_cast<std::size_t>(y) * bx_ + x]) {
          const double d = EuclideanDistance(graph_->coord(v), p);
          // The first vertex is taken even at d == inf: a point so far
          // away that every distance overflows still maps to a real
          // vertex (one in the edge bucket nearest to it).
          if (best == kInvalidVertex || d < best_d) {
            best_d = d;
            best = v;
          }
        }
      }
    }
  }
  return best;
}

std::vector<Request> RequestsFromTrips(const RoadNetwork& graph,
                                       const std::vector<TripRecord>& trips,
                                       double deadline_offset_min,
                                       double penalty_factor,
                                       DistanceOracle* oracle) {
  const NearestVertexIndex index(graph);
  std::vector<Request> requests;
  requests.reserve(trips.size());
  for (const TripRecord& t : trips) {
    Request r;
    r.origin = index.Nearest(t.pickup);
    r.destination = index.Nearest(t.dropoff);
    if (r.origin == r.destination) continue;  // degenerate after mapping
    r.release_time = t.release_min;
    r.deadline = t.release_min + deadline_offset_min;
    r.capacity = std::max(1, t.passengers);
    requests.push_back(r);
  }
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              return a.release_time < b.release_time;
            });
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = static_cast<RequestId>(i);
    requests[i].penalty =
        penalty_factor *
        oracle->Distance(requests[i].origin, requests[i].destination);
  }
  return requests;
}

}  // namespace urpsm
