#include "src/workload/io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace urpsm {

bool SaveInstance(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "urpsm-instance v1\n";
  out << "name " << (instance.name.empty() ? "unnamed" : instance.name)
      << "\n";
  const RoadNetwork& g = instance.graph;
  out << "vertices " << g.num_vertices() << "\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << g.coord(v).x << " " << g.coord(v).y << "\n";
  }
  out << "edges " << g.edges().size() << "\n";
  for (const EdgeSpec& e : g.edges()) {
    out << e.u << " " << e.v << " " << e.length_km << " "
        << static_cast<int>(e.cls) << "\n";
  }
  out << "workers " << instance.workers.size() << "\n";
  for (const Worker& w : instance.workers) {
    out << w.initial_location << " " << w.capacity << "\n";
  }
  out << "requests " << instance.requests.size() << "\n";
  for (const Request& r : instance.requests) {
    out << r.origin << " " << r.destination << " " << r.release_time << " "
        << r.deadline << " " << r.penalty << " " << r.capacity << "\n";
  }
  return static_cast<bool>(out);
}

namespace {

// Counts come from the file, so they bound loops but never size an
// allocation up front: a bogus count fails at end of input instead of
// throwing bad_alloc.
bool ReadCount(std::istream& in, const char* expected_tag, std::size_t* n) {
  std::string tag;
  return static_cast<bool>(in >> tag >> *n) && tag == expected_tag;
}

}  // namespace

bool LoadInstance(const std::string& path, Instance* result) {
  std::ifstream in(path);
  if (!in) return false;
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "urpsm-instance" ||
      version != "v1") {
    return false;
  }
  Instance inst;
  std::string tag;
  if (!(in >> tag >> inst.name) || tag != "name") return false;

  std::size_t count = 0;
  if (!ReadCount(in, "vertices", &count) ||
      count > static_cast<std::size_t>(std::numeric_limits<VertexId>::max())) {
    return false;
  }
  std::vector<Point> coords;
  for (std::size_t i = 0; i < count; ++i) {
    Point p;
    if (!(in >> p.x >> p.y)) return false;
    coords.push_back(p);
  }
  const auto n = static_cast<VertexId>(coords.size());
  const auto in_range = [n](VertexId v) { return v >= 0 && v < n; };

  if (!ReadCount(in, "edges", &count)) return false;
  std::vector<EdgeSpec> edges;
  for (std::size_t i = 0; i < count; ++i) {
    EdgeSpec e;
    int cls = 0;
    if (!(in >> e.u >> e.v >> e.length_km >> cls)) return false;
    if (!in_range(e.u) || !in_range(e.v)) return false;
    if (!std::isfinite(e.length_km) || e.length_km < 0.0) return false;
    if (cls < 0 || cls > 3) return false;
    e.cls = static_cast<RoadClass>(cls);
    edges.push_back(e);
  }
  inst.graph = RoadNetwork::FromEdges(std::move(coords), edges);

  if (!ReadCount(in, "workers", &count)) return false;
  for (std::size_t i = 0; i < count; ++i) {
    Worker w;
    w.id = static_cast<WorkerId>(i);
    if (!(in >> w.initial_location >> w.capacity)) return false;
    if (!in_range(w.initial_location) || w.capacity < 1) return false;
    inst.workers.push_back(w);
  }

  if (!ReadCount(in, "requests", &count)) return false;
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    r.id = static_cast<RequestId>(i);
    if (!(in >> r.origin >> r.destination >> r.release_time >> r.deadline >>
          r.penalty >> r.capacity)) {
      return false;
    }
    if (!in_range(r.origin) || !in_range(r.destination) || r.capacity < 1) {
      return false;
    }
    if (!(r.deadline >= r.release_time)) return false;  // NaN fails too
    inst.requests.push_back(r);
  }
  *result = std::move(inst);
  return true;
}

}  // namespace urpsm
