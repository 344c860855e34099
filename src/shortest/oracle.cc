#include "src/shortest/oracle.h"

#include "src/obs/registry.h"
#include "src/shortest/bidijkstra.h"
#include "src/shortest/dijkstra.h"
#include "src/util/fault.h"

namespace urpsm {

double DijkstraOracle::Distance(VertexId u, VertexId v) {
  ++query_count_;
  return BidirectionalDistance(*graph_, u, v);
}

std::vector<VertexId> DijkstraOracle::Path(VertexId u, VertexId v) {
  return DijkstraPath(*graph_, u, v);
}

double BilledOracle::Distance(VertexId u, VertexId v) {
  MaybeInject(faults_, FaultSite::kOracleDelay);
  query_count_.fetch_add(1, std::memory_order_relaxed);
  if (u == v) return 0.0;
  return inner_->Distance(u, v);
}

void BilledOracle::BatchQuery(const std::vector<VertexId>& sources,
                              const std::vector<VertexId>& targets,
                              std::vector<double>* out) {
  MaybeInject(faults_, FaultSite::kOracleDelay);
  const std::size_t nt = targets.size();
  query_count_.fetch_add(static_cast<std::int64_t>(sources.size()) *
                             static_cast<std::int64_t>(nt),
                         std::memory_order_relaxed);
  inner_->BatchQuery(sources, targets, out);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      if (sources[i] == targets[j]) (*out)[i * nt + j] = 0.0;
    }
  }
}

std::vector<VertexId> BilledOracle::Path(VertexId u, VertexId v) {
  return inner_->Path(u, v);
}

void BilledOracle::RegisterMetrics(obs::Registry* reg) {
  if (reg == nullptr || !reg->enabled()) return;
  reg->RegisterCallbackGauge(
      "oracle.queries",
      [this] { return static_cast<double>(query_count()); });
}

}  // namespace urpsm
