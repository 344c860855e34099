#ifndef URPSM_SRC_SHORTEST_ORACLE_H_
#define URPSM_SRC_SHORTEST_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/graph/road_network.h"

namespace urpsm {

class FaultInjector;

namespace obs {
class Registry;
}  // namespace obs

/// Abstract shortest-distance / shortest-path oracle over a road network.
///
/// The paper assumes a shortest-distance query takes O(1) (or O(q)) time and
/// answers them with a hub-based labeling plus a shared LRU cache
/// (Sec. 6.1). This library keeps the labeling but drops the cache (see
/// BilledOracle). All algorithms in this library talk to this interface, and
/// the number of `Distance` calls is the "distance query" count reported by
/// the pruning experiments (Figs. 3 and 6).
///
/// Thread-safety contract (relied on by the parallel dispatch engine):
/// `Distance` must be safe to call concurrently. Every oracle bundled here
/// satisfies it the same way — the query itself only reads immutable state
/// (graph, labels) through per-call local buffers, and the query counter is
/// atomic. `Path` is not part of the contract: planners only materialize
/// paths sequentially.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Shortest travel time between two vertices, in minutes.
  virtual double Distance(VertexId u, VertexId v) = 0;

  /// Shortest path between two vertices as a vertex sequence including both
  /// endpoints. Empty when unreachable.
  virtual std::vector<VertexId> Path(VertexId u, VertexId v) = 0;

  /// Multi-source sweep: fills `out` (row-major, sources.size() x
  /// targets.size()) with out[i * targets.size() + j] =
  /// Distance(sources[i], targets[j]). Bills sources x targets queries, and
  /// every cell is bit-identical to the corresponding point query. The base
  /// implementation loops over Distance; label-based oracles override it to
  /// walk each source label once against rank-indexed dense target columns.
  /// Same thread-safety contract as Distance.
  virtual void BatchQuery(const std::vector<VertexId>& sources,
                          const std::vector<VertexId>& targets,
                          std::vector<double>* out) {
    out->resize(sources.size() * targets.size());
    std::size_t at = 0;
    for (const VertexId s : sources) {
      for (const VertexId t : targets) (*out)[at++] = Distance(s, t);
    }
  }

  /// Worst-case absolute error of any Distance result versus the exact
  /// shortest distance, when the oracle stores lossy (quantized) labels.
  /// 0 for exact oracles. Decorators forward to the wrapped oracle.
  virtual double QuantizationErrorBound() const { return 0.0; }

  /// Number of `Distance` calls served so far.
  std::int64_t query_count() const {
    return query_count_.load(std::memory_order_relaxed);
  }

  void ResetQueryCount() { query_count_.store(0, std::memory_order_relaxed); }

 protected:
  DistanceOracle() = default;
  // std::atomic is neither copyable nor movable; oracles are (HubLabelOracle
  // is returned by value from Build), so transfer the counter's value.
  DistanceOracle(const DistanceOracle& other) : query_count_(other.query_count()) {}
  DistanceOracle& operator=(const DistanceOracle& other) {
    query_count_.store(other.query_count(), std::memory_order_relaxed);
    return *this;
  }

  std::atomic<std::int64_t> query_count_{0};
};

/// Exact oracle running Dijkstra per query. Simple and always correct;
/// used as ground truth in tests and as a fallback oracle.
class DijkstraOracle : public DistanceOracle {
 public:
  explicit DijkstraOracle(const RoadNetwork* graph) : graph_(graph) {}

  double Distance(VertexId u, VertexId v) override;
  std::vector<VertexId> Path(VertexId u, VertexId v) override;

 private:
  const RoadNetwork* graph_;
};

/// Per-run decorator over the shared oracle: bills every call to this
/// oracle's counter, short-circuits u == v to 0, and hosts the
/// kOracleDelay fault site. Everything else forwards to the inner oracle.
///
/// Deviation from the paper (Sec. 6.1): there is no LRU cache in front of
/// the labels. Queries on contraction-hierarchy-ordered labels are cheap
/// enough that a shared cache's upkeep (a striped lock, a hash probe and a
/// list splice per lookup, ~1M entries per replay) cost more end to end
/// than the queries it saved; README "Distance oracle" has the
/// measurement. Results cannot differ: label
/// distances are symmetric bit for bit and BatchQuery cells match point
/// queries, so a cached value was always the value the inner oracle gives.
class BilledOracle : public DistanceOracle {
 public:
  /// `inner` is borrowed, not owned: oracles (hub labels in particular)
  /// are built once and shared across many simulation runs.
  explicit BilledOracle(DistanceOracle* inner) : inner_(inner) {}

  double Distance(VertexId u, VertexId v) override;
  std::vector<VertexId> Path(VertexId u, VertexId v) override;

  /// Bills sources x targets and forwards the block to the inner oracle as
  /// one BatchQuery; s == t cells read 0, as the point query does.
  void BatchQuery(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>& targets,
                  std::vector<double>* out) override;

  double QuantizationErrorBound() const override {
    return inner_->QuantizationErrorBound();
  }

  /// Registers the pull-model gauge oracle.queries on `reg`. The oracle
  /// must outlive the registry's last Snapshot (or the gauges must be
  /// frozen first). No-op when reg is null or disabled.
  void RegisterMetrics(obs::Registry* reg);

  /// Arms the kOracleDelay fault site on this oracle's Distance path
  /// (timing-only; query counts and results are untouched). nullptr (the
  /// default) costs one branch per call.
  void set_faults(FaultInjector* faults) { faults_ = faults; }

 private:
  DistanceOracle* inner_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace urpsm

#endif  // URPSM_SRC_SHORTEST_ORACLE_H_
