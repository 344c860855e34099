#ifndef URPSM_SRC_SHORTEST_HUB_LABELS_H_
#define URPSM_SRC_SHORTEST_HUB_LABELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/road_network.h"
#include "src/shortest/oracle.h"

namespace urpsm {

/// Build-time options for HubLabelOracle. The defaults give exact labels.
struct OracleOptions {
  /// Store label distances as 32-bit fixed point instead of doubles,
  /// shrinking CSR labels from 12 to 8 bytes per entry. Queries then carry
  /// a proven absolute error bound of `quantization_error_bound()`; exact
  /// infinities (disconnected pairs) survive the round trip via a sentinel.
  bool quantize = false;
};

/// Two-hop hub labeling built with pruned landmark labeling (PLL).
///
/// Stand-in for the hub-based labeling algorithm of Abraham et al. [9] that
/// the paper uses for on-the-fly shortest distance and path queries
/// (Sec. 6.1). The label of a vertex v is a sorted list of (hub, distance)
/// pairs; dis(u, v) = min over common hubs h of d(u,h) + d(h,v). Pruned
/// Dijkstras are run from roots in descending Contraction Hierarchies rank
/// (vertices contracted last by the lazy edge-difference heuristic first),
/// which keeps labels small on road-like planar graphs: ~38 entries per
/// vertex on MakeChengduLike(1.0), against ~676 for descending degree.
///
/// The hub order fixes which hub realises each distance, and d(h,u) + d(h,v)
/// rounds differently for different h. Any other order would therefore
/// return distances that differ in the last bits (up to ~1e-15 relative),
/// and those can flip near-ties in the planner: simulation outputs are a
/// function of the order, not only of the graph.
///
/// Labels are stored in CSR layout: one contiguous hub-rank array and one
/// contiguous hub-distance array (structure of arrays), plus per-vertex
/// offsets. A query scatters the shorter label into a rank-indexed dense
/// column and scans the longer one — no per-vertex vector indirection, no
/// padding (12 bytes per label exact, 8 quantized).
class HubLabelOracle : public DistanceOracle {
 public:
  /// Builds labels for `graph`: a CH contraction pass for the root order,
  /// then one pruned Dijkstra per root, sequentially. O(sum label sizes *
  /// log) preprocessing; intended for graphs up to a few hundred thousand
  /// vertices.
  static HubLabelOracle Build(const RoadNetwork& graph,
                              const OracleOptions& options = {});

  /// Same build, in the (graph, pool, options) call shape of callers
  /// written when the build could fan out over a thread pool. The build is
  /// sequential, so the only pool accepted is nullptr.
  static HubLabelOracle Build(const RoadNetwork& graph, std::nullptr_t,
                              const OracleOptions& options) {
    return Build(graph, options);
  }

  double Distance(VertexId u, VertexId v) override;

  /// Multi-source sweep: each target label is scattered into its own
  /// rank-indexed dense column once, then each source label is walked once
  /// against all target columns — O(sum(label(s)) * |targets| +
  /// sum(label(t))) instead of per-pair scatter/restore. Every cell is
  /// bit-identical to the corresponding Distance call (min over the same
  /// candidate sums); bills sources x targets queries.
  void BatchQuery(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>& targets,
                  std::vector<double>* out) override;

  /// Path queries fall back to Dijkstra on the underlying graph (the paper
  /// issues far fewer path queries than distance queries; the planner only
  /// needs paths when materializing final routes).
  std::vector<VertexId> Path(VertexId u, VertexId v) override;

  /// Average number of (hub, distance) pairs per vertex label.
  double average_label_size() const;

  /// Total memory consumed by the labels, in bytes. Exact: the CSR arrays
  /// are shrunk to size after build, and this sums size() * element width.
  std::int64_t MemoryBytes() const;

  bool quantized() const { return quantized_; }

  /// Proven worst-case absolute error of any Distance/BatchQuery result:
  /// 0 when exact; when quantized, each of the two label entries in a
  /// candidate sum carries at most half a quantum of rounding error plus
  /// O(eps)-scaled dequantization error, and min over perturbed candidates
  /// moves by at most the largest per-candidate perturbation.
  double QuantizationErrorBound() const override {
    return quantization_error_bound_;
  }

  /// Fixed-point helpers, exposed for edge-case tests. `scale` maps
  /// travel-time minutes to quantum counts. Encoding saturates at
  /// kQuantMax; exact infinity (unreachable) round-trips via kQuantInf.
  static constexpr std::uint32_t kQuantInf = 0xFFFFFFFFu;
  static constexpr std::uint32_t kQuantMax = 0xFFFFFFFEu;
  static std::uint32_t QuantizeDistance(double d, double scale);
  static double DequantizeDistance(std::uint32_t q, double resolution);

  /// Quantum size in minutes (0 when not quantized).
  double quant_resolution() const { return quant_resolution_; }

  /// Exact equality of the label structure (offsets, hub ranks and hub
  /// distances — exact or quantized — bit for bit). Used to prove that
  /// every Build entry point produces the same labels.
  bool SameLabels(const HubLabelOracle& other) const {
    return offsets_ == other.offsets_ && hub_rank_ == other.hub_rank_ &&
           hub_dist_ == other.hub_dist_ && hub_dist_q_ == other.hub_dist_q_ &&
           quant_resolution_ == other.quant_resolution_;
  }

 private:
  explicit HubLabelOracle(const RoadNetwork* graph) : graph_(graph) {}

  double QueryByLabels(VertexId u, VertexId v) const;

  /// Scatters vertex v's label distances (dequantized if needed) into the
  /// rank-indexed column `col` at `stride` doubles per rank; RestoreColumn
  /// undoes it. Stride 1 serves the point query's dense column; the batched
  /// sweep interleaves its per-target columns rank-major (stride = number
  /// of targets) so one cache line holds every target's entry for a rank.
  void ScatterLabel(VertexId v, double* col, std::size_t stride) const;
  void RestoreColumn(VertexId v, double* col, std::size_t stride) const;

  const RoadNetwork* graph_;
  bool quantized_ = false;
  double quant_resolution_ = 0.0;        // minutes per quantum; 0 = exact
  double quant_scale_ = 0.0;             // quanta per minute; 0 = exact
  double quantization_error_bound_ = 0.0;
  // CSR label storage: vertex v's label occupies [offsets_[v], offsets_[v+1])
  // in hub_rank_ and hub_dist_ (exact) or hub_dist_q_ (quantized), sorted by
  // hub rank ascending (ranks are positions in the root order, so lists are
  // sorted by construction). Exactly one of the distance arrays is non-empty.
  std::vector<std::int64_t> offsets_;
  std::vector<VertexId> hub_rank_;
  std::vector<double> hub_dist_;
  std::vector<std::uint32_t> hub_dist_q_;
};

}  // namespace urpsm

#endif  // URPSM_SRC_SHORTEST_HUB_LABELS_H_
