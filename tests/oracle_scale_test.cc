// Tests for the continental-scale oracle work: the CH contraction root
// order (label size on a city graph, exactness against plain Dijkstra),
// 32-bit quantized label distances (saturation/infinity semantics and the
// proven error bound), the batched multi-source BatchQuery sweep through
// HubLabelOracle / BilledOracle / GatherDistanceColumns, and thread-count
// identity of quantized runs.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/builders.h"
#include "src/insertion/insertion.h"
#include "src/model/feasibility.h"
#include "src/shortest/contraction.h"
#include "src/shortest/dijkstra.h"
#include "src/shortest/hub_labels.h"
#include "src/shortest/oracle.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

RoadNetwork MakeTwoComponentGraph() {
  // Two 3x4 grids with no connecting edge.
  std::vector<Point> coords;
  std::vector<EdgeSpec> edges;
  const auto add_grid = [&](double x0, double y0) {
    const VertexId base = static_cast<VertexId>(coords.size());
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 4; ++c) {
        coords.push_back({x0 + c * 1.0, y0 + r * 1.0});
      }
    }
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 4; ++c) {
        const VertexId v = base + static_cast<VertexId>(r * 4 + c);
        if (c + 1 < 4) edges.push_back({v, v + 1, 1.0, RoadClass::kPrimary});
        if (r + 1 < 3) edges.push_back({v, v + 4, 1.0, RoadClass::kPrimary});
      }
    }
  };
  add_grid(0.0, 0.0);
  add_grid(100.0, 100.0);
  return RoadNetwork::FromEdges(std::move(coords), edges);
}

OracleOptions Quantized() {
  OracleOptions o;
  o.quantize = true;
  return o;
}

// Full-scale Chengdu-like city and its labels, built once for the tests
// that need the day_taxi-sized graph (the CH build dominates their cost).
struct ChengduCity {
  ChengduCity()
      : graph(MakeChengduLike(1.0)), labels(HubLabelOracle::Build(graph)) {}
  RoadNetwork graph;
  HubLabelOracle labels;
};

ChengduCity& Chengdu() {
  static ChengduCity* city = new ChengduCity();
  return *city;
}

// --------------------------------------------------------- vertex ordering

TEST(HubLabelOrderTest, ContractionOrderIsAPermutation) {
  Rng grng(91);
  const RoadNetwork g = MakeRandomGeometricGraph(150, 10.0, 4, &grng);
  const std::vector<int> rank = ContractionOrder(g);
  ASSERT_EQ(rank.size(), static_cast<std::size_t>(g.num_vertices()));
  std::vector<bool> seen(rank.size(), false);
  for (const int r : rank) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, static_cast<int>(rank.size()));
    ASSERT_FALSE(seen[static_cast<std::size_t>(r)]);
    seen[static_cast<std::size_t>(r)] = true;
  }
}

TEST(HubLabelOrderTest, ContractionOrderMatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng grng(40 + seed);
    const RoadNetwork g = MakeRandomGeometricGraph(160, 12.0, 4, &grng);
    HubLabelOracle labels = HubLabelOracle::Build(g);
    DijkstraOracle truth(&g);
    Rng rng(7 * seed);
    for (int trial = 0; trial < 150; ++trial) {
      const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
      const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
      EXPECT_NEAR(labels.Distance(s, t), truth.Distance(s, t), 1e-9)
          << "seed=" << seed << " s=" << s << " t=" << t;
    }
  }
}

TEST(HubLabelOrderTest, ContractionOrderShrinksLabelsOnCityGraph) {
  // The CH root order is what keeps labels small on road-like graphs: on
  // the full-scale Chengdu-like city it gives ~38.5 entries per vertex,
  // where descending degree gave ~676.
  ChengduCity& city = Chengdu();
  EXPECT_GT(city.labels.average_label_size(), 0.0);
  EXPECT_LE(city.labels.average_label_size(), 60.0);
}

TEST(HubLabelOrderTest, CityLabelsMatchDijkstraOnSampledPairs) {
  // Exactness on the day_taxi-sized city, checked against plain Dijkstra
  // (which shares no code with the labels): every sampled label distance
  // matches the Dijkstra distance within a relative 1e-12. The two sum the
  // same path's edges in different orders, so they may differ in the last
  // bits, never more.
  ChengduCity& city = Chengdu();
  const RoadNetwork& g = city.graph;
  const VertexId n = g.num_vertices();
  Rng rng(29);
  constexpr int kSources = 40;
  std::int64_t pairs = 0;
  for (int k = 0; k < kSources; ++k) {
    const VertexId s = rng.UniformInt(0, n - 1);
    const std::vector<double> truth = DijkstraAll(g, s);
    for (VertexId t = 0; t < n; ++t) {
      const double want = truth[static_cast<std::size_t>(t)];
      const double got = city.labels.Distance(s, t);
      ++pairs;
      if (want == kInfDistance) {
        ASSERT_EQ(got, kInfDistance) << "s=" << s << " t=" << t;
      } else {
        ASSERT_LE(std::abs(got - want), 1e-12 * want)
            << "s=" << s << " t=" << t << " got=" << got << " want=" << want;
      }
    }
  }
  EXPECT_GE(pairs, 100'000);
}

TEST(HubLabelOrderTest, DefaultOptionsReproduceLegacyBuild) {
  // Every entry point builds the same exact CH-order labels: the
  // one-argument build, the default options, and the (graph, nullptr,
  // options) call shape.
  Rng grng(5);
  const RoadNetwork g = MakeRandomGeometricGraph(180, 12.0, 4, &grng);
  const HubLabelOracle legacy = HubLabelOracle::Build(g);
  EXPECT_TRUE(legacy.SameLabels(HubLabelOracle::Build(g, OracleOptions{})));
  EXPECT_TRUE(
      legacy.SameLabels(HubLabelOracle::Build(g, nullptr, OracleOptions{})));
  EXPECT_FALSE(legacy.quantized());
  EXPECT_EQ(legacy.QuantizationErrorBound(), 0.0);
  EXPECT_EQ(legacy.quant_resolution(), 0.0);
}

// ------------------------------------------------------------ quantization

TEST(HubLabelQuantTest, HelpersSaturateAndRoundTripInfinity) {
  const double scale = 1000.0;  // quanta per minute
  // Exact infinity survives via the sentinel (and NaN maps to it too —
  // "unknown" must never decode as a finite distance).
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(kInfDistance, scale),
            HubLabelOracle::kQuantInf);
  EXPECT_EQ(HubLabelOracle::DequantizeDistance(HubLabelOracle::kQuantInf,
                                               1.0 / scale),
            kInfDistance);
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(std::nan(""), scale),
            HubLabelOracle::kQuantInf);
  // Near-overflow saturates at the cap instead of wrapping.
  const double huge =
      static_cast<double>(HubLabelOracle::kQuantMax) / scale * 4.0;
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(huge, scale),
            HubLabelOracle::kQuantMax);
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(
                static_cast<double>(HubLabelOracle::kQuantMax) / scale, scale),
            HubLabelOracle::kQuantMax);
  // Zero and sub-quantum values round to the floor of the representation.
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(0.0, scale), 0u);
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(1e-9, scale), 0u);
  EXPECT_EQ(HubLabelOracle::DequantizeDistance(0u, 1.0 / scale), 0.0);
  // Round-trip of a representable value survives within rounding.
  EXPECT_EQ(HubLabelOracle::QuantizeDistance(2.0, scale), 2000u);
  EXPECT_DOUBLE_EQ(HubLabelOracle::DequantizeDistance(2000u, 1.0 / scale),
                   2.0);
}

TEST(HubLabelQuantTest, DisconnectedPairsStayInfinite) {
  const RoadNetwork g = MakeTwoComponentGraph();
  HubLabelOracle labels = HubLabelOracle::Build(g, Quantized());
  EXPECT_TRUE(labels.quantized());
  const VertexId a = 0;               // first grid
  const VertexId b = 12;              // second grid
  EXPECT_EQ(labels.Distance(a, b), kInfDistance);
  EXPECT_EQ(labels.Distance(b, a), kInfDistance);
  EXPECT_LT(labels.Distance(0, 1), kInfDistance);
  // The batched sweep agrees.
  std::vector<double> out;
  labels.BatchQuery({a, b}, {b, a}, &out);
  EXPECT_EQ(out[0], kInfDistance);  // a -> b
  EXPECT_EQ(out[1], 0.0);           // a -> a
  EXPECT_EQ(out[2], 0.0);           // b -> b
  EXPECT_EQ(out[3], kInfDistance);  // b -> a
}

TEST(HubLabelQuantTest, ZeroLengthEdgesQuantizeExactly) {
  // All-zero edge costs make every finite distance 0; the degenerate scale
  // must not divide by zero, and results stay exact.
  const RoadNetwork g = MakePathGraph(12, 0.0);
  HubLabelOracle labels = HubLabelOracle::Build(g, Quantized());
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
    const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
    EXPECT_EQ(labels.Distance(s, t), 0.0);
  }
}

TEST(HubLabelQuantTest, ErrorBoundHoldsAcrossRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng grng(60 + seed);
    const RoadNetwork g = MakeRandomGeometricGraph(170, 13.0, 4, &grng);
    HubLabelOracle exact = HubLabelOracle::Build(g);
    HubLabelOracle quant = HubLabelOracle::Build(g, Quantized());
    const double bound = quant.QuantizationErrorBound();
    ASSERT_GT(bound, 0.0);
    EXPECT_GT(quant.quant_resolution(), 0.0);
    // Quantized labels store half the bytes of the exact ones.
    EXPECT_LT(quant.MemoryBytes(), exact.MemoryBytes());
    Rng rng(9 * seed);
    for (int trial = 0; trial < 200; ++trial) {
      const VertexId s = rng.UniformInt(0, g.num_vertices() - 1);
      const VertexId t = rng.UniformInt(0, g.num_vertices() - 1);
      const double de = exact.Distance(s, t);
      const double dq = quant.Distance(s, t);
      if (de == kInfDistance) {
        EXPECT_EQ(dq, kInfDistance);
      } else {
        EXPECT_LE(std::abs(dq - de), bound)
            << "seed=" << seed << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(HubLabelQuantTest, SimReportSurfacesErrorBound) {
  const RoadNetwork graph = MakeChengduLike(0.04, 2);
  Rng rng(17);
  HubLabelOracle exact = HubLabelOracle::Build(graph);
  RequestParams rp;
  rp.count = 60;
  rp.duration_min = 120.0;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &exact, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 6, 4.0, &rng);

  HubLabelOracle quant = HubLabelOracle::Build(graph, Quantized());
  SimOptions options;
  {
    Simulation sim(&graph, &quant, workers, &requests, options);
    const SimReport report = sim.Run(MakePruneGreedyDpFactory({}));
    EXPECT_EQ(report.oracle_quant_error_bound,
              quant.QuantizationErrorBound());
    EXPECT_GT(report.oracle_quant_error_bound, 0.0);
  }
  {
    Simulation sim(&graph, &exact, workers, &requests, options);
    const SimReport report = sim.Run(MakePruneGreedyDpFactory({}));
    EXPECT_EQ(report.oracle_quant_error_bound, 0.0);
  }
}

// -------------------------------------------------------------- BatchQuery

TEST(OracleBatchQueryTest, MatchesPointQueriesExactly) {
  Rng grng(31);
  const RoadNetwork g = MakeRandomGeometricGraph(200, 13.0, 4, &grng);
  for (const bool quantize : {false, true}) {
    HubLabelOracle labels =
        HubLabelOracle::Build(g, quantize ? Quantized() : OracleOptions{});
    Rng rng(13);
    for (int trial = 0; trial < 30; ++trial) {
      const int ns = rng.UniformInt(1, 9);
      const int nt = rng.UniformInt(1, 4);
      std::vector<VertexId> sources, targets;
      for (int i = 0; i < ns; ++i) {
        sources.push_back(rng.UniformInt(0, g.num_vertices() - 1));
      }
      for (int j = 0; j < nt; ++j) {
        targets.push_back(rng.UniformInt(0, g.num_vertices() - 1));
      }
      if (trial % 3 == 0 && ns > 1) sources[1] = sources[0];  // duplicate
      if (trial % 4 == 0) targets[0] = sources[0];            // s == t cell
      const std::int64_t before = labels.query_count();
      std::vector<double> out;
      labels.BatchQuery(sources, targets, &out);
      EXPECT_EQ(labels.query_count() - before,
                static_cast<std::int64_t>(ns) * nt);
      ASSERT_EQ(out.size(), static_cast<std::size_t>(ns) *
                                static_cast<std::size_t>(nt));
      for (int i = 0; i < ns; ++i) {
        for (int j = 0; j < nt; ++j) {
          // Bit-identical, not just close: the sweep forms the same
          // candidate sums and min over doubles is order-independent.
          EXPECT_EQ(out[static_cast<std::size_t>(i * nt + j)],
                    labels.Distance(sources[static_cast<std::size_t>(i)],
                                    targets[static_cast<std::size_t>(j)]))
              << "quantize=" << quantize << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(OracleBatchQueryTest, EmptySetsAreSafe) {
  Rng grng(8);
  const RoadNetwork g = MakeRandomGeometricGraph(60, 8.0, 4, &grng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  std::vector<double> out{1.0, 2.0};
  labels.BatchQuery({}, {0, 1}, &out);
  EXPECT_TRUE(out.empty());
  labels.BatchQuery({0, 1}, {}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(OracleBatchQueryTest, BilledOracleBatchMatchesAndBills) {
  Rng grng(44);
  const RoadNetwork g = MakeRandomGeometricGraph(150, 11.0, 4, &grng);
  HubLabelOracle labels = HubLabelOracle::Build(g);
  BilledOracle billed(&labels);
  BilledOracle reference(&labels);
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const int ns = rng.UniformInt(1, 8);
    const int nt = rng.UniformInt(1, 3);
    std::vector<VertexId> sources, targets;
    for (int i = 0; i < ns; ++i) {
      sources.push_back(rng.UniformInt(0, g.num_vertices() - 1));
    }
    for (int j = 0; j < nt; ++j) {
      targets.push_back(rng.UniformInt(0, g.num_vertices() - 1));
    }
    if (trial % 2 == 0 && ns > 2) sources[2] = sources[0];  // duplicate
    if (trial % 3 == 0) targets[0] = sources[0];            // s == t cell
    std::vector<double> out;
    billed.BatchQuery(sources, targets, &out);
    for (int i = 0; i < ns; ++i) {
      for (int j = 0; j < nt; ++j) {
        EXPECT_EQ(out[static_cast<std::size_t>(i * nt + j)],
                  reference.Distance(sources[static_cast<std::size_t>(i)],
                                     targets[static_cast<std::size_t>(j)]));
      }
    }
    // Billing parity: the batch bills every cell, like per-pair calls.
    EXPECT_EQ(billed.query_count(), reference.query_count());
  }
}

/// Inner oracle that counts BatchQuery calls and answers with a value
/// that is nonzero even for u == v, so the decorator's self-distance
/// short-circuit is observable.
class CountingOracle : public DistanceOracle {
 public:
  double Distance(VertexId u, VertexId v) override {
    ++query_count_;
    return 1.0 + 0.25 * u + 1e-3 * v;
  }
  std::vector<VertexId> Path(VertexId, VertexId) override { return {}; }
  void BatchQuery(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>& targets,
                  std::vector<double>* out) override {
    ++batch_calls;
    DistanceOracle::BatchQuery(sources, targets, out);
  }
  int batch_calls = 0;
};

TEST(OracleBatchQueryTest, BilledOracleForwardsOneInnerBatch) {
  CountingOracle inner;
  BilledOracle billed(&inner);
  const std::vector<VertexId> sources = {3, 7, 3, 9};
  const std::vector<VertexId> targets = {7, 2, 3};
  std::vector<double> out;
  billed.BatchQuery(sources, targets, &out);
  EXPECT_EQ(inner.batch_calls, 1);
  EXPECT_EQ(billed.query_count(), 12);
  billed.BatchQuery(targets, sources, &out);
  EXPECT_EQ(inner.batch_calls, 2);
  EXPECT_EQ(billed.query_count(), 24);

  billed.BatchQuery(sources, targets, &out);
  ASSERT_EQ(out.size(), 12u);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (std::size_t j = 0; j < targets.size(); ++j) {
      const double cell = out[i * targets.size() + j];
      EXPECT_EQ(cell, billed.Distance(sources[i], targets[j]));
      if (sources[i] == targets[j]) {
        EXPECT_EQ(cell, 0.0);
      }
    }
  }
}

TEST(OracleBatchQueryTest, GatherColumnsMatchReferenceFuzz) {
  // Fuzz-pin GatherDistanceColumns (batched sweep) against the original
  // per-pair loop, over random routes and requests, through a BilledOracle
  // on hub labels — values bit-identical AND the same billed query count.
  Rng grng(52);
  TestEnv env(MakeRandomGeometricGraph(120, 10.0, 4, &grng));
  HubLabelOracle labels = HubLabelOracle::Build(env.graph());
  BilledOracle billed(&labels);
  PlanningContext ctx(&env.graph(), &billed, &env.requests());

  Rng rng(67);
  Worker w;
  w.id = 0;
  w.capacity = 4;
  w.initial_location = 0;
  for (int round = 0; round < 12; ++round) {
    Route route(w.initial_location, 0.0);
    BuildRandomRoute(&env, w, &route, 6, 0.0, 90.0, &rng);
    const VertexId o = rng.UniformInt(0, env.graph().num_vertices() - 1);
    const VertexId d = rng.UniformInt(0, env.graph().num_vertices() - 1);
    const Request r = env.AddRequest(o, d, 0.0, 120.0);
    for (int max_pos = 0; max_pos <= route.size(); ++max_pos) {
      DistanceColumns got, want;
      const std::int64_t before_got = billed.query_count();
      GatherDistanceColumns(route, r, &ctx, &got, max_pos);
      const std::int64_t got_queries = billed.query_count() - before_got;
      GatherDistanceColumnsReference(route, r, &ctx, &want, max_pos);
      const std::int64_t want_queries =
          billed.query_count() - before_got - got_queries;
      EXPECT_EQ(got_queries, want_queries);
      ASSERT_EQ(got.to_origin.size(), want.to_origin.size());
      for (std::size_t k = 0; k < want.to_origin.size(); ++k) {
        EXPECT_EQ(got.to_origin[k], want.to_origin[k]);
        EXPECT_EQ(got.to_destination[k], want.to_destination[k]);
      }
    }
  }
}

TEST(OracleBatchQueryTest, MultiRouteGatherMatchesPerRoute) {
  Rng grng(58);
  TestEnv env(MakeRandomGeometricGraph(120, 10.0, 4, &grng));
  HubLabelOracle labels = HubLabelOracle::Build(env.graph());
  BilledOracle billed(&labels);
  PlanningContext ctx(&env.graph(), &billed, &env.requests());

  Rng rng(71);
  std::vector<Route> routes;
  for (int c = 0; c < 5; ++c) {
    Worker w;
    w.id = static_cast<WorkerId>(c);
    w.capacity = 4;
    w.initial_location = rng.UniformInt(0, env.graph().num_vertices() - 1);
    Route route(w.initial_location, 0.0);
    BuildRandomRoute(&env, w, &route, 5, 0.0, 90.0, &rng);
    routes.push_back(route);
  }
  const VertexId o = rng.UniformInt(0, env.graph().num_vertices() - 1);
  const VertexId d = rng.UniformInt(0, env.graph().num_vertices() - 1);
  const Request r = env.AddRequest(o, d, 0.0, 120.0);

  std::vector<const Route*> route_ptrs;
  std::vector<int> max_pos;
  for (const Route& route : routes) {
    route_ptrs.push_back(&route);
    max_pos.push_back(route.size());
  }
  std::vector<DistanceColumns> multi;
  const std::int64_t before = billed.query_count();
  GatherDistanceColumnsMulti(route_ptrs, max_pos, r, &ctx, &multi);
  const std::int64_t multi_queries = billed.query_count() - before;

  std::int64_t per_route_queries = 0;
  for (std::size_t c = 0; c < routes.size(); ++c) {
    DistanceColumns want;
    const std::int64_t b = billed.query_count();
    GatherDistanceColumns(routes[c], r, &ctx, &want, max_pos[c]);
    per_route_queries += billed.query_count() - b;
    ASSERT_EQ(multi[c].to_origin.size(), want.to_origin.size());
    for (std::size_t k = 0; k < want.to_origin.size(); ++k) {
      EXPECT_EQ(multi[c].to_origin[k], want.to_origin[k]);
      EXPECT_EQ(multi[c].to_destination[k], want.to_destination[k]);
    }
  }
  EXPECT_EQ(multi_queries, per_route_queries);
}

// ------------------------------------------------- thread-count identity

struct IdentityRun {
  SimReport report;
  std::vector<bool> served;
};

IdentityRun RunWorkload(const RoadNetwork& graph, DistanceOracle* oracle,
                        const std::vector<Worker>& workers,
                        const std::vector<Request>& requests,
                        const PlannerFactory& factory, int num_threads) {
  SimOptions options;
  options.num_threads = num_threads;
  Simulation sim(&graph, oracle, workers, &requests, options);
  IdentityRun run;
  run.report = sim.Run(factory);
  run.served = sim.served();
  return run;
}

void ExpectIdenticalRuns(const IdentityRun& a, const IdentityRun& b,
                         const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.report.served_requests, b.report.served_requests);
  EXPECT_EQ(a.report.unified_cost, b.report.unified_cost);
  EXPECT_EQ(a.report.total_distance, b.report.total_distance);
  EXPECT_EQ(a.report.penalty_sum, b.report.penalty_sum);
  EXPECT_EQ(a.report.mean_pickup_wait_min, b.report.mean_pickup_wait_min);
  EXPECT_EQ(a.report.mean_detour_ratio, b.report.mean_detour_ratio);
  EXPECT_EQ(a.report.makespan_min, b.report.makespan_min);
  EXPECT_EQ(a.report.distance_queries, b.report.distance_queries);
  EXPECT_EQ(a.served, b.served);
}

TEST(OrderingIdentityTest, QuantizedRunIsThreadCountIdentical) {
  // Quantization changes reported values within the error bound, but the
  // run must stay a pure function of the (quantized) oracle — identical
  // across thread counts.
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle exact = HubLabelOracle::Build(graph);
  HubLabelOracle quant = HubLabelOracle::Build(graph, Quantized());

  Rng rng(17);
  RequestParams rp;
  rp.count = 200;
  rp.duration_min = 200.0;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &exact, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 12, 4.0, &rng);

  const IdentityRun t1 = RunWorkload(graph, &quant, workers, requests,
                                     MakeParallelGreedyDpFactory({}), 1);
  ASSERT_GT(t1.report.served_requests, 0);
  EXPECT_GT(t1.report.oracle_quant_error_bound, 0.0);
  for (const int threads : {2, 4, 8}) {
    const IdentityRun tn = RunWorkload(graph, &quant, workers, requests,
                                       MakeParallelGreedyDpFactory({}),
                                       threads);
    ExpectIdenticalRuns(t1, tn,
                        "quantized threads=" + std::to_string(threads));
    EXPECT_EQ(tn.report.oracle_quant_error_bound,
              t1.report.oracle_quant_error_bound);
  }
}

// ----------------------------------------------------- memory bookkeeping

TEST(HubLabelOrderTest, MemoryBytesReportsExactCsrSize) {
  Rng grng(12);
  const RoadNetwork g = MakeRandomGeometricGraph(140, 11.0, 4, &grng);
  const auto n = static_cast<std::size_t>(g.num_vertices());

  HubLabelOracle exact = HubLabelOracle::Build(g);
  const auto total = static_cast<std::size_t>(
      std::llround(exact.average_label_size() * static_cast<double>(n)));
  // Exact formula: offsets (n+1 x int64) + ranks (total x int32) +
  // distances (total x double). Capacity slack must not inflate it.
  EXPECT_EQ(exact.MemoryBytes(),
            static_cast<std::int64_t>((n + 1) * sizeof(std::int64_t) +
                                      total * sizeof(VertexId) +
                                      total * sizeof(double)));

  HubLabelOracle quant = HubLabelOracle::Build(g, Quantized());
  EXPECT_EQ(quant.MemoryBytes(),
            static_cast<std::int64_t>((n + 1) * sizeof(std::int64_t) +
                                      total * sizeof(VertexId) +
                                      total * sizeof(std::uint32_t)));
}

}  // namespace
}  // namespace urpsm
