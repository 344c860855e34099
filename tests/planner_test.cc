#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/core/planner.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : env_(MakeGridGraph(10, 10, 0.8)) {}
  TestEnv env_;
};

TEST_F(PlannerTest, ServesTrivialRequest) {
  std::vector<Worker> workers = {{0, 0, 4}};
  Fleet fleet(workers, &env_.graph());
  PlannerConfig cfg;
  GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
  const Request r = env_.AddRequest(11, 22, 0.0, 1e9);
  EXPECT_EQ(planner.OnRequest(r), 0);
  EXPECT_EQ(fleet.AssignedWorker(r.id), 0);
  EXPECT_EQ(fleet.route(0).size(), 2);
}

TEST_F(PlannerTest, RejectsWhenPenaltyBelowLowerBound) {
  // alpha = 1 and a tiny penalty: serving costs more than rejecting.
  std::vector<Worker> workers = {{0, 99, 4}};  // far corner
  Fleet fleet(workers, &env_.graph());
  PlannerConfig cfg;
  cfg.alpha = 1.0;
  GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
  const Request r = env_.AddRequest(0, 1, 0.0, 1e9, /*penalty=*/1e-6);
  EXPECT_EQ(planner.OnRequest(r), kInvalidWorker);
}

TEST_F(PlannerTest, AlphaZeroNeverRejectsByPenalty) {
  // Maximize served count: alpha = 0 disables the penalty rejection.
  std::vector<Worker> workers = {{0, 99, 4}};
  Fleet fleet(workers, &env_.graph());
  PlannerConfig cfg;
  cfg.alpha = 0.0;
  GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
  const Request r = env_.AddRequest(0, 1, 0.0, 1e9, /*penalty=*/1e-6);
  EXPECT_EQ(planner.OnRequest(r), 0);
}

TEST_F(PlannerTest, RejectsUnservableDeadline) {
  std::vector<Worker> workers = {{0, 0, 4}};
  Fleet fleet(workers, &env_.graph());
  GreedyDpPlanner planner(env_.ctx(), &fleet, PlannerConfig{});
  const Request r = env_.AddRequest(98, 99, 0.0, 0.001);  // hopeless
  EXPECT_EQ(planner.OnRequest(r), kInvalidWorker);
}

TEST_F(PlannerTest, PicksTheCheaperWorker) {
  std::vector<Worker> workers = {{0, 0, 4}, {1, 23, 4}};
  Fleet fleet(workers, &env_.graph());
  GreedyDpPlanner planner(env_.ctx(), &fleet, PlannerConfig{});
  // Request right next to worker 1's anchor (vertex 23 = (3,2)).
  const Request r = env_.AddRequest(24, 27, 0.0, 1e9);
  EXPECT_EQ(planner.OnRequest(r), 1);
}

TEST_F(PlannerTest, ExactRejectCheckAblation) {
  // With the ablation on, a penalty between LB and Delta* flips to reject.
  std::vector<Worker> workers = {{0, 90, 4}};  // (0,9): euclid 7.2km but
                                               // road distance longer
  const Request probe = env_.AddRequest(9, 8, 0.0, 1e9);  // (9,0)->(8,0)
  {
    Fleet fleet(workers, &env_.graph());
    PlannerConfig cfg;
    cfg.exact_reject_check = false;
    GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
    Request r = probe;
    // Penalty below the exact cost but above the Euclidean lower bound:
    // straight-line (9,9 apart... vertices (0,9) to (9,0)) at motorway
    // speed is far less than grid travel at residential speed.
    r.penalty = env_.graph().EuclideanLowerBoundMin(90, 9) * 1.5;
    EXPECT_EQ(planner.OnRequest(r), 0);  // paper-faithful: serves
  }
  {
    Fleet fleet(workers, &env_.graph());
    PlannerConfig cfg;
    cfg.exact_reject_check = true;
    GreedyDpPlanner planner(env_.ctx(), &fleet, cfg);
    Request r = probe;
    r.penalty = env_.graph().EuclideanLowerBoundMin(90, 9) * 1.5;
    EXPECT_EQ(planner.OnRequest(r), kInvalidWorker);  // ablation: rejects
  }
}

TEST_F(PlannerTest, CandidateRadiusNegativeWhenHopeless) {
  Request r;
  r.release_time = 10.0;
  r.deadline = 12.0;
  EXPECT_LT(CandidateRadiusKm(r, /*L=*/5.0, /*now=*/10.0), 0.0);
  EXPECT_GT(CandidateRadiusKm(r, /*L=*/1.0, /*now=*/10.0), 0.0);
}

// ---------------------------------------------------------- scan order

/// Two idle workers on one vertex tie on both the lower bound and the
/// exact cost. The scan order is (lower bound, worker id), so the lower id
/// wins whatever order the candidate list holds them in — in the pruned
/// scan's lazy heap and in the unpruned scan's full sort alike.
TEST_F(PlannerTest, EqualCostTieGoesToLowerWorkerIdInAnyCandidateOrder) {
  const std::vector<Worker> workers = {{0, 44, 4}, {1, 44, 4}, {2, 99, 4}};
  const Request r = env_.AddRequest(45, 48, 0.0, 1e9);
  const double L = env_.ctx()->DirectDist(r.id);
  for (const bool pruning : {true, false}) {
    for (const std::vector<WorkerId>& candidates :
         {std::vector<WorkerId>{0, 1, 2}, std::vector<WorkerId>{1, 0, 2},
          std::vector<WorkerId>{2, 1, 0}}) {
      Fleet fleet(workers, &env_.graph());
      for (const WorkerId w : candidates) fleet.Touch(w, 0.0);
      PlannerConfig cfg;
      cfg.use_pruning = pruning;
      InsertionCandidate best;
      EXPECT_EQ(PlanRequestSequential(env_.ctx(), &fleet, cfg, r, L,
                                      candidates, &best, nullptr),
                0)
          << "pruning " << pruning << ", first candidate "
          << candidates.front();
    }
  }
}

/// The same tie reached through each planner's own grid filter. Worker 0
/// serves r0 and ends idle on worker 1's vertex; moving into that grid
/// cell appends it behind worker 1, so the filter lists worker 1 first.
/// Every path that promises pruneGreedyDP's answer must still give r1 to
/// worker 0.
TEST(ScanOrderTest, TiedIdleWorkersGoToLowerIdOnEveryPlanningPath) {
  const RoadNetwork graph = MakeGridGraph(10, 10, 0.8);
  DijkstraOracle oracle(&graph);
  // Vertex 0 is (0, 0) and vertex 44 is (3.2, 3.2): different 2 km cells.
  const std::vector<Worker> workers = {{0, 0, 4}, {1, 44, 4}};
  std::vector<Request> requests(2);
  requests[0] = {0, /*origin=*/0, /*destination=*/44, 0.0, 1e3, 1e6, 1};
  requests[1] = {1, /*origin=*/45, /*destination=*/48, 500.0, 2e3, 1e6, 1};
  const auto winner_of_r1 = [&](const PlannerFactory& factory, int threads) {
    SimOptions options;
    options.num_threads = threads;
    Simulation sim(&graph, &oracle, workers, &requests, options);
    sim.Run(factory);
    EXPECT_EQ(sim.fleet().AssignedWorker(0), 0);
    return sim.fleet().AssignedWorker(1);
  };
  const PlannerConfig config;
  EXPECT_EQ(winner_of_r1(MakePruneGreedyDpFactory(config), 1), 0);
  EXPECT_EQ(winner_of_r1(MakeGreedyDpFactory(config), 1), 0);
  EXPECT_EQ(winner_of_r1(MakeParallelGreedyDpFactory(config), 1), 0);
  EXPECT_EQ(winner_of_r1(MakeParallelGreedyDpFactory(config), 4), 0);
  // batch_window_s = 0: the dispatch-window engine plans per request.
  EXPECT_EQ(winner_of_r1(MakeDispatchWindowFactory(config), 1), 0);
  EXPECT_EQ(winner_of_r1(MakeDispatchWindowFactory(config), 4), 0);
}

/// The pruned scan pops a heap lazily instead of sorting every bound.
/// Against a scan over the full AscendingLowerBoundOrder permutation,
/// written here from the public pieces, it must choose the same worker
/// and insertion after the same number of exact evaluations, which make
/// the same distance queries. Workers crowd onto a few vertices, so many
/// bounds are duplicates, and a mix of idle and busy routes exercises
/// both bound paths.
TEST(ScanOrderTest, LazyScanMatchesFullOrderScanWithDuplicateBounds) {
  TestEnv env(MakeGridGraph(10, 10, 0.8));
  Rng rng(2024);
  const PlannerConfig config;  // pruning on
  int with_ties = 0, cut_off = 0, multi_eval = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<VertexId> spots(5);
    for (VertexId& v : spots) v = rng.UniformInt(0, 99);
    std::vector<Worker> workers;
    for (WorkerId w = 0; w < 24; ++w) {
      workers.push_back({w, spots[static_cast<std::size_t>(
                                rng.UniformInt(0, 4))],
                         rng.UniformInt(2, 4)});
    }
    Fleet fleet(workers, &env.graph());
    for (WorkerId w = 0; w < 24; ++w) {
      if (!rng.Bernoulli(0.4)) continue;  // stays idle
      const Request job = env.AddRequest(rng.UniformInt(0, 99),
                                         rng.UniformInt(0, 99), 0.0,
                                         rng.Uniform(20.0, 80.0));
      const InsertionCandidate c = LinearDpInsertion(
          fleet.worker(w), fleet.route(w), job, env.ctx());
      if (c.feasible()) {
        fleet.ApplyInsertion(w, job, c.i, c.j, env.oracle());
      }
    }
    const double now = rng.Uniform(0.5, 5.0);
    std::vector<WorkerId> candidates;
    for (WorkerId w = 0; w < 24; ++w) candidates.push_back(w);
    for (std::size_t k = candidates.size(); k > 1; --k) {
      std::swap(candidates[k - 1],
                candidates[static_cast<std::size_t>(
                    rng.UniformInt(0, static_cast<int>(k) - 1))]);
    }
    for (const WorkerId w : candidates) fleet.Touch(w, now);
    const Request r = env.AddRequest(rng.UniformInt(0, 99),
                                     rng.UniformInt(0, 99), now,
                                     now + rng.Uniform(10.0, 60.0), 1e6);
    const double L = env.ctx()->DirectDist(r.id);

    // Reference: every bound from the per-candidate DecisionLowerBound on
    // a fresh state (which also caches every onboard L_r), the full
    // permutation, and the scan loop with the shared cutoff and clamp.
    std::vector<WorkerBound> bounds;
    for (const WorkerId w : candidates) {
      const double lb = DecisionLowerBound(
          fleet.worker(w), fleet.route(w),
          BuildRouteState(fleet.route(w), env.ctx()), r, L, env.graph());
      if (lb != kInf) bounds.push_back({w, lb});
    }
    if (bounds.empty()) continue;
    const std::vector<std::size_t> order = AscendingLowerBoundOrder(bounds);
    for (std::size_t k = 1; k < order.size(); ++k) {
      if (bounds[order[k]].lower_bound == bounds[order[k - 1]].lower_bound) {
        ++with_ties;
        break;
      }
    }
    const std::int64_t q0 = env.oracle()->query_count();
    WorkerId ref_worker = kInvalidWorker;
    InsertionCandidate ref_best;
    std::int64_t ref_evals = 0;
    for (const std::size_t k : order) {
      if (ref_best.feasible() &&
          LemmaEightCutoff(ref_best.delta, bounds[k].lower_bound)) {
        ++cut_off;
        break;
      }
      const WorkerId w = bounds[k].worker;
      ++ref_evals;
      InsertionCandidate c = LinearDpInsertion(
          fleet.worker(w), fleet.route(w),
          BuildRouteState(fleet.route(w), env.ctx()), r, env.ctx());
      if (!c.feasible()) continue;
      c.delta = ClampDetour(c.delta);
      if (c.delta < ref_best.delta) {
        ref_best = c;
        ref_worker = w;
      }
    }
    const std::int64_t ref_queries = env.oracle()->query_count() - q0;
    if (ref_evals > 1) ++multi_eval;

    InsertionCandidate best;
    std::int64_t evals = 0;
    const std::int64_t q1 = env.oracle()->query_count();
    const WorkerId got = PlanRequestSequential(env.ctx(), &fleet, config, r,
                                               L, candidates, &best, &evals);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(env.oracle()->query_count() - q1, ref_queries);
    EXPECT_EQ(evals, ref_evals);
    EXPECT_EQ(got, ref_worker);
    if (got != kInvalidWorker) {
      EXPECT_EQ(best.delta, ref_best.delta);
      EXPECT_EQ(best.i, ref_best.i);
      EXPECT_EQ(best.j, ref_best.j);
    }
  }
  // The trials really produced duplicate bounds, Lemma 8 cut-offs and
  // scans past the first candidate.
  EXPECT_GT(with_ties, 30);
  EXPECT_GT(cut_off, 20);
  EXPECT_GT(multi_eval, 10);
}

/// Lemma 8 is lossless: pruneGreedyDP and GreedyDP must produce identical
/// assignments and unified costs on a full simulated day, while the pruned
/// variant issues no more distance queries.
TEST(PlannerEquivalenceTest, PruningIsLossless) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const RoadNetwork g = MakeNycLike(0.02, seed);
    DijkstraOracle oracle(&g);
    Rng rng(seed);
    std::vector<Worker> workers = GenerateWorkers(g, 15, 3.0, &rng);
    RequestParams rp;
    rp.count = 120;
    rp.duration_min = 120.0;
    rp.seed = seed;
    std::vector<Request> requests = GenerateRequests(g, rp, &oracle, &rng);

    SimOptions options;
    Simulation sim_pruned(&g, &oracle, workers, &requests, options);
    const SimReport pruned = sim_pruned.Run(MakePruneGreedyDpFactory({}));
    std::vector<bool> served_pruned = sim_pruned.served();

    Simulation sim_plain(&g, &oracle, workers, &requests, options);
    const SimReport plain = sim_plain.Run(MakeGreedyDpFactory({}));

    EXPECT_EQ(pruned.served_requests, plain.served_requests) << seed;
    EXPECT_NEAR(pruned.unified_cost, plain.unified_cost,
                1e-6 * std::max(1.0, plain.unified_cost))
        << seed;
    EXPECT_EQ(served_pruned, sim_plain.served()) << seed;
    EXPECT_LE(pruned.distance_queries, plain.distance_queries) << seed;
  }
}

}  // namespace
}  // namespace urpsm
