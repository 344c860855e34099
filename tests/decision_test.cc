#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/core/decision.h"
#include "src/insertion/insertion.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

class DecisionTest : public ::testing::Test {
 protected:
  DecisionTest() : env_(MakeGridGraph(8, 8, 1.0)) {}
  TestEnv env_;
  Worker worker_{0, 0, 4};
};

TEST_F(DecisionTest, EmptyRouteBoundIsEuclideanPlusL) {
  const Request r = env_.AddRequest(18, 45, 0.0, 1e9);  // (2,2) -> (5,5)
  Route rt(0, 0.0);
  const RouteState st = BuildRouteState(rt, env_.ctx());
  const double L = env_.ctx()->DirectDist(r.id);
  const double lb =
      DecisionLowerBound(worker_, rt, st, r, L, env_.graph());
  // Only the i=j=n=0 case exists: euc(anchor, o)/v_max + L.
  EXPECT_NEAR(lb, env_.graph().EuclideanLowerBoundMin(0, 18) + L, 1e-12);
}

TEST_F(DecisionTest, BoundRequiresZeroExtraQueries) {
  const Request r1 = env_.AddRequest(9, 54, 0.0, 1e9);
  Route rt(0, 0.0);
  rt.Insert(r1, 0, 0, env_.oracle());
  const Request r2 = env_.AddRequest(18, 45, 0.0, 1e9);
  const double L = env_.ctx()->DirectDist(r2.id);
  const RouteState st = BuildRouteState(rt, env_.ctx());
  const std::int64_t before = env_.oracle()->query_count();
  DecisionLowerBound(worker_, rt, st, r2, L, env_.graph());
  EXPECT_EQ(env_.oracle()->query_count(), before);  // Lemma 7: 1 query total
}

TEST_F(DecisionTest, CapacityInfeasibleGivesInfiniteBound) {
  const Request r = env_.AddRequest(18, 45, 0.0, 1e9, 10.0, 9);  // K_r > K_w
  Route rt(0, 0.0);
  const RouteState st = BuildRouteState(rt, env_.ctx());
  EXPECT_EQ(DecisionLowerBound(worker_, rt, st, r,
                               env_.ctx()->DirectDist(r.id), env_.graph()),
            kInf);
}

TEST_F(DecisionTest, HopelessDeadlineGivesInfiniteBound) {
  // Worker at corner (0,0); request at far corner with a deadline shorter
  // than even the straight-line travel time.
  const Request r = env_.AddRequest(63, 62, 0.0, 0.5);  // (7,7)
  Route rt(0, 0.0);
  const RouteState st = BuildRouteState(rt, env_.ctx());
  EXPECT_EQ(DecisionLowerBound(worker_, rt, st, r,
                               env_.ctx()->DirectDist(r.id), env_.graph()),
            kInf);
}

TEST_F(DecisionTest, BoundIsNonNegative) {
  Rng rng(3);
  Route rt(0, 0.0);
  BuildRandomRoute(&env_, worker_, &rt, 6, 0.0, 60.0, &rng);
  for (int probe = 0; probe < 50; ++probe) {
    const VertexId o = rng.UniformInt(0, 63);
    VertexId d = rng.UniformInt(0, 63);
    if (d == o) d = (d + 1) % 64;
    const Request r = env_.AddRequest(o, d, 0.0, rng.Uniform(5.0, 80.0));
    const RouteState st = BuildRouteState(rt, env_.ctx());
    const double lb = DecisionLowerBound(worker_, rt, st, r,
                                         env_.ctx()->DirectDist(r.id),
                                         env_.graph());
    if (lb < kInf) {
      EXPECT_GE(lb, 0.0);
    }
  }
}

TEST_F(DecisionTest, TighterForCloserWorkers) {
  // The bound should order an adjacent worker ahead of a distant one for
  // an empty-route pickup (this ordering drives Lemma 8 pruning).
  const Request r = env_.AddRequest(9, 18, 0.0, 1e9);  // (1,1) -> (2,2)
  Route near_rt(1, 0.0);   // vertex (1,0)
  Route far_rt(63, 0.0);   // vertex (7,7)
  const RouteState near_st = BuildRouteState(near_rt, env_.ctx());
  const RouteState far_st = BuildRouteState(far_rt, env_.ctx());
  const double L = env_.ctx()->DirectDist(r.id);
  EXPECT_LT(DecisionLowerBound(worker_, near_rt, near_st, r, L, env_.graph()),
            DecisionLowerBound(worker_, far_rt, far_st, r, L, env_.graph()));
}

TEST(DecisionColumnTest, ColumnPathBitIdenticalToReferenceFuzz) {
  // The column-gathered DecisionLowerBound vs the on-demand reference on
  // random routes/requests, including tight deadlines (exercising the
  // gather cutoff) and capacity pressure: results must be EXACTLY equal —
  // this bound feeds the engine determinism contract, so even an ulp of
  // drift between the paths would be a bug.
  TestEnv env(MakeGridGraph(12, 12, 0.7));
  Rng rng(97);
  Worker worker{0, 0, 3};
  Route route(0, 0.0);
  int compared = 0, finite = 0, cutoff_hit = 0;
  for (int iter = 0; iter < 400; ++iter) {
    if (iter % 5 == 0 && route.size() < 24) {
      // Grow the route through a real insertion so schedules stay valid.
      const VertexId o = rng.UniformInt(0, 143);
      VertexId d = rng.UniformInt(0, 143);
      if (d == o) d = (d + 1) % 144;
      const Request grow = env.AddRequest(o, d, 0.0, 1e9, 10.0, 1);
      const InsertionCandidate c = LinearDpInsertion(
          worker, route, BuildRouteState(route, env.ctx()), grow, env.ctx());
      if (c.feasible()) route.Insert(grow, c.i, c.j, env.oracle());
    }
    const VertexId o = rng.UniformInt(0, 143);
    VertexId d = rng.UniformInt(0, 143);
    if (d == o) d = (d + 1) % 144;
    // Mix loose, tight and hopeless deadlines.
    const double deadline =
        iter % 3 == 0 ? rng.Uniform(0.5, 20.0) : rng.Uniform(20.0, 1e4);
    const Request probe =
        env.AddRequest(o, d, 0.0, deadline, 10.0, rng.UniformInt(1, 3));
    const RouteState st = BuildRouteState(route, env.ctx());
    const double L = env.ctx()->DirectDist(probe.id);
    const double fast =
        DecisionLowerBound(worker, route, st, probe, L, env.graph());
    const double ref =
        DecisionLowerBoundReference(worker, route, st, probe, L, env.graph());
    EXPECT_EQ(fast, ref) << "iter " << iter << " n=" << st.n;
    ++compared;
    if (fast < kInf) ++finite;
    if (!st.arr.empty() && st.arr[static_cast<std::size_t>(st.n)] > deadline) {
      ++cutoff_hit;  // gather stopped before the end of the route
    }
  }
  EXPECT_EQ(compared, 400);
  EXPECT_GT(finite, 50);     // the fuzz really exercised feasible bounds
  EXPECT_GT(cutoff_hit, 20);  // ...and the deadline-cutoff gather
}

TEST(DecisionIdleTest, ClosedFormBitIdenticalToDpFuzz) {
  // IdleDecisionLowerBound against both DP paths on fresh idle route
  // states. The planner's scan uses the closed form for every idle
  // candidate, so any difference — an ulp, or a finite value where the DP
  // says kInf — would change which workers it scans and in what order.
  // Covers anchors after the deadline, deadlines on either side of the
  // t0 + eo + L boundary, K_r above the worker's capacity, L = 0, and
  // anchors tens of kilometres from the origin.
  TestEnv env(MakeGridGraph(30, 30, 1.0));
  const int nv = env.graph().num_vertices();
  Rng rng(131);
  int finite = 0, anchor_late = 0, over_capacity = 0, zero_l = 0,
      far = 0, boundary_inf = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const Worker worker{0, 0, rng.UniformInt(1, 4)};
    const VertexId anchor = rng.UniformInt(0, nv - 1);
    const double t0 = rng.Uniform(0.0, 100.0);
    Route route(anchor, t0);
    // Some requests start at the anchor, some have d == o (L = 0).
    const VertexId o = iter % 11 == 0 ? anchor : rng.UniformInt(0, nv - 1);
    const VertexId d = iter % 7 == 0 ? o : rng.UniformInt(0, nv - 1);
    const double eo =
        EuclideanDistance(env.graph().coord(anchor), env.graph().coord(o)) /
        MaxSpeedKmPerMin();
    const double l_est = env.graph().EuclideanLowerBoundMin(o, d);
    double deadline = 0.0;
    switch (iter % 5) {
      case 0:  // the anchor is already past the deadline
        deadline = t0 - rng.Uniform(0.0, 10.0);
        break;
      case 1:  // exactly the anchor time
        deadline = t0;
        break;
      case 2:  // around the pickup-then-direct-ride boundary
        deadline = t0 + eo + l_est * rng.Uniform(0.8, 3.0) +
                   rng.Uniform(-1.0, 1.0);
        break;
      case 3:
        deadline = t0 + rng.Uniform(0.0, 1e4);
        break;
      default:
        deadline = kInf;
        break;
    }
    const Request r = env.AddRequest(o, d, 0.0, deadline, 10.0,
                                     rng.UniformInt(1, 5));
    const double L = env.ctx()->DirectDist(r.id);
    const RouteState st = BuildRouteState(route, env.ctx());
    const double idle =
        IdleDecisionLowerBound(worker, route, r, L, env.graph());
    const double dp = DecisionLowerBound(worker, route, st, r, L, env.graph());
    const double ref =
        DecisionLowerBoundReference(worker, route, st, r, L, env.graph());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(idle),
              std::bit_cast<std::uint64_t>(dp))
        << "iter " << iter << ": " << idle << " vs " << dp;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(idle),
              std::bit_cast<std::uint64_t>(ref))
        << "iter " << iter << ": " << idle << " vs " << ref;
    if (idle < kInf) ++finite;
    if (t0 > deadline) ++anchor_late;
    if (r.capacity > worker.capacity) ++over_capacity;
    if (L == 0.0) ++zero_l;
    if (eo * MaxSpeedKmPerMin() > 25.0) ++far;
    if (idle == kInf && t0 <= deadline && r.capacity <= worker.capacity) {
      ++boundary_inf;  // rejected by the t0 + eo + L deadline test
    }
  }
  // The fuzz really reached every branch.
  EXPECT_GT(finite, 500);
  EXPECT_GT(anchor_late, 300);
  EXPECT_GT(over_capacity, 300);
  EXPECT_GT(zero_l, 200);
  EXPECT_GT(far, 100);
  EXPECT_GT(boundary_inf, 100);
}

}  // namespace
}  // namespace urpsm
