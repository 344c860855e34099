// Tests for the incremental cross-window planning layer: EvalMemo
// (route-version keyed evaluation reuse) semantics, narrowed commit
// conflict replans, forced-speculation replan narrowing with
// query-billing identity, and a churn fuzz asserting memoized and fresh
// runs are bit-identical at every thread count and pipeline depth.
// Suites are named Pipeline* so the tsan preset picks them up.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/eval_memo.h"
#include "src/shortest/hub_labels.h"
#include "src/shortest/oracle.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

// ------------------------------------------------------------ EvalMemo

TEST(PipelineMemoUnitTest, FindMissesUntilUpsertAndValidityFlagsGate) {
  EvalMemo memo;
  EXPECT_EQ(memo.Find(3, 7), nullptr);  // empty memo

  // An Upsert creates the entry but neither validity flag is set yet:
  // Find returns the slot, but callers must check lb_valid / dp_valid.
  EvalMemo::Entry& e = memo.Upsert(3, 7);
  e.lb = 1.5;
  e.lb_valid = true;
  const EvalMemo::Entry* found = memo.Find(3, 7);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->lb_valid);
  EXPECT_FALSE(found->dp_valid);
  EXPECT_EQ(found->lb, 1.5);

  // A stale version is a miss even though the worker has an entry.
  EXPECT_EQ(memo.Find(3, 8), nullptr);
}

TEST(PipelineMemoUnitTest, VersionChangeDropsBothValidityFlags) {
  EvalMemo memo;
  EvalMemo::Entry& e = memo.Upsert(5, 10);
  e.lb = 2.0;
  e.lb_valid = true;
  e.delta = 3.0;
  e.i = 1;
  e.j = 2;
  e.queries = 4;
  e.dp_valid = true;
  ASSERT_NE(memo.Find(5, 10), nullptr);

  // Re-upserting at a newer version resets the entry: the old lb and DP
  // results describe a route that no longer exists.
  EvalMemo::Entry& fresh = memo.Upsert(5, 11);
  EXPECT_FALSE(fresh.lb_valid);
  EXPECT_FALSE(fresh.dp_valid);
  EXPECT_EQ(memo.Find(5, 10), nullptr);  // old version gone
  const EvalMemo::Entry* now = memo.Find(5, 11);
  ASSERT_NE(now, nullptr);
  EXPECT_FALSE(now->lb_valid);
}

TEST(PipelineMemoUnitTest, ResetClearsEntriesAndDrainMovesCounters) {
  EvalMemo memo;
  memo.Upsert(1, 1).lb_valid = true;
  memo.Upsert(2, 1).lb_valid = true;
  memo.hits = 3;
  memo.misses = 5;
  memo.saved_queries = 7;

  std::int64_t h = 0, m = 0, s = 0;
  memo.Drain(&h, &m, &s);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(m, 5);
  EXPECT_EQ(s, 7);
  EXPECT_EQ(memo.hits, 0);
  EXPECT_EQ(memo.misses, 0);
  // Drain adds (the harvest points accumulate several preps into one
  // tally); entries survive a drain.
  memo.hits = 2;
  memo.Drain(&h, &m, &s);
  EXPECT_EQ(h, 5);
  EXPECT_NE(memo.Find(1, 1), nullptr);

  memo.Reset();
  EXPECT_EQ(memo.Find(1, 1), nullptr);
  EXPECT_EQ(memo.Find(2, 1), nullptr);
  EXPECT_EQ(memo.hits, 0);
}

TEST(PipelineMemoUnitTest, OneEntryPerWorkerRotatingLookup) {
  EvalMemo memo;
  for (WorkerId w = 0; w < 16; ++w) {
    EvalMemo::Entry& e = memo.Upsert(w, 100 + static_cast<std::uint64_t>(w));
    e.lb = static_cast<double>(w);
    e.lb_valid = true;
  }
  // Out-of-order consultation still finds every entry (the cursor is an
  // amortization device, not a correctness constraint).
  for (WorkerId w = 15; w >= 0; --w) {
    const EvalMemo::Entry* e =
        memo.Find(w, 100 + static_cast<std::uint64_t>(w));
    ASSERT_NE(e, nullptr) << "worker " << w;
    EXPECT_EQ(e->lb, static_cast<double>(w));
  }
  // Upsert at the same version returns the same entry (no duplicates).
  EvalMemo::Entry& again = memo.Upsert(4, 104);
  EXPECT_TRUE(again.lb_valid);
}

// ------------------------------------ narrowed commit-conflict replan

TEST(PipelineMemoTest, SingleWorkerConflictReplansOnlyThatWorker) {
  // Two batch members whose best worker is the same (worker 0, anchored
  // next to both origins); worker 1 idles far away but inside both
  // candidate radii. The loser's conflict replan consults its memo:
  // worker 0's version moved (the winner's apply), worker 1's did not —
  // so the replan re-evaluates exactly one worker and reuses the other
  // verbatim (a narrowed replan; zero full replans).
  TestEnv env(MakeGridGraph(8, 8, 0.8));
  BilledOracle billed(env.oracle());
  std::vector<Worker> workers = {{0, 27, 4}, {1, 63, 4}};
  const Request r1 = env.AddRequest(28, 30, 0.0, 1e9, 1e9);
  const Request r2 = env.AddRequest(29, 31, 0.0, 1e9, 1e9);
  PlanningContext ctx(&env.graph(), &billed, &env.requests());

  Fleet fleet(workers, &env.graph());
  DispatchWindowPlanner planner(&ctx, &fleet, PlannerConfig{},
                                /*pool=*/nullptr);
  planner.OnBatch({r1.id, r2.id}, 0.0, /*epoch=*/1);

  EXPECT_EQ(fleet.AssignedWorker(r1.id), 0);
  EXPECT_EQ(planner.conflict_replans(), 1);
  EXPECT_EQ(planner.replans_narrowed(), 1);
  EXPECT_EQ(planner.replans_full(), 0);
  // The replan reused worker 1's recorded decision lower bound and
  // re-evaluated only worker 0 (worker 1's DP never runs — the Lemma 8
  // cutoff prunes it before the memo is consulted).
  EXPECT_GE(planner.memo_hits(), 1);
  EXPECT_GT(planner.memo_misses(), 0);
  const StatsAccumulator scope = planner.replan_scope();
  ASSERT_EQ(scope.count(), 1u);
  // The replan reused part of its lookups (a full recompute would score
  // 1.0 — every lookup a miss).
  EXPECT_LT(scope.mean(), 1.0);
  EXPECT_GT(scope.mean(), 0.0);

  fleet.FinishAll();
  const InvariantReport inv = VerifyInvariants(fleet, env.requests());
  EXPECT_TRUE(inv.ok) << inv.violation;

  // Twin run with the memo off: identical assignments and identical
  // billed query counts (hits re-bill their recorded counts, so the
  // totals are memo-independent).
  TestEnv env2(MakeGridGraph(8, 8, 0.8));
  BilledOracle billed2(env2.oracle());
  env2.AddRequest(28, 30, 0.0, 1e9, 1e9);
  env2.AddRequest(29, 31, 0.0, 1e9, 1e9);
  PlanningContext ctx2(&env2.graph(), &billed2, &env2.requests());
  Fleet fleet2(workers, &env2.graph());
  PlannerConfig off;
  off.use_eval_memo = false;
  DispatchWindowPlanner fresh(&ctx2, &fleet2, off, /*pool=*/nullptr);
  fresh.OnBatch({r1.id, r2.id}, 0.0, /*epoch=*/1);
  EXPECT_EQ(fresh.memo_hits() + fresh.memo_misses(), 0);
  for (const Request& r : env.requests()) {
    EXPECT_EQ(fleet.AssignedWorker(r.id), fleet2.AssignedWorker(r.id));
  }
  EXPECT_EQ(billed.query_count(), billed2.query_count());
}

// ------------------------------------ forced speculation, narrowed

TEST(PipelineMemoTest, ForcedSpeculationNarrowsReplansAndBillsIdentically) {
  // The forced-speculation drive from the speculation suite (plan stage
  // one window ahead on a contended 6-worker fleet, so commits overturn
  // speculative reads), run memo-on and memo-off. Both runs must agree
  // bit-for-bit on every assignment AND on the billed query count; the
  // memo run must additionally narrow at least one validation replan.
  const RoadNetwork graph = MakeChengduLike(0.05, 3);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(97);
  RequestParams rp;
  rp.count = 160;
  rp.duration_min = 80.0;
  rp.penalty_factor = 12.0;
  rp.seed = 101;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 6, 4.0, &rng);

  const double window_min = 6.0 / 60.0;
  std::vector<std::vector<RequestId>> batches;
  std::vector<double> closes;
  std::size_t next = 0;
  while (next < requests.size()) {
    const double window_end = requests[next].release_time + window_min;
    std::vector<RequestId> batch;
    while (next < requests.size() &&
           requests[next].release_time < window_end) {
      batch.push_back(requests[next].id);
      ++next;
    }
    batches.push_back(std::move(batch));
    closes.push_back(window_end);
  }
  ASSERT_GT(batches.size(), 4u);

  struct DriveResult {
    double committed_distance = 0.0;
    std::int64_t queries = 0;
    std::int64_t spec_misses = 0;
    std::int64_t narrowed = 0;
    std::int64_t full = 0;
    std::int64_t memo_hits = 0;
    std::vector<WorkerId> assigned;
    std::vector<double> pickups;
  };
  const auto drive = [&](bool use_memo) {
    BilledOracle billed(&labels);
    Fleet fleet(workers, &graph);
    PlanningContext ctx(&graph, &billed, &requests);
    PlannerConfig config;
    config.use_eval_memo = use_memo;
    DispatchWindowPlanner planner(&ctx, &fleet, config, /*pool=*/nullptr);
    planner.ConfigurePipeline(4);
    fleet.DisableArrivalHeap();
    WindowEpoch planned = 0, committed = 0;
    const auto plan_next = [&] {
      const std::size_t k = static_cast<std::size_t>(planned);
      planner.PlanWindow(batches[k], closes[k], ++planned);
    };
    plan_next();
    while (committed < batches.size()) {
      if (planned < batches.size()) plan_next();  // one window ahead
      planner.CommitWindow(++committed);
    }
    fleet.FinishAll();
    DriveResult out;
    out.committed_distance = fleet.committed_distance();
    out.queries = billed.query_count();
    out.spec_misses = planner.speculation_misses();
    out.narrowed = planner.replans_narrowed();
    out.full = planner.replans_full();
    out.memo_hits = planner.memo_hits();
    for (const Request& r : requests) {
      out.assigned.push_back(fleet.AssignedWorker(r.id));
      out.pickups.push_back(fleet.PickupTime(r.id));
    }
    return out;
  };

  const DriveResult memoized = drive(/*use_memo=*/true);
  const DriveResult fresh = drive(/*use_memo=*/false);

  // Speculation diverged (same seeds as the speculation suite) and the
  // memo turned at least one of the resulting replans into a narrowed
  // one with real reuse.
  EXPECT_GT(memoized.spec_misses, 0);
  EXPECT_GT(memoized.narrowed, 0);
  EXPECT_GT(memoized.memo_hits, 0);
  EXPECT_EQ(fresh.memo_hits, 0);

  // Determinism contract: memoized and fresh evaluation agree bit for
  // bit — assignments, schedule, committed distance, and the billed
  // query count (hits re-bill their recorded totals).
  EXPECT_EQ(memoized.committed_distance, fresh.committed_distance);
  EXPECT_EQ(memoized.assigned, fresh.assigned);
  EXPECT_EQ(memoized.pickups, fresh.pickups);
  EXPECT_EQ(memoized.queries, fresh.queries);
}

// --------------------------------------------------- churn fuzz

struct WorkloadRun {
  SimReport report;
  std::vector<bool> served;
};

WorkloadRun RunOnce(const RoadNetwork& graph, DistanceOracle* oracle,
                    const std::vector<Worker>& workers,
                    const std::vector<Request>& requests, int num_threads,
                    int pipeline_depth, bool use_memo) {
  SimOptions options;
  options.num_threads = num_threads;
  options.batch_window_s = 6.0;
  options.pipeline = true;
  options.pipeline_depth = pipeline_depth;
  Simulation sim(&graph, oracle, workers, &requests, options);
  PlannerConfig config;
  config.use_eval_memo = use_memo;
  WorkloadRun run;
  run.report = sim.Run(MakeDispatchWindowFactory(config));
  run.served = sim.served();
  return run;
}

void ExpectIdentical(const WorkloadRun& a, const WorkloadRun& b,
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

TEST(PipelineMemoFuzzTest, ChurnMemoizedMatchesFreshAcrossThreadsAndDepths) {
  // A contended workload (12 workers, dense windows) memo-on vs memo-off
  // at 1/2/4 threads and depths 2/3/4: winners, reports and query counts
  // must be bit-identical — the memo is an execution strategy, never a
  // result change. (Run under tsan by the tsan preset.)
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(41);
  RequestParams rp;
  rp.count = 220;
  rp.duration_min = 150.0;
  rp.penalty_factor = 10.0;
  rp.seed = 43;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 12, 4.0, &rng);

  for (int depth : {2, 3, 4}) {
    const WorkloadRun fresh = RunOnce(graph, &labels, workers, requests,
                                      /*threads=*/1, depth,
                                      /*use_memo=*/false);
    ASSERT_GT(fresh.report.served_requests, 0);
    EXPECT_EQ(fresh.report.pipeline.memo_hits, 0);
    EXPECT_EQ(fresh.report.pipeline.memo_misses, 0);
    for (int threads : {1, 2, 4}) {
      const WorkloadRun memoized = RunOnce(graph, &labels, workers, requests,
                                           threads, depth, /*use_memo=*/true);
      ExpectIdentical(fresh, memoized,
                      "depth=" + std::to_string(depth) +
                          " threads=" + std::to_string(threads));
      // The memo is live: every planning evaluation consults it (a fresh
      // eval is a recorded miss).
      EXPECT_GT(memoized.report.pipeline.memo_misses, 0);
      // replans_full stays 0 when no replan happened at all; when replans
      // did happen, narrowed + full covers them.
      EXPECT_GE(memoized.report.pipeline.replans_narrowed, 0);
    }
  }
}

}  // namespace
}  // namespace urpsm
