// Tests for the parallel dispatch engine: ThreadPool/ParallelFor, the
// concurrent BilledOracle path, and the determinism
// regression proving ParallelGreedyDpPlanner is bit-identical to the
// sequential GreedyDP planners for every thread count.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/parallel/parallel_planner.h"
#include "src/parallel/thread_pool.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

namespace urpsm {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 20000;
  std::vector<std::atomic<int>> counts(kN);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(0, kN, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RespectsNonZeroBeginAndGrain) {
  ThreadPool pool(3);
  constexpr std::int64_t kBegin = 17, kEnd = 4711;
  std::vector<std::atomic<int>> counts(kEnd);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(kBegin, kEnd,
                   [&](std::int64_t i) {
                     counts[static_cast<std::size_t>(i)].fetch_add(1);
                   },
                   /*grain=*/64);
  for (std::int64_t i = 0; i < kEnd; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), i >= kBegin ? 1 : 0);
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(3, 2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A single iteration runs inline on the caller.
  std::int64_t seen = -1;
  pool.ParallelFor(9, 10, [&](std::int64_t i) { seen = i; });
  EXPECT_EQ(seen, 9);
}

TEST(ThreadPoolTest, SizeOnePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.ParallelFor(0, 100, [&](std::int64_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  // Stresses the epoch/wakeup logic: many small back-to-back jobs.
  ThreadPool pool(4);
  for (int round = 0; round < 300; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.ParallelFor(0, 64, [&](std::int64_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, WritesAreVisibleToCallerAfterReturn) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 5000;
  std::vector<std::int64_t> out(kN, -1);  // plain (non-atomic) slots
  pool.ParallelFor(0, kN,
                   [&](std::int64_t i) { out[static_cast<std::size_t>(i)] = i * i; });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, ParallelMapReturnsPerIndexValues) {
  ThreadPool pool(4);
  const std::vector<int> squares =
      pool.ParallelMap<int>(100, [](std::int64_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(squares.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
}

// ----------------------------------------------------- concurrent oracle

TEST(BilledOracleConcurrencyTest, ConcurrentDistancesMatchSequential) {
  const RoadNetwork graph = MakeCity({12, 12, 0.3, 4, 12, 0.1, 0.02, 5});
  DijkstraOracle inner(&graph);
  BilledOracle billed(&inner);

  // Ground truth from an independent sequential oracle.
  DijkstraOracle truth(&graph);
  const int n = graph.num_vertices();
  constexpr int kThreads = 8, kPairs = 400;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(kPairs);
  std::int64_t self_pairs = 0;
  std::uint64_t state = 42;
  for (int i = 0; i < kPairs; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto u = static_cast<VertexId>((state >> 33) % static_cast<std::uint64_t>(n));
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto v = static_cast<VertexId>((state >> 33) % static_cast<std::uint64_t>(n));
    pairs.emplace_back(u, v);
    if (u == v) ++self_pairs;
  }

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(kPairs, -1.0));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPairs; ++i) {
        got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            billed.Distance(pairs[static_cast<std::size_t>(i)].first,
                            pairs[static_cast<std::size_t>(i)].second);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kPairs; ++i) {
    const double expect = truth.Distance(pairs[static_cast<std::size_t>(i)].first,
                                         pairs[static_cast<std::size_t>(i)].second);
    for (int t = 0; t < kThreads; ++t) {
      if (got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] != expect) {
        mismatch.store(true);
      }
    }
  }
  EXPECT_FALSE(mismatch.load());
  // Every top-level call is counted exactly once, concurrency or not, and
  // every one but u == v reaches the inner oracle.
  EXPECT_EQ(billed.query_count(), static_cast<std::int64_t>(kThreads) * kPairs);
  EXPECT_EQ(inner.query_count(),
            static_cast<std::int64_t>(kThreads) * (kPairs - self_pairs));
}

// ------------------------------------------------- determinism regression

struct WorkloadRun {
  SimReport report;
  std::vector<bool> served;
};

WorkloadRun RunOnce(const RoadNetwork& graph, DistanceOracle* oracle,
                    const std::vector<Worker>& workers,
                    const std::vector<Request>& requests,
                    const PlannerFactory& factory, int num_threads) {
  SimOptions options;
  options.num_threads = num_threads;
  Simulation sim(&graph, oracle, workers, &requests, options);
  WorkloadRun run;
  run.report = sim.Run(factory);
  run.served = sim.served();
  return run;
}

// Bit-identical on every deterministic field (wall-clock response-time
// stats are inherently run-dependent and excluded).
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
  EXPECT_EQ(a.served, b.served);
}

class ParallelPlannerDeterminismTest
    : public ::testing::TestWithParam<double> {};

TEST_P(ParallelPlannerDeterminismTest, BitIdenticalToSequentialForAllThreadCounts) {
  const double penalty_factor = GetParam();
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);

  Rng rng(17);
  RequestParams rp;
  rp.count = 260;
  rp.duration_min = 240.0;
  rp.penalty_factor = penalty_factor;
  rp.seed = 23;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 14, 4.0, &rng);

  const PlannerConfig config;  // pruning on
  const WorkloadRun sequential = RunOnce(graph, &labels, workers, requests,
                                         MakePruneGreedyDpFactory(config), 1);
  // The unpruned ablation must agree too (Lemma 8 losslessness with the
  // shared deterministic tie-break).
  const WorkloadRun unpruned = RunOnce(graph, &labels, workers, requests,
                                       MakeGreedyDpFactory(config), 1);
  ExpectIdentical(sequential, unpruned, "pruneGreedyDP vs GreedyDP");

  ASSERT_GT(sequential.report.served_requests, 0);
  if (penalty_factor < 5.0) {
    // The rejection-heavy workload must actually exercise rejections.
    ASSERT_LT(sequential.report.served_requests,
              sequential.report.total_requests);
  }

  for (int threads : {1, 2, 4, 8}) {
    const WorkloadRun parallel =
        RunOnce(graph, &labels, workers, requests,
                MakeParallelGreedyDpFactory(config), threads);
    ExpectIdentical(sequential, parallel,
                    "parallel threads=" + std::to_string(threads));
  }

  // The speculative block scan is thread-count independent, so the
  // distance-query count of parallel runs must not depend on the pool
  // size either.
  const WorkloadRun p2 = RunOnce(graph, &labels, workers, requests,
                                 MakeParallelGreedyDpFactory(config), 2);
  const WorkloadRun p8 = RunOnce(graph, &labels, workers, requests,
                                 MakeParallelGreedyDpFactory(config), 8);
  EXPECT_EQ(p2.report.distance_queries, p8.report.distance_queries);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelPlannerDeterminismTest,
                         ::testing::Values(10.0,   // default penalties
                                           1.7,    // rejection-heavy
                                           30.0),  // accept-heavy: long
                                                   // routes, warm caches
                         [](const ::testing::TestParamInfo<double>& info) {
                           if (info.param < 5.0) return "RejectionHeavy";
                           return info.param > 20.0 ? "AcceptHeavy"
                                                    : "DefaultPenalties";
                         });

}  // namespace
}  // namespace urpsm
