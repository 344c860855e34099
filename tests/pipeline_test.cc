// Tests for the pipelined dispatch engine: IngestQueue semantics
// (FIFO, backpressure, close/cancel), pipelined-on thread-count and
// queue-capacity independence, a saturation run where ingest outpaces
// planning (occupancy > 0, backpressure engaged, exact accounting, no
// drops), manually driven PlanWindow/CommitWindow epoch bookkeeping, and
// a pipelined fuzz workload (run under tsan by the tsan preset).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/parallel/ingest_queue.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"
#include "tests/test_util.h"

namespace urpsm {
namespace {

// ------------------------------------------------------------ IngestQueue

TEST(IngestQueueTest, FifoOrderAndStats) {
  IngestQueue q(16);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Push({i, static_cast<double>(i), {}}));
  }
  EXPECT_EQ(q.total_pushed(), 5);
  EXPECT_EQ(q.max_depth(), 5u);
  Arrival a;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Pop(&a));
    EXPECT_EQ(a.id, i);
    EXPECT_EQ(a.release_time, static_cast<double>(i));
  }
  q.Close();
  EXPECT_FALSE(q.Pop(&a));  // closed and drained
  EXPECT_EQ(q.backpressure_waits(), 0);
}

TEST(IngestQueueTest, BackpressureBlocksProducerUntilPop) {
  IngestQueue q(2);
  ASSERT_TRUE(q.Push({0, 0.0, {}}));
  ASSERT_TRUE(q.Push({1, 1.0, {}}));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push({2, 2.0, {}}));  // must block until a Pop
    third_pushed.store(true);
  });
  // Deterministic hand-off: the backpressure counter increments *before*
  // the producer blocks, so waiting for it guarantees the producer really
  // hit the full queue before the consumer frees a slot.
  while (q.backpressure_waits() == 0) std::this_thread::yield();
  EXPECT_FALSE(third_pushed.load());
  Arrival a;
  ASSERT_TRUE(q.Pop(&a));
  EXPECT_EQ(a.id, 0);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.backpressure_waits(), 1);
  ASSERT_TRUE(q.Pop(&a));
  EXPECT_EQ(a.id, 1);
  ASSERT_TRUE(q.Pop(&a));
  EXPECT_EQ(a.id, 2);
  EXPECT_EQ(q.max_depth(), 2u);  // bounded: never exceeded capacity
}

TEST(IngestQueueTest, TryPushBlockPolicyDelegatesToPush) {
  IngestQueue q(4);
  EXPECT_EQ(q.TryPush({0, 0.0, 1.0, {}}, AdmissionPolicy::kBlock),
            IngestQueue::PushOutcome::kAdmitted);
  q.Cancel();
  EXPECT_EQ(q.TryPush({1, 1.0, 1.0, {}}, AdmissionPolicy::kBlock),
            IngestQueue::PushOutcome::kCancelled);
  EXPECT_EQ(q.TryPush({2, 2.0, 1.0, {}}, AdmissionPolicy::kShedOldestSlack),
            IngestQueue::PushOutcome::kCancelled);
}

TEST(IngestQueueTest, TryPushRejectAtIngressShedsIncomingOnFull) {
  IngestQueue q(2);
  ASSERT_EQ(q.TryPush({0, 0.0, 5.0, {}}, AdmissionPolicy::kRejectAtIngress),
            IngestQueue::PushOutcome::kAdmitted);
  ASSERT_EQ(q.TryPush({1, 1.0, 5.0, {}}, AdmissionPolicy::kRejectAtIngress),
            IngestQueue::PushOutcome::kAdmitted);
  EXPECT_EQ(q.TryPush({2, 2.0, 99.0, {}}, AdmissionPolicy::kRejectAtIngress),
            IngestQueue::PushOutcome::kRejected);
  EXPECT_EQ(q.evicted(), 0);      // nothing queued was touched
  EXPECT_EQ(q.total_pushed(), 2);
  Arrival a;
  ASSERT_TRUE(q.Pop(&a));
  EXPECT_EQ(a.id, 0);
  // A freed slot admits again without shedding.
  EXPECT_EQ(q.TryPush({3, 3.0, 5.0, {}}, AdmissionPolicy::kRejectAtIngress),
            IngestQueue::PushOutcome::kAdmitted);
}

TEST(IngestQueueTest, TryPushShedOldestSlackEvictsLeastSlackQueued) {
  IngestQueue q(2);
  ASSERT_EQ(q.TryPush({0, 0.0, 5.0, {}}, AdmissionPolicy::kShedOldestSlack),
            IngestQueue::PushOutcome::kAdmitted);
  ASSERT_EQ(q.TryPush({1, 1.0, 3.0, {}}, AdmissionPolicy::kShedOldestSlack),
            IngestQueue::PushOutcome::kAdmitted);
  // Full queue: id 1 has the least slack (3.0 < 5.0) and is evicted.
  EXPECT_EQ(q.TryPush({2, 2.0, 10.0, {}}, AdmissionPolicy::kShedOldestSlack),
            IngestQueue::PushOutcome::kAdmitted);
  EXPECT_EQ(q.evicted(), 1);
  // Full again with slacks {5, 10}: an incoming slack-1 arrival is its
  // own victim — rejected, nothing queued is evicted.
  EXPECT_EQ(q.TryPush({3, 3.0, 1.0, {}}, AdmissionPolicy::kShedOldestSlack),
            IngestQueue::PushOutcome::kRejected);
  EXPECT_EQ(q.evicted(), 1);
  Arrival a;
  ASSERT_TRUE(q.Pop(&a));
  EXPECT_EQ(a.id, 0);  // FIFO among survivors
  ASSERT_TRUE(q.Pop(&a));
  EXPECT_EQ(a.id, 2);
  // Slack ties break on the lower id (deterministic victim).
  IngestQueue q2(2);
  ASSERT_EQ(q2.TryPush({7, 0.0, 4.0, {}}, AdmissionPolicy::kShedOldestSlack),
            IngestQueue::PushOutcome::kAdmitted);
  ASSERT_EQ(q2.TryPush({5, 1.0, 4.0, {}}, AdmissionPolicy::kShedOldestSlack),
            IngestQueue::PushOutcome::kAdmitted);
  ASSERT_EQ(q2.TryPush({9, 2.0, 8.0, {}}, AdmissionPolicy::kShedOldestSlack),
            IngestQueue::PushOutcome::kAdmitted);
  ASSERT_TRUE(q2.Pop(&a));
  EXPECT_EQ(a.id, 7);  // id 5 was the tie-break victim
}

TEST(IngestQueueTest, CancelWakesBlockedProducerAndConsumer) {
  IngestQueue q(1);
  ASSERT_TRUE(q.Push({0, 0.0, {}}));
  std::thread producer([&] {
    EXPECT_FALSE(q.Push({1, 1.0, {}}));  // blocked, then cancelled
  });
  // Same handshake as above: once the backpressure counter ticks, the
  // producer is committed to the full-queue wait, so Cancel provably
  // wakes a *blocked* push (no consumer races the slot free).
  while (q.backpressure_waits() == 0) std::this_thread::yield();
  q.Cancel();
  producer.join();
  Arrival a;
  EXPECT_FALSE(q.Pop(&a));             // cancelled: pending data discarded
  EXPECT_FALSE(q.Push({2, 2.0, {}}));  // and the stream stays dead

  // A consumer blocked on an EMPTY queue must wake on Cancel too.
  IngestQueue q2(1);
  std::thread consumer([&] {
    Arrival b;
    EXPECT_FALSE(q2.Pop(&b));
  });
  q2.Cancel();
  consumer.join();
}

// ------------------------------------------- pipelined determinism

struct WorkloadRun {
  SimReport report;
  std::vector<bool> served;
};

WorkloadRun RunOnce(const RoadNetwork& graph, DistanceOracle* oracle,
                    const std::vector<Worker>& workers,
                    const std::vector<Request>& requests, int num_threads,
                    double batch_window_s, bool pipeline,
                    std::size_t ingest_capacity = 4096) {
  SimOptions options;
  options.num_threads = num_threads;
  options.batch_window_s = batch_window_s;
  options.pipeline = pipeline;
  options.ingest_capacity = ingest_capacity;
  Simulation sim(&graph, oracle, workers, &requests, options);
  WorkloadRun run;
  run.report = sim.Run(MakeDispatchWindowFactory({}));
  run.served = sim.served();
  return run;
}

// Bit-identical on every deterministic field (wall-clock response-time
// and pipeline-occupancy stats are inherently run-dependent, excluded).
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

class PipelineDeterminismTest : public ::testing::TestWithParam<double> {};

TEST_P(PipelineDeterminismTest, ThreadCountIndependent) {
  const double penalty_factor = GetParam();
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(41);
  RequestParams rp;
  rp.count = 220;
  rp.duration_min = 200.0;
  rp.penalty_factor = penalty_factor;
  rp.seed = 43;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 12, 4.0, &rng);

  for (double window_s : {2.0, 15.0}) {
    const WorkloadRun base = RunOnce(graph, &labels, workers, requests, 1,
                                     window_s, /*pipeline=*/true);
    ASSERT_GT(base.report.served_requests, 0);
    ASSERT_TRUE(base.report.pipeline.enabled);
    EXPECT_EQ(base.report.pipeline.ingested,
              static_cast<std::int64_t>(requests.size()));
    EXPECT_EQ(base.report.processed_requests, base.report.total_requests);
    for (int threads : {2, 4, 8}) {
      const WorkloadRun run = RunOnce(graph, &labels, workers, requests,
                                      threads, window_s, /*pipeline=*/true);
      ExpectIdentical(base, run, "window=" + std::to_string(window_s) +
                                     " threads=" + std::to_string(threads));
    }
  }
}

TEST_P(PipelineDeterminismTest, QueueCapacityIndependent) {
  // The ingest-queue bound only paces the producer; it must not leak into
  // any planning result — a tiny queue (heavy backpressure) and an
  // effectively unbounded one give bit-identical runs.
  const double penalty_factor = GetParam();
  const RoadNetwork graph = MakeChengduLike(0.05, 2);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(47);
  RequestParams rp;
  rp.count = 180;
  rp.duration_min = 120.0;
  rp.penalty_factor = penalty_factor;
  rp.seed = 53;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 10, 4.0, &rng);

  const WorkloadRun wide = RunOnce(graph, &labels, workers, requests, 4, 6.0,
                                   /*pipeline=*/true, /*capacity=*/4096);
  const WorkloadRun narrow = RunOnce(graph, &labels, workers, requests, 4, 6.0,
                                     /*pipeline=*/true, /*capacity=*/8);
  ExpectIdentical(wide, narrow, "capacity 4096 vs 8");
  EXPECT_LE(narrow.report.pipeline.max_queue_depth, 8);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PipelineDeterminismTest,
                         ::testing::Values(10.0,   // default penalties
                                           1.7,    // rejection-heavy
                                           30.0),  // accept-heavy
                         [](const ::testing::TestParamInfo<double>& info) {
                           if (info.param < 5.0) return "RejectionHeavy";
                           return info.param > 20.0 ? "AcceptHeavy"
                                                    : "DefaultPenalties";
                         });

// --------------------------------------------------- saturation

TEST(PipelineSaturationTest, IngestOutpacesPlanningWithoutDrops) {
  // Dense arrivals + a small queue: the replaying producer outruns the
  // planner, so the queue fills (backpressure engages) and arrivals keep
  // being accepted while windows are mid-plan (occupancy > 0). Nothing
  // may be dropped: every request is ingested, planned and accounted.
  const RoadNetwork graph = MakeChengduLike(0.05, 4);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(59);
  RequestParams rp;
  rp.count = 600;
  rp.duration_min = 90.0;  // ~40 requests per 6-second window
  rp.penalty_factor = 10.0;
  rp.seed = 61;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 30, 4.0, &rng);

  SimOptions options;
  options.num_threads = 2;
  options.batch_window_s = 6.0;
  options.pipeline = true;
  options.ingest_capacity = 16;
  Simulation sim(&graph, &labels, workers, &requests, options);
  const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));

  const PipelineStats& ps = rep.pipeline;
  ASSERT_TRUE(ps.enabled);
  EXPECT_EQ(ps.ingested, static_cast<std::int64_t>(requests.size()));
  EXPECT_EQ(rep.processed_requests, rep.total_requests);
  EXPECT_FALSE(rep.timed_out);
  EXPECT_GT(ps.windows, 10);
  EXPECT_GT(ps.backpressure_waits, 0);
  EXPECT_GT(ps.overlapped_arrivals, 0);
  EXPECT_GT(ps.occupancy, 0.0);
  EXPECT_LE(ps.max_queue_depth, 16);
  EXPECT_GT(ps.plan_ms, 0.0);
  // Latency samples cover exactly the processed requests.
  EXPECT_EQ(rep.response_stats.count(),
            static_cast<std::size_t>(rep.processed_requests));

  const InvariantReport inv = VerifyInvariants(sim.fleet(), requests);
  EXPECT_TRUE(inv.ok) << inv.violation;
}

// --------------------------------------------------- wall-limit timeout

TEST(PipelineTimeoutTest, KillSwitchDrainsAndJoinsWithoutHang) {
  // A zero wall budget trips the plan stage's kill switch on the very
  // first arrival: the producer (blocked on the tiny full queue) must be
  // woken by Cancel, the committer must still receive its stop sentinel,
  // and both joins must return — the run ends timed-out with every
  // request rejected (DNF) and exact accounting, instead of hanging.
  const RoadNetwork graph = MakeChengduLike(0.05, 5);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(73);
  RequestParams rp;
  rp.count = 300;
  rp.duration_min = 90.0;
  rp.penalty_factor = 10.0;
  rp.seed = 79;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 10, 4.0, &rng);

  SimOptions options;
  options.num_threads = 2;
  options.batch_window_s = 6.0;
  options.pipeline = true;
  options.ingest_capacity = 4;  // producer must block before the cancel
  options.wall_limit_seconds = 0.0;
  Simulation sim(&graph, &labels, workers, &requests, options);
  const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));

  EXPECT_TRUE(rep.timed_out);
  const PipelineStats& ps = rep.pipeline;
  ASSERT_TRUE(ps.enabled);
  // The kill switch fires before any window is planned, so nothing is
  // processed and ingest stops early (well short of the request table).
  EXPECT_EQ(ps.windows, 0);
  EXPECT_EQ(rep.processed_requests, 0);
  EXPECT_EQ(rep.response_stats.count(), 0u);
  EXPECT_LT(ps.ingested, static_cast<std::int64_t>(requests.size()));
  // DNF accounting: every request is rejected and billed its penalty.
  EXPECT_EQ(rep.served_requests, 0);
  double penalty_sum = 0.0;
  for (const Request& r : requests) penalty_sum += r.penalty;
  EXPECT_DOUBLE_EQ(rep.penalty_sum, penalty_sum);

  const InvariantReport inv = VerifyInvariants(sim.fleet(), requests);
  EXPECT_TRUE(inv.ok) << inv.violation;
}

// ------------------------------------- manual epochs / shard release

TEST(PipelineEpochTest, PlanCommitSplitReleasesShardsPerEpoch) {
  const RoadNetwork graph = MakeChengduLike(0.05, 3);
  HubLabelOracle labels = HubLabelOracle::Build(graph);
  Rng rng(67);
  RequestParams rp;
  rp.count = 80;
  rp.duration_min = 60.0;
  rp.penalty_factor = 10.0;
  rp.seed = 71;
  const std::vector<Request> requests =
      GenerateRequests(graph, rp, &labels, &rng);
  const std::vector<Worker> workers = GenerateWorkers(graph, 8, 4.0, &rng);

  Fleet fleet(workers, &graph);
  PlanningContext ctx(&graph, &labels, &requests);
  DispatchWindowPlanner planner(&ctx, &fleet, PlannerConfig{},
                                /*pool=*/nullptr);

  const double window_min = 6.0 / 60.0;
  std::size_t next = 0;
  WindowEpoch epoch = 0;
  while (next < requests.size()) {
    const double window_end = requests[next].release_time + window_min;
    std::vector<RequestId> batch;
    while (next < requests.size() &&
           requests[next].release_time < window_end) {
      batch.push_back(requests[next].id);
      ++next;
    }
    ++epoch;
    // The pipelined split, driven by hand on one thread: plan (which
    // self-advances the fleet shard by shard), then commit.
    planner.PlanWindow(batch, window_end, epoch);
    planner.CommitWindow(epoch);
    for (int s = 0; s < planner.shards().num_shards(); ++s) {
      EXPECT_EQ(planner.shards().CommittedEpoch(s), epoch);
    }
    const InvariantReport inv =
        VerifyInvariants(fleet, requests, /*mid_run=*/true);
    ASSERT_TRUE(inv.ok) << "after epoch " << epoch << ": " << inv.violation;
  }
  ASSERT_GT(epoch, 3u);
  fleet.FinishAll();
  const InvariantReport inv = VerifyInvariants(fleet, requests);
  EXPECT_TRUE(inv.ok) << inv.violation;
}

// ------------------------------------------------- pipelined fuzz

TEST(PipelineFuzzTest, RandomWorkloadsMatchSingleThreadedPipeline) {
  // Several random workloads through the full three-stage engine at
  // 4 threads vs the 1-thread pipelined reference: results must match
  // bit-for-bit and the fleet must stay invariant-clean. Run under tsan
  // by the tsan preset — the advance-gate / commit-stage overlap is
  // exactly what it probes.
  for (const int seed : {3, 17}) {
    const RoadNetwork graph = MakeChengduLike(0.05, seed);
    HubLabelOracle labels = HubLabelOracle::Build(graph);
    Rng rng(100 + seed);
    RequestParams rp;
    rp.count = 150;
    rp.duration_min = 100.0;
    rp.penalty_factor = (seed % 2 == 0) ? 2.5 : 12.0;
    rp.seed = 200 + seed;
    const std::vector<Request> requests =
        GenerateRequests(graph, rp, &labels, &rng);
    const std::vector<Worker> workers = GenerateWorkers(graph, 9, 4.0, &rng);

    const WorkloadRun base = RunOnce(graph, &labels, workers, requests, 1,
                                     4.0, /*pipeline=*/true, /*capacity=*/32);
    const WorkloadRun run = RunOnce(graph, &labels, workers, requests, 4,
                                    4.0, /*pipeline=*/true, /*capacity=*/32);
    ExpectIdentical(base, run, "seed=" + std::to_string(seed));

    SimOptions options;
    options.num_threads = 4;
    options.batch_window_s = 4.0;
    options.pipeline = true;
    options.ingest_capacity = 32;
    Simulation sim(&graph, &labels, workers, &requests, options);
    sim.Run(MakeDispatchWindowFactory({}));
    const InvariantReport inv = VerifyInvariants(sim.fleet(), requests);
    EXPECT_TRUE(inv.ok) << "seed " << seed << ": " << inv.violation;
  }
}

// --------------------------------- parallel-commit shard conflicts

TEST(PipelineCommitConflictTest, ConcurrentFootprintsMatchSerialCommit) {
  // Conflict-heavy fuzz for the parallel commit stage: a compact fleet
  // on a small graph makes accepted proposals' shard footprints overlap
  // constantly, so the per-shard ticket queues (and the replan path for
  // proposals invalidated by an earlier conflicting commit) are
  // exercised hard. Concurrent footprint commits on a real pool must
  // match the 1-thread pipelined run bit-for-bit. Run under tsan by the
  // tsan preset.
  for (const int seed : {5, 23}) {
    const RoadNetwork graph = MakeChengduLike(0.05, seed);
    HubLabelOracle labels = HubLabelOracle::Build(graph);
    Rng rng(300 + seed);
    RequestParams rp;
    rp.count = 150;
    rp.duration_min = 70.0;  // dense: many requests per window
    rp.penalty_factor = (seed % 2 == 0) ? 20.0 : 8.0;
    rp.seed = 400 + seed;
    const std::vector<Request> requests =
        GenerateRequests(graph, rp, &labels, &rng);
    const std::vector<Worker> workers = GenerateWorkers(graph, 7, 4.0, &rng);

    const WorkloadRun base = RunOnce(graph, &labels, workers, requests, 1,
                                     4.0, /*pipeline=*/true, /*capacity=*/32);
    const WorkloadRun run = RunOnce(graph, &labels, workers, requests, 4,
                                    4.0, /*pipeline=*/true, /*capacity=*/32);
    ExpectIdentical(base, run, "seed=" + std::to_string(seed));

    SimOptions options;
    options.num_threads = 4;
    options.batch_window_s = 4.0;
    options.pipeline = true;
    options.ingest_capacity = 32;
    Simulation sim(&graph, &labels, workers, &requests, options);
    sim.Run(MakeDispatchWindowFactory({}));
    const InvariantReport inv = VerifyInvariants(sim.fleet(), requests);
    EXPECT_TRUE(inv.ok) << "seed " << seed << ": " << inv.violation;
  }
}

// ------------------------------------------- admission control / drain

// Shared workload for the admission tests (tighter than the determinism
// sweeps: the levers, not the planner, are under test here).
struct AdmissionWorkload {
  explicit AdmissionWorkload(RoadNetwork g) : graph(std::move(g)) {}
  RoadNetwork graph;
  std::unique_ptr<HubLabelOracle> labels;
  std::vector<Request> requests;
  std::vector<Worker> workers;
};

const AdmissionWorkload& AdmissionSetup() {
  static const AdmissionWorkload* w = [] {
    auto* aw = new AdmissionWorkload(MakeChengduLike(0.05, 2));
    aw->labels =
        std::make_unique<HubLabelOracle>(HubLabelOracle::Build(aw->graph));
    Rng rng(67);
    RequestParams rp;
    rp.count = 180;
    rp.duration_min = 90.0;  // dense: several requests per 6 s window
    rp.seed = 71;
    aw->requests = GenerateRequests(aw->graph, rp, aw->labels.get(), &rng);
    // Every third request gets a near-impossible deadline (2 min of
    // slack against a 6 min admission floor) so the slack-floor tests
    // have a deterministic population to shed; the rest keep the
    // generator's 10 min offset.
    for (std::size_t i = 0; i < aw->requests.size(); i += 3) {
      aw->requests[i].deadline = aw->requests[i].release_time + 2.0;
    }
    aw->workers = GenerateWorkers(aw->graph, 10, 4.0, &rng);
    return aw;
  }();
  return *w;
}

WorkloadRun RunAdmission(SimOptions options) {
  const AdmissionWorkload& w = AdmissionSetup();
  options.batch_window_s = 6.0;
  options.pipeline = true;
  HubLabelOracle labels = *w.labels;  // per-run query counters
  Simulation sim(&w.graph, &labels, w.workers, &w.requests, options);
  WorkloadRun run;
  run.report = sim.Run(MakeDispatchWindowFactory({}));
  run.served = sim.served();
  const InvariantReport acct = CheckAccounting(run.report);
  EXPECT_TRUE(acct.ok) << acct.violation;
  const InvariantReport inv = VerifyInvariants(sim.fleet(), w.requests);
  EXPECT_TRUE(inv.ok) << inv.violation;
  return run;
}

void ExpectSameShedAccounting(const WorkloadRun& a, const WorkloadRun& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  ExpectIdentical(a, b, label);
  EXPECT_EQ(a.report.rejected_requests, b.report.rejected_requests);
  EXPECT_EQ(a.report.shed_requests, b.report.shed_requests);
  EXPECT_EQ(a.report.dnf_requests, b.report.dnf_requests);
  EXPECT_EQ(a.report.shed_deadline, b.report.shed_deadline);
  EXPECT_EQ(a.report.shed_overload, b.report.shed_overload);
  EXPECT_EQ(a.report.shed_drain, b.report.shed_drain);
}

TEST(PipelineAdmissionTest, BlockPolicyShedsNothingAndMatchesDefault) {
  SimOptions plain;
  plain.num_threads = 2;
  const WorkloadRun base = RunAdmission(plain);
  EXPECT_EQ(base.report.shed_requests, 0);
  EXPECT_EQ(base.report.dnf_requests, 0);
  EXPECT_EQ(base.report.rejected_requests,
            base.report.processed_requests - base.report.served_requests);
  // A shedding policy with no lever armed and ample capacity must be
  // bit-identical to the lossless kBlock run: the safety valve never
  // engages below capacity and the deterministic levers are off.
  SimOptions shed = plain;
  shed.admission_policy = AdmissionPolicy::kShedOldestSlack;
  const WorkloadRun unarmed = RunAdmission(shed);
  ExpectSameShedAccounting(base, unarmed, "unarmed kShedOldestSlack");
  EXPECT_EQ(unarmed.report.shed_requests, 0);
}

TEST(PipelineAdmissionTest, SlackFloorShedsUnservableDeterministically) {
  SimOptions options;
  options.num_threads = 1;
  options.admission_policy = AdmissionPolicy::kShedOldestSlack;
  options.admission_slack_min = 6.0;  // deadline offset is 10 min: bites
  const WorkloadRun base = RunAdmission(options);
  EXPECT_GT(base.report.shed_deadline, 0);
  EXPECT_EQ(base.report.shed_overload, 0);
  EXPECT_EQ(base.report.shed_drain, 0);
  EXPECT_GT(base.report.served_requests, 0);
  // The floor is a pure function of the workload (Euclidean lower bound):
  // every thread count sheds the same set.
  for (const int threads : {2, 4}) {
    SimOptions o = options;
    o.num_threads = threads;
    ExpectSameShedAccounting(base, RunAdmission(o),
                             "slack floor threads=" + std::to_string(threads));
  }
}

TEST(PipelineAdmissionTest, WindowBudgetShedsExcessDeterministically) {
  for (const AdmissionPolicy policy : {AdmissionPolicy::kShedOldestSlack,
                                       AdmissionPolicy::kRejectAtIngress}) {
    SimOptions options;
    options.num_threads = 1;
    options.admission_policy = policy;
    options.window_admit_budget = 4;  // windows carry ~12 requests: bites
    const WorkloadRun base = RunAdmission(options);
    EXPECT_GT(base.report.shed_overload, 0);
    EXPECT_EQ(base.report.shed_deadline, 0);
    EXPECT_GT(base.report.served_requests, 0);
    for (const int threads : {2, 4}) {
      SimOptions o = options;
      o.num_threads = threads;
      ExpectSameShedAccounting(
          base, RunAdmission(o),
          "budget policy=" +
              std::to_string(static_cast<int>(policy)) +
              " threads=" + std::to_string(threads));
    }
  }
}

TEST(PipelineDrainTest, CutoffCommitsPrefixAndShedsRemainderGracefully) {
  SimOptions options;
  options.num_threads = 1;
  options.drain_after_s = 45.0 * 60.0;  // half the 90-min workload
  const WorkloadRun base = RunAdmission(options);
  EXPECT_TRUE(base.report.pipeline.drained);
  EXPECT_EQ(base.report.pipeline.drain_cutoff_min, 45.0);
  EXPECT_GT(base.report.shed_drain, 0);
  EXPECT_GT(base.report.served_requests, 0);
  // Graceful: everything admitted before the cutoff is planned and
  // committed (no DNFs, unlike the wall-limit kill switch) and the shed
  // remainder is billed its penalty.
  EXPECT_EQ(base.report.dnf_requests, 0);
  EXPECT_EQ(base.report.processed_requests,
            base.report.total_requests -
                static_cast<int>(base.report.shed_drain));
  EXPECT_GT(base.report.penalty_sum, 0.0);
  EXPECT_FALSE(base.report.timed_out);
  // The cutoff is simulated time: thread counts cannot move it, and drain
  // works under every admission policy.
  for (const int threads : {2, 4}) {
    SimOptions o = options;
    o.num_threads = threads;
    o.admission_policy = threads == 2 ? AdmissionPolicy::kBlock
                                      : AdmissionPolicy::kShedOldestSlack;
    ExpectSameShedAccounting(base, RunAdmission(o),
                             "drain threads=" + std::to_string(threads));
  }
}

// ------------------------------------------------ close/cancel races

TEST(IngestQueueRaceTest, MultiProducerCancelAccountsEveryArrival) {
  // Producers block on a tiny queue while the consumer pops a few and
  // then cancels mid-stream. Every blocked waiter must wake (the joins
  // hang otherwise — ctest's timeout is the deadlock detector) and every
  // arrival must land in exactly one bucket: popped, discarded by
  // Cancel(), or refused (Push returned false).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  IngestQueue q(2);
  std::atomic<std::int64_t> refused{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (!q.Push({p * kPerProducer + i, static_cast<double>(i), 0.0, {}})) {
          refused.fetch_add(1);
        }
      }
    });
  }
  std::int64_t popped = 0;
  Arrival a;
  for (int i = 0; i < 40; ++i) {
    if (q.Pop(&a)) ++popped;
  }
  q.Cancel();
  // Post-cancel pops fail immediately; producers all wake and drain out.
  EXPECT_FALSE(q.Pop(&a));
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(q.total_pushed(), popped + q.discarded());
  EXPECT_EQ(q.total_pushed() + refused.load(),
            static_cast<std::int64_t>(kProducers) * kPerProducer);
  EXPECT_LE(q.max_depth(), 2u);
}

TEST(IngestQueueRaceTest, MultiProducerCloseDrainsEverything) {
  // Close (the graceful path) must lose nothing: after the producers
  // finish and the stream closes, the consumer drains exactly what was
  // pushed, and the final Pop returns false instead of hanging.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  IngestQueue q(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(
            q.Push({p * kPerProducer + i, static_cast<double>(i), 0.0, {}}));
      }
    });
  }
  std::int64_t popped = 0;
  std::thread consumer([&] {
    Arrival a;
    while (q.Pop(&a)) ++popped;
  });
  for (std::thread& t : producers) t.join();
  q.Close();
  consumer.join();
  EXPECT_EQ(popped, static_cast<std::int64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(q.total_pushed(), popped);
  EXPECT_EQ(q.discarded(), 0);
  EXPECT_LE(q.max_depth(), 8u);
}

TEST(IngestQueueRaceTest, ConcurrentShedPolicyKeepsCountsConsistent) {
  // Multi-producer TryPush under kShedOldestSlack: admissions, evictions
  // and rejections race on a full queue, yet the conservation law must
  // hold exactly: everything admitted is either popped or evicted, and
  // every offer is admitted or rejected.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 300;
  IngestQueue q(4);
  std::atomic<std::int64_t> admitted{0}, rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int id = p * kPerProducer + i;
        const auto out = q.TryPush({id, 0.0, static_cast<double>(id % 17), {}},
                                   AdmissionPolicy::kShedOldestSlack);
        if (out == IngestQueue::PushOutcome::kAdmitted) {
          admitted.fetch_add(1);
        } else {
          ASSERT_EQ(out, IngestQueue::PushOutcome::kRejected);
          rejected.fetch_add(1);
        }
      }
    });
  }
  std::int64_t popped = 0;
  std::thread consumer([&] {
    Arrival a;
    while (q.Pop(&a)) ++popped;
  });
  for (std::thread& t : producers) t.join();
  q.Close();
  consumer.join();
  EXPECT_EQ(admitted.load() + rejected.load(),
            static_cast<std::int64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(q.total_pushed(), admitted.load());
  EXPECT_EQ(popped + q.evicted(), q.total_pushed());
  EXPECT_EQ(q.discarded(), 0);
  EXPECT_LE(q.max_depth(), 4u);
}

}  // namespace
}  // namespace urpsm
