#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algos/batch.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"
#include "src/workload/requests.h"

namespace urpsm {
namespace {

struct SimFixture {
  SimFixture(std::uint64_t seed, int n_workers, int n_requests)
      : graph(MakeNycLike(0.02, seed)), oracle(&graph), rng(seed) {
    workers = GenerateWorkers(graph, n_workers, 3.0, &rng);
    RequestParams rp;
    rp.count = n_requests;
    rp.duration_min = 180.0;
    rp.seed = seed + 1;
    requests = GenerateRequests(graph, rp, &oracle, &rng);
  }
  RoadNetwork graph;
  DijkstraOracle oracle;
  Rng rng;
  std::vector<Worker> workers;
  std::vector<Request> requests;
};

TEST(SimulatorTest, ReportAggregatesAreConsistent) {
  SimFixture f(5, 10, 80);
  SimOptions options;
  options.alpha = 1.0;
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, options);
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));

  EXPECT_EQ(rep.total_requests, 80);
  EXPECT_GE(rep.served_requests, 0);
  EXPECT_LE(rep.served_requests, 80);
  EXPECT_NEAR(rep.served_rate, rep.served_requests / 80.0, 1e-12);
  EXPECT_NEAR(rep.unified_cost,
              options.alpha * rep.total_distance + rep.penalty_sum, 1e-9);
  EXPECT_GT(rep.distance_queries, 0);
  EXPECT_FALSE(rep.timed_out);
  // Penalty sum equals the sum over rejected requests.
  double expect_penalty = 0.0;
  for (const Request& r : f.requests) {
    if (!sim.served()[static_cast<std::size_t>(r.id)]) {
      expect_penalty += r.penalty;
    }
  }
  EXPECT_NEAR(rep.penalty_sum, expect_penalty, 1e-9);
}

TEST(SimulatorTest, InvariantsHoldAfterRun) {
  SimFixture f(6, 12, 100);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  sim.Run(MakePruneGreedyDpFactory({}));
  const InvariantReport rep = VerifyInvariants(sim.fleet(), f.requests);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST(SimulatorTest, ServedImpliesDeliveredByDeadline) {
  SimFixture f(7, 12, 100);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  sim.Run(MakePruneGreedyDpFactory({}));
  for (const Request& r : f.requests) {
    if (sim.served()[static_cast<std::size_t>(r.id)]) {
      EXPECT_LE(sim.fleet().DropoffTime(r.id), r.deadline + 1e-6)
          << "request " << r.id;
      EXPECT_LE(sim.fleet().PickupTime(r.id), sim.fleet().DropoffTime(r.id));
    } else {
      EXPECT_EQ(sim.fleet().AssignedWorker(r.id), kInvalidWorker);
    }
  }
}

TEST(SimulatorTest, TotalDistanceMatchesCommittedLegs) {
  SimFixture f(8, 10, 60);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_NEAR(rep.total_distance, sim.fleet().committed_distance(), 1e-9);
  // After FinishAll, planned == committed.
  EXPECT_NEAR(sim.fleet().TotalPlannedDistance(),
              sim.fleet().committed_distance(), 1e-9);
}

TEST(SimulatorTest, WallLimitTriggersTimeout) {
  SimFixture f(9, 10, 200);
  SimOptions options;
  options.wall_limit_seconds = 0.0;  // instant kill after first request
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, options);
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_TRUE(rep.timed_out);
  EXPECT_LE(rep.served_requests, rep.total_requests);
  // The truncated run reports how far it got, so percentile stats over
  // the processed prefix are interpretable.
  EXPECT_LT(rep.processed_requests, rep.total_requests);
  EXPECT_EQ(static_cast<std::size_t>(rep.processed_requests),
            rep.response_stats.count());
}

TEST(SimulatorTest, ProcessedRequestsCoversFullRunWithoutTimeout) {
  SimFixture f(5, 10, 80);
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_FALSE(rep.timed_out);
  EXPECT_EQ(rep.processed_requests, rep.total_requests);
}

TEST(SimulatorTest, TimedOutRunSkipsUnboundedFinalize) {
  // The batch baseline defers every assignment to Finalize-time flushes.
  // With the wall limit already exceeded, Finalize(0) must NOT plan the
  // buffered requests: before the budget was threaded through, a timed-out
  // run still paid for (and counted) an unbounded final flush.
  SimFixture f(9, 10, 120);
  SimOptions options;
  options.wall_limit_seconds = 0.0;
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, options);
  const SimReport rep = sim.Run(MakeBatchFactory({}));
  EXPECT_TRUE(rep.timed_out);
  EXPECT_EQ(rep.served_requests, 0);  // nothing was ever flushed
}

TEST(SimulatorTest, GappyRequestIdsAreHandled) {
  // Ids far from the dense 0..n-1 layout: formerly silent out-of-bounds
  // indexing (served_, direct-distance cache, request table) — now routed
  // through the id->index mapping end to end.
  SimFixture f(12, 8, 40);
  std::vector<Request> gappy = f.requests;
  for (std::size_t i = 0; i < gappy.size(); ++i) {
    gappy[i].id = static_cast<RequestId>(1000 + 7 * i);  // gappy, non-dense
  }
  Simulation sim(&f.graph, &f.oracle, f.workers, &gappy, SimOptions{});
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(rep.total_requests, static_cast<int>(gappy.size()));
  EXPECT_GT(rep.served_requests, 0);
  const InvariantReport inv = VerifyInvariants(sim.fleet(), gappy);
  EXPECT_TRUE(inv.ok) << inv.violation;
  // served() is position-indexed; request_served resolves by id. The two
  // must agree, and the penalty partition must hold under gappy ids.
  double expect_penalty = 0.0;
  int served_count = 0;
  for (std::size_t i = 0; i < gappy.size(); ++i) {
    EXPECT_EQ(sim.served()[i], sim.request_served(gappy[i].id));
    if (sim.served()[i]) {
      ++served_count;
    } else {
      expect_penalty += gappy[i].penalty;
    }
  }
  EXPECT_EQ(served_count, rep.served_requests);
  EXPECT_NEAR(rep.penalty_sum, expect_penalty, 1e-9);

  // The same workload with dense ids must produce the same outcomes —
  // ids are labels, not semantics.
  Simulation dense_sim(&f.graph, &f.oracle, f.workers, &f.requests,
                       SimOptions{});
  const SimReport dense_rep = dense_sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(dense_rep.served_requests, rep.served_requests);
  EXPECT_EQ(dense_rep.unified_cost, rep.unified_cost);
  EXPECT_EQ(dense_sim.served(), sim.served());
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  SimFixture f(10, 10, 80);
  Simulation a(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport ra = a.Run(MakePruneGreedyDpFactory({}));
  Simulation b(&f.graph, &f.oracle, f.workers, &f.requests, SimOptions{});
  const SimReport rb = b.Run(MakePruneGreedyDpFactory({}));
  EXPECT_EQ(ra.served_requests, rb.served_requests);
  EXPECT_NEAR(ra.unified_cost, rb.unified_cost, 1e-9);
  EXPECT_NEAR(ra.total_distance, rb.total_distance, 1e-9);
}

TEST(SimulatorTest, MoreWorkersNeverHurtMuch) {
  // The paper's Fig. 3 trend: unified cost decreases (served rate rises)
  // with fleet size. Greedy online planning is not strictly monotone, but
  // the trend must hold between a tiny and a larger fleet.
  SimFixture small(11, 3, 150);
  Simulation sim_small(&small.graph, &small.oracle, small.workers,
                       &small.requests, SimOptions{});
  const SimReport rep_small = sim_small.Run(MakePruneGreedyDpFactory({}));

  SimFixture big(11, 30, 150);  // same seed => same graph & requests
  Simulation sim_big(&big.graph, &big.oracle, big.workers, &big.requests,
                     SimOptions{});
  const SimReport rep_big = sim_big.Run(MakePruneGreedyDpFactory({}));

  EXPECT_GT(rep_big.served_rate, rep_small.served_rate);
  EXPECT_LT(rep_big.unified_cost, rep_small.unified_cost);
}

// ------------------------------------------------ options validation

TEST(ValidateSimOptionsTest, CleanOptionsPassThroughSilently) {
  SimOptions options;
  options.batch_window_s = 6.0;
  options.num_threads = 8;
  options.admission_policy = AdmissionPolicy::kShedOldestSlack;
  options.admission_slack_min = 2.0;
  options.window_admit_budget = 5;
  options.drain_after_s = 600.0;
  std::vector<std::string> warnings;
  const SimOptions out = ValidateSimOptions(options, &warnings);
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(out.num_threads, 8);
  EXPECT_EQ(out.batch_window_s, 6.0);
  EXPECT_EQ(out.admission_policy, AdmissionPolicy::kShedOldestSlack);
  EXPECT_EQ(out.admission_slack_min, 2.0);
  EXPECT_EQ(out.window_admit_budget, 5);
  EXPECT_EQ(out.drain_after_s, 600.0);
}

TEST(ValidateSimOptionsTest, AdmissionWithoutWindowIsDisabledWithWarning) {
  // The per-request loop ignores the admission levers, so each of them set
  // without a window is cleared with one warning.
  SimOptions slack;
  slack.admission_policy = AdmissionPolicy::kShedOldestSlack;
  slack.admission_slack_min = 3.0;
  SimOptions budget;
  budget.admission_policy = AdmissionPolicy::kRejectAtIngress;
  budget.window_admit_budget = 4;
  SimOptions drain;
  drain.drain_after_s = 120.0;
  for (const SimOptions& options : {slack, budget, drain}) {
    std::vector<std::string> warnings;
    const SimOptions out = ValidateSimOptions(options, &warnings);
    EXPECT_EQ(out.admission_policy, AdmissionPolicy::kAdmitAll);
    EXPECT_EQ(out.admission_slack_min, 0.0);
    EXPECT_EQ(out.window_admit_budget, 0);
    EXPECT_EQ(out.drain_after_s, -1.0);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("require batch_window_s > 0"),
              std::string::npos);
  }
}

TEST(ValidateSimOptionsTest, InvalidNumericsClampToNearestSane) {
  SimOptions options;
  options.batch_window_s = -3.0;
  options.num_threads = -2;
  options.wall_limit_seconds = -1.0;
  options.admission_slack_min = -5.0;
  options.window_admit_budget = -7;
  options.metrics_snapshot_period_s = 0.0;
  std::vector<std::string> warnings;
  const SimOptions out = ValidateSimOptions(options, &warnings);
  EXPECT_EQ(out.batch_window_s, 0.0);
  EXPECT_EQ(out.num_threads, 1);
  EXPECT_EQ(out.wall_limit_seconds, 0.0);
  EXPECT_EQ(out.admission_slack_min, 0.0);
  EXPECT_EQ(out.window_admit_budget, 0);
  EXPECT_EQ(out.metrics_snapshot_period_s, 1.0);
  EXPECT_GE(warnings.size(), 6u);  // one message per clamp above
}

TEST(ValidateSimOptionsTest, FaultRatesAndDelaysAreClamped) {
  SimOptions options;
  options.faults.Arm(FaultSite::kOracleDelay, 1.5, -10.0);  // both invalid
  options.faults.Arm(FaultSite::kPoolTaskDelay, -0.2, 5.0);
  std::vector<std::string> warnings;
  const SimOptions out = ValidateSimOptions(options, &warnings);
  EXPECT_EQ(out.faults.site[static_cast<int>(FaultSite::kOracleDelay)].rate,
            1.0);
  EXPECT_EQ(
      out.faults.site[static_cast<int>(FaultSite::kOracleDelay)].delay_us,
      0.0);
  EXPECT_EQ(out.faults.site[static_cast<int>(FaultSite::kPoolTaskDelay)].rate,
            0.0);
  EXPECT_GE(warnings.size(), 3u);
}

TEST(ValidateSimOptionsTest, ConstructorAppliesValidation) {
  // The constructor routes its options through ValidateSimOptions, so a
  // degenerate configuration (a drain without a window) still runs the
  // per-request loop over every request instead of silently shedding.
  SimFixture f(23, 4, 20);
  SimOptions options;
  options.drain_after_s = 0.0;  // no batch window: validation clears this
  Simulation sim(&f.graph, &f.oracle, f.workers, &f.requests, options);
  const SimReport rep = sim.Run(MakePruneGreedyDpFactory({}));
  EXPECT_FALSE(rep.drained);
  EXPECT_EQ(rep.shed_requests, 0);
  EXPECT_EQ(rep.processed_requests, rep.total_requests);
  const InvariantReport acct = CheckAccounting(rep);
  EXPECT_TRUE(acct.ok) << acct.violation;
}

// ------------------------------------ windowed loop: kill switch

TEST(WindowedTimeoutTest, ZeroBudgetKillSwitchDnfsEveryLaterWindow) {
  // A zero wall budget lets exactly the first window plan (the kill switch
  // checks the time spent *before* each window), then cuts the run: every
  // later request is a DNF, billed its penalty, with exact accounting.
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
  options.wall_limit_seconds = 0.0;
  Simulation sim(&graph, &labels, workers, &requests, options);
  const SimReport rep = sim.Run(MakeDispatchWindowFactory({}));

  int first_window = 0;
  while (first_window < static_cast<int>(requests.size()) &&
         requests[static_cast<std::size_t>(first_window)].release_time <
             requests.front().release_time + 6.0 / 60.0) {
    ++first_window;
  }
  ASSERT_LT(first_window, rep.total_requests);
  EXPECT_TRUE(rep.timed_out);
  EXPECT_EQ(rep.processed_requests, first_window);
  EXPECT_EQ(rep.response_stats.count(),
            static_cast<std::size_t>(first_window));
  EXPECT_EQ(rep.dnf_requests, rep.total_requests - first_window);
  EXPECT_EQ(rep.shed_requests, 0);
  EXPECT_EQ(rep.served_requests + rep.rejected_requests, first_window);
  double unserved_penalty = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!sim.served()[i]) unserved_penalty += requests[i].penalty;
  }
  EXPECT_DOUBLE_EQ(rep.penalty_sum, unserved_penalty);
  const InvariantReport acct = CheckAccounting(rep);
  EXPECT_TRUE(acct.ok) << acct.violation;
  const InvariantReport inv = VerifyInvariants(sim.fleet(), requests);
  EXPECT_TRUE(inv.ok) << inv.violation;
}

// ------------------------------- windowed loop: admission and drain

// Shared workload for the admission tests: the levers, not the planner,
// are under test here. The oracle holds a pointer into the graph, so both
// live together in one leaked struct (labels are built only after the
// graph reached its final address).
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

struct AdmissionRun {
  SimReport report;
  std::vector<bool> served;
};

AdmissionRun RunAdmission(SimOptions options) {
  const AdmissionWorkload& w = AdmissionSetup();
  options.batch_window_s = 6.0;
  HubLabelOracle labels = *w.labels;  // per-run query counters
  Simulation sim(&w.graph, &labels, w.workers, &w.requests, options);
  AdmissionRun run;
  run.report = sim.Run(MakeDispatchWindowFactory({}));
  run.served = sim.served();
  const InvariantReport acct = CheckAccounting(run.report);
  EXPECT_TRUE(acct.ok) << acct.violation;
  const InvariantReport inv = VerifyInvariants(sim.fleet(), w.requests);
  EXPECT_TRUE(inv.ok) << inv.violation;
  return run;
}

void ExpectSameShedAccounting(const AdmissionRun& a, const AdmissionRun& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.report.served_requests, b.report.served_requests);
  EXPECT_EQ(a.report.unified_cost, b.report.unified_cost);
  EXPECT_EQ(a.report.total_distance, b.report.total_distance);
  EXPECT_EQ(a.report.penalty_sum, b.report.penalty_sum);
  EXPECT_EQ(a.report.distance_queries, b.report.distance_queries);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.report.rejected_requests, b.report.rejected_requests);
  EXPECT_EQ(a.report.shed_requests, b.report.shed_requests);
  EXPECT_EQ(a.report.dnf_requests, b.report.dnf_requests);
  EXPECT_EQ(a.report.shed_deadline, b.report.shed_deadline);
  EXPECT_EQ(a.report.shed_overload, b.report.shed_overload);
  EXPECT_EQ(a.report.shed_drain, b.report.shed_drain);
}

TEST(WindowedAdmissionTest, AdmitAllPolicyShedsNothingAndMatchesDefault) {
  SimOptions plain;
  plain.num_threads = 2;
  const AdmissionRun base = RunAdmission(plain);
  EXPECT_EQ(base.report.shed_requests, 0);
  EXPECT_EQ(base.report.dnf_requests, 0);
  EXPECT_EQ(base.report.rejected_requests,
            base.report.processed_requests - base.report.served_requests);
  // A shedding policy with no lever armed must be bit-identical to the
  // admit-all run.
  SimOptions shed = plain;
  shed.admission_policy = AdmissionPolicy::kShedOldestSlack;
  const AdmissionRun unarmed = RunAdmission(shed);
  ExpectSameShedAccounting(base, unarmed, "unarmed kShedOldestSlack");
  EXPECT_EQ(unarmed.report.shed_requests, 0);
}

TEST(WindowedAdmissionTest, SlackFloorShedsUnservableDeterministically) {
  SimOptions options;
  options.num_threads = 1;
  options.admission_policy = AdmissionPolicy::kShedOldestSlack;
  options.admission_slack_min = 6.0;  // deadline offset is 10 min: bites
  const AdmissionRun base = RunAdmission(options);
  // Exactly the 60 doctored requests (every third of 180) fall below the
  // floor: the shed set depends on the workload alone, not on planning.
  EXPECT_EQ(base.report.shed_deadline, 60);
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

TEST(WindowedAdmissionTest, WindowBudgetShedsExcessDeterministically) {
  for (const AdmissionPolicy policy : {AdmissionPolicy::kShedOldestSlack,
                                       AdmissionPolicy::kRejectAtIngress}) {
    SimOptions options;
    options.num_threads = 1;
    options.admission_policy = policy;
    options.window_admit_budget = 4;  // windows carry ~12 requests: bites
    const AdmissionRun base = RunAdmission(options);
    // Window membership depends on release times alone, so both policies
    // shed the same number; they differ in which members go.
    EXPECT_EQ(base.report.shed_overload, 109);
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

TEST(WindowedDrainTest, CutoffCommitsPrefixAndShedsRemainderGracefully) {
  SimOptions options;
  options.num_threads = 1;
  options.drain_after_s = 45.0 * 60.0;  // half the 90-min workload
  const AdmissionRun base = RunAdmission(options);
  EXPECT_TRUE(base.report.drained);
  EXPECT_EQ(base.report.drain_cutoff_min, 45.0);
  // Every release at or after the cutoff, and nothing else, is shed.
  int after_cutoff = 0;
  for (const Request& r : AdmissionSetup().requests) {
    if (r.release_time >= 45.0) ++after_cutoff;
  }
  EXPECT_EQ(base.report.shed_drain, after_cutoff);
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
    o.admission_policy = threads == 2 ? AdmissionPolicy::kAdmitAll
                                      : AdmissionPolicy::kShedOldestSlack;
    ExpectSameShedAccounting(base, RunAdmission(o),
                             "drain threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace urpsm
