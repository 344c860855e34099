#ifndef URPSM_SRC_SIM_SIMULATOR_H_
#define URPSM_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/model/feasibility.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/parallel/ingest_queue.h"
#include "src/parallel/thread_pool.h"
#include "src/sim/fleet.h"
#include "src/sim/metrics.h"
#include "src/util/fault.h"

namespace urpsm {

/// Options for one simulation run.
struct SimOptions {
  double alpha = 1.0;  // distance weight of the unified cost
  /// Abort when cumulative planning wall time exceeds this (seconds);
  /// mirrors the paper's 10/20-hour kill switch under which kinetic DNFs.
  double wall_limit_seconds = 1e18;
  /// Threads available to planners that use the parallel dispatch engine
  /// (ParallelGreedyDpPlanner, DispatchWindowPlanner). 1 keeps the run
  /// fully sequential; above 1 the simulation owns a ThreadPool of this
  /// size and exposes it via PlanningContext::thread_pool(). Sequential
  /// planners simply ignore it. The request replay loop itself stays
  /// single-threaded — requests are serialized by release time, as in the
  /// paper.
  int num_threads = 1;
  /// Dispatch-window length in simulated *seconds*. When > 0 and the
  /// planner implements BatchPlanner, Run() switches to the windowed
  /// event loop: requests released within one window are buffered, the
  /// fleet advances to the window close, and the whole batch is planned
  /// in one OnBatch call (the paper's batch baseline uses 6 s). 0 — the
  /// default — keeps the per-request loop for every planner, which a
  /// BatchPlanner sees as singleton batches at each release time;
  /// DispatchWindowPlanner guarantees that mode is bit-identical to the
  /// sequential pruneGreedyDP run at every thread count.
  double batch_window_s = 0.0;
  /// Pipelined three-stage engine (ingest → plan → commit). Requires
  /// batch_window_s > 0 and a planner implementing PipelinedBatchPlanner
  /// (the dispatch-window engine); otherwise the option is ignored and
  /// the lock-step windowed loop runs. With pipelining, the driver thread
  /// keeps accepting and time-stamping arrivals for window k+1 while
  /// window k is still being planned, and window k+1's per-shard work
  /// starts as window k's commit stage releases each shard. Results are
  /// thread-count and queue-capacity independent for a fixed window size
  /// (SimReport deterministic fields; wall-clock stats vary run to run).
  bool pipeline = false;
  /// Ingest-queue capacity (arrivals buffered ahead of planning) when
  /// pipeline is on. The queue is bounded: a full queue blocks the
  /// producer (backpressure) rather than dropping arrivals, so this caps
  /// backlog memory without affecting any planning result.
  std::size_t ingest_capacity = 4096;
  /// Collect engine metrics (obs::Registry) for the run and attach the
  /// final snapshot to SimReport::metrics. Off by default: the
  /// instrumentation is compiled in everywhere but its hot paths reduce
  /// to a single branch when disabled (<2% overhead, measured by
  /// bench_hotpath's obs_overhead lines).
  bool collect_metrics = false;
  /// When non-empty, record engine spans (ingest/plan/commit stages,
  /// window epochs, per-shard commits) and write Chrome
  /// trace-event JSON here at the end of the run — loadable in Perfetto
  /// or chrome://tracing. Independent of collect_metrics.
  std::string trace_path;
  /// When non-empty (and collect_metrics is on), a background thread
  /// appends a JSON-lines registry snapshot to this file every
  /// metrics_snapshot_period_s seconds — the long-serving-loop exporter.
  std::string metrics_snapshot_path;
  double metrics_snapshot_period_s = 1.0;
  /// Deadline-aware admission control of the pipelined ingest stage.
  /// kBlock (default) is the lossless PR 7 behavior: a full queue blocks
  /// the producer and nothing is ever shed. The shedding policies arm the
  /// two *deterministic* admission levers below — both pure functions of
  /// simulated time, so shed sets are identical across thread counts —
  /// plus the queue-full safety valve (reject the incoming arrival under
  /// kRejectAtIngress, evict the least-slack queued one under
  /// kShedOldestSlack). The safety valve depends on physical queue
  /// occupancy (wall clock); size ingest_capacity above the real backlog
  /// wherever determinism matters.
  AdmissionPolicy admission_policy = AdmissionPolicy::kBlock;
  /// Ingress deadline-slack floor (simulated minutes): an arrival whose
  /// deadline minus release minus the Euclidean lower-bound travel time
  /// falls below this is shed at ingress (reason: deadline) — it could
  /// not be delivered in time even by an adjacent idle worker, so the
  /// drop is correct degradation, not data loss. Computed with the
  /// oracle-free Euclidean bound, so arming it perturbs no query count.
  /// <= 0 (default) disables the filter; ignored under kBlock.
  double admission_slack_min = 0.0;
  /// Per-window admit budget: at window assembly the plan stage keeps at
  /// most this many members and sheds the excess (reason: overload) —
  /// least slack first under kShedOldestSlack, latest releases under
  /// kRejectAtIngress. Window membership is deterministic, so this lever
  /// is too. 0 (default) = unlimited; ignored under kBlock.
  int window_admit_budget = 0;
  /// Graceful drain: once a release time reaches this simulated instant
  /// (seconds, same clock as batch_window_s) the ingest stage stops
  /// admitting, in-flight window slots are flushed and committed, and
  /// the un-admitted remainder is shed (reason: drain) with exact final
  /// accounting — the serving-loop shutdown path, as opposed to the
  /// wall-limit kill switch which cancels and DNFs. < 0 (default) never
  /// drains. Works under every admission policy.
  double drain_after_s = -1.0;
  /// Deterministic fault injection (tests/benches): a seeded splitmix64
  /// schedule of wall-clock perturbations at named engine sites (see
  /// FaultSite). Every perturbation is timing-only, so deterministic
  /// SimReport fields must survive any schedule. Disabled by default;
  /// the compiled-in-but-disabled cost is one null-pointer branch per
  /// site.
  FaultSpec faults;
};

/// Validates and normalizes a SimOptions in ONE documented place (called
/// by the Simulation constructor, so every run sees sane options instead
/// of per-site silent clamps). Invalid combinations are clamped to the
/// nearest sane value with a warning on stderr:
///   - pipeline without batch_window_s > 0  -> pipeline off
///   - ingest_capacity == 0                 -> 1
///   - negative batch_window_s / wall limit / slack floor / budget -> 0
///   - num_threads < 1                      -> 1
///   - metrics_snapshot_period_s <= 0       -> 1.0
///   - fault rates outside [0, 1] / negative delays -> clamped
/// When `warnings` is non-null every emitted warning is also appended to
/// it (tests assert on the messages without capturing stderr).
SimOptions ValidateSimOptions(SimOptions options,
                              std::vector<std::string>* warnings = nullptr);

/// Event-driven day simulation (Sec. 6.1): requests are replayed in
/// release order; before each release the fleet advances to the release
/// time; the planner then serves or rejects the request. With
/// SimOptions::batch_window_s > 0 and a BatchPlanner, the replay loop is
/// windowed instead: whole release windows are handed over in one OnBatch
/// call. At the end all committed+planned work is flushed and the unified
/// cost, served rate and response times are collected.
class Simulation {
 public:
  /// `requests` must be sorted by release time (ascending), and ids must
  /// be unique and non-negative — they need NOT be the dense positions
  /// 0..n-1 (gappy id spaces from trace extracts are fine; everything
  /// downstream resolves ids through an id->index map).
  Simulation(const RoadNetwork* graph, DistanceOracle* oracle,
             std::vector<Worker> workers, const std::vector<Request>* requests,
             SimOptions options);

  SimReport Run(const PlannerFactory& factory);

  /// Fleet state after Run() (for invariant checks and inspection).
  const Fleet& fleet() const { return *fleet_; }
  /// served()[k] — whether the k-th request of the input vector was
  /// served (indexed by table *position*; for the common dense workloads
  /// position and id coincide). For arbitrary ids use request_served().
  const std::vector<bool>& served() const { return served_; }
  /// Whether the request with this id was served (id-safe lookup).
  bool request_served(RequestId id) const;

 private:
  // The three event loops Run dispatches between. Each processes the
  // request stream, mutates the loop-specific SimReport fields
  // (processed_requests, response samples, timed_out, pipeline stats) and
  // returns the planning wall time consumed — the Finalize budget and
  // kill-switch accounting are shared by all three.
  double RunPerRequest(RoutePlanner* planner, SimReport* report);
  double RunWindowed(BatchPlanner* batcher, SimReport* report);
  double RunPipelined(PipelinedBatchPlanner* planner, SimReport* report);

  const RoadNetwork* graph_;
  DistanceOracle* oracle_;
  std::vector<Worker> workers_;
  const std::vector<Request>* requests_;
  SimOptions options_;
  std::unique_ptr<BilledOracle> billed_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Fleet> fleet_;
  // Observability of the current run (recreated per Run): the metrics
  // registry (disabled unless SimOptions::collect_metrics) and the span
  // tracer (disabled unless SimOptions::trace_path).
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  /// Fault injector of the run (null unless SimOptions::faults.enabled) —
  /// wired through PlanningContext / BilledOracle / ThreadPool like the
  /// obs instruments.
  std::unique_ptr<FaultInjector> faults_;
  std::vector<bool> served_;
};

/// Convenience wrapper: build a planner of the given kind.
PlannerFactory MakePruneGreedyDpFactory(PlannerConfig config);
PlannerFactory MakeGreedyDpFactory(PlannerConfig config);
/// ParallelGreedyDpPlanner on the simulation's pool (SimOptions::
/// num_threads); with pruning on, the parallel twin of pruneGreedyDP —
/// bit-identical results, candidate evaluation fanned across threads.
PlannerFactory MakeParallelGreedyDpFactory(PlannerConfig config);

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_SIMULATOR_H_
