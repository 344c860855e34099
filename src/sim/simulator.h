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
#include "src/parallel/thread_pool.h"
#include "src/sim/fleet.h"
#include "src/sim/metrics.h"
#include "src/util/fault.h"

namespace urpsm {

/// Deadline-aware admission control of the windowed loop. kAdmitAll
/// (default) hands every release to the planner. The two shedding
/// policies arm the admission levers of SimOptions (release-slack floor,
/// per-window admit budget), both pure functions of simulated time, so
/// shed sets are identical across thread counts; they differ only in
/// which window members the budget drops.
enum class AdmissionPolicy : int {
  kAdmitAll = 0,        // nothing is shed (drain_after_s still applies)
  kRejectAtIngress = 1, // budget keeps a window's earliest releases
  kShedOldestSlack = 2, // budget drops a window's least-slack members
};

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
  /// Collect engine metrics (obs::Registry) for the run and attach the
  /// final snapshot to SimReport::metrics. Off by default: the
  /// instrumentation is compiled in everywhere but its hot paths reduce
  /// to a single branch when disabled (<2% overhead, measured by
  /// bench_hotpath's obs_overhead lines).
  bool collect_metrics = false;
  /// When non-empty, record engine spans (windows, per-window planning,
  /// per-proposal commits, shed/drain decisions) and write Chrome
  /// trace-event JSON here at the end of the run — loadable in Perfetto
  /// or chrome://tracing. Independent of collect_metrics.
  std::string trace_path;
  /// When non-empty (and collect_metrics is on), a background thread
  /// appends a JSON-lines registry snapshot to this file every
  /// metrics_snapshot_period_s seconds — the long-serving-loop exporter.
  std::string metrics_snapshot_path;
  double metrics_snapshot_period_s = 1.0;
  /// Admission levers of the windowed loop (batch_window_s > 0). All
  /// three act in simulated time while the loop assembles a window, in
  /// this order: the drain cutoff ends admission, a release below the
  /// slack floor is shed before it can open a window, and the admit
  /// budget trims the assembled window. The per-request loop ignores
  /// them (ValidateSimOptions clears them there with a warning).
  /// admission_policy arms the slack floor and the budget; kAdmitAll
  /// ignores both.
  AdmissionPolicy admission_policy = AdmissionPolicy::kAdmitAll;
  /// Release-slack floor (simulated minutes): a release whose deadline
  /// minus release minus the Euclidean lower-bound travel time falls
  /// below this is shed (reason: deadline). Even an adjacent idle worker
  /// could not deliver it in time, so the drop is correct degradation,
  /// not data loss. The bound is oracle-free, so arming the floor moves
  /// no query count. <= 0 (default) disables it.
  double admission_slack_min = 0.0;
  /// Per-window admit budget: an assembled window keeps at most this
  /// many members and sheds the rest (reason: overload), least slack
  /// first under kShedOldestSlack, latest releases under
  /// kRejectAtIngress. Window membership is deterministic, so the shed
  /// set is too. 0 (default) = unlimited.
  int window_admit_budget = 0;
  /// Graceful drain: admission ends at the first release at or after
  /// this simulated instant (seconds, same clock as batch_window_s).
  /// Every window assembled before it is planned and committed, and the
  /// remainder is shed (reason: drain) with exact final accounting: the
  /// serving-loop shutdown path, as opposed to the wall-limit kill
  /// switch, which DNFs. < 0 (default) never drains. Works under every
  /// admission policy.
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
///   - admission levers without batch_window_s > 0 -> cleared
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
  // The two event loops Run dispatches between. Each processes the
  // request stream, mutates the loop-specific SimReport fields
  // (processed_requests, response samples, timed_out, shed counts) and
  // returns the planning wall time consumed — the Finalize budget and
  // kill-switch accounting are shared by both.
  double RunPerRequest(RoutePlanner* planner, SimReport* report);
  double RunWindowed(BatchPlanner* batcher, SimReport* report);

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
