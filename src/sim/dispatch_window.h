#ifndef URPSM_SRC_SIM_DISPATCH_WINDOW_H_
#define URPSM_SRC_SIM_DISPATCH_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/planner.h"
#include "src/insertion/insertion.h"
#include "src/parallel/fleet_shards.h"
#include "src/parallel/thread_pool.h"
#include "src/shortest/oracle.h"
#include "src/util/scratch.h"

namespace urpsm {

namespace obs {
class Counter;
class Histogram;
class TraceRecorder;
}  // namespace obs

/// Batched dispatch-window engine: pruneGreedyDP lifted from per-request
/// to per-window planning with whole-request parallelism and — in the
/// pipelined driving mode — a k-slot window ring with speculative
/// planning and parallel shard-footprint commits.
///
/// The simulation buffers every request released within one dispatch
/// window (SimOptions::batch_window_s) and hands the batch over at the
/// window close. One window then flows through:
///
///   1. Advance gate (per shard): in the pipelined mode each shard's
///      workers are advanced to the window close as soon as the previous
///      window's commit stage releases that shard (FleetShards epoch
///      marks), always in fixed shard-then-worker order on one thread so
///      every cross-worker accumulation (committed distance, heap pushes,
///      grid moves) is deterministic. In the windowed mode the simulator
///      has already advanced the fleet and the gates are trivially open.
///   2. Prep: per request — direct distance, unservability and radius
///      checks, grid-index candidate filter, Fleet::Touch of every
///      candidate (first touch wins). In the pipelined mode a request's
///      prep is gated per shard on a worker-displacement bound: shard s
///      is *required* only if its tile rectangle lies within the
///      request's filter read rectangle inflated by the shard's maximum
///      member displacement (v_max times the oldest anchor's lag since
///      the last Rebuild) — workers of any other shard provably cannot
///      appear in the filter's grid cells, so the request preps as soon
///      as its required shards advanced instead of waiting for the
///      global advance barrier.
///   3. Planning (parallel, one task per request): the shared sequential
///      decision+planning scan (PlanRequestSequential) against the
///      frozen fleet. Requests are independent against a frozen
///      snapshot, so the per-request winners are schedule-independent.
///   4. Commit: proposals apply in unified-cost-then-request-id order.
///      Proposals with disjoint *shard footprints* (the candidate
///      shards) apply concurrently on the commit pool: each accepted
///      proposal holds a per-shard sequence ticket and retires in ticket
///      order per shard, so two proposals sharing any shard apply in the
///      global order while disjoint ones overlap. A proposal whose
///      worker's route changed under it (an earlier batch member won the
///      same worker) is replanned sequentially against the updated
///      fleet; rejections stay final (Def. 5). As the last proposal that
///      could touch a shard retires, the shard is released for the next
///      window's advance gate.
///
/// Deep pipeline (ConfigurePipeline depth k > 2): window e+1 may close
/// while window e is still committing. When the probe "every shard
/// released by window e" fails, window e+1 is planned *speculatively*
/// against the live fleet — candidate filtering under the commit lock,
/// every candidate access under its mutex stripe with the route version
/// recorded. Its commit stage first re-advances and re-filters exactly
/// like a non-speculative window, then keeps each request's speculative
/// proposal only if its candidate list is unchanged and every recorded
/// version is still current (speculation hit), replanning the diverged
/// rest (miss) — versions only grow, so a clean check proves the
/// speculative scan read exactly what a fresh scan would have. Distance
/// queries made on the speculative path are billed to a private sink
/// and re-billed only on a hit, so reported query counts are
/// depth-independent.
///
/// Determinism: planning is pure against the fleet snapshot the
/// previous commit left behind (or validated to be so), decompositions
/// depend only on structural constants (never the thread count),
/// conflicts resolve in a total order, the parallel commit is
/// serial-equivalent by the per-shard tickets, and the advance executes
/// in fixed shard-then-worker order on one thread — so for any window
/// length the results are bit-identical across thread counts, ingest
/// capacities and pipeline depths, and a window of 0 (the simulator
/// then drives OnRequest per release) reproduces the sequential
/// pruneGreedyDP run exactly.
class DispatchWindowPlanner : public PipelinedBatchPlanner {
 public:
  /// `pool` is borrowed and may be nullptr (phases then run inline).
  DispatchWindowPlanner(PlanningContext* ctx, Fleet* fleet,
                        PlannerConfig config, ThreadPool* pool);
  ~DispatchWindowPlanner() override;

  /// Singleton batch at the release time — the window = 0 semantics.
  WorkerId OnRequest(const Request& r) override;
  /// The windowed (non-pipelined) mode: plan + commit fused on the
  /// calling thread. Exactly PlanWindow(without self-advance) followed by
  /// CommitWindow — the pipelined split shares this one implementation.
  void OnBatch(const std::vector<RequestId>& batch, double now,
               WindowEpoch epoch) override;
  void PlanWindow(const std::vector<RequestId>& batch, double now,
                  WindowEpoch epoch) override;
  void CommitWindow(WindowEpoch epoch) override;
  /// Sizes the slot ring (depth >= 2; 2 = the classic double buffer) and
  /// switches the commit stage onto its own pool. Not mid-run.
  void ConfigurePipeline(int depth) override;
  std::int64_t speculation_hits() const override { return spec_hits_; }
  std::int64_t speculation_misses() const override { return spec_misses_; }
  std::int64_t memo_hits() const override {
    std::int64_t total = memo_hits_;
    for (const WindowSlot& slot : slots_) total += slot.commit_memo_hits;
    return total;
  }
  std::int64_t memo_misses() const override {
    std::int64_t total = memo_misses_;
    for (const WindowSlot& slot : slots_) total += slot.commit_memo_misses;
    return total;
  }
  /// Distance queries that memo hits avoided issuing (accounted apart
  /// from the re-billed totals, which stay memo-independent).
  std::int64_t memo_saved_queries() const override {
    std::int64_t total = memo_saved_;
    for (const WindowSlot& slot : slots_) total += slot.commit_memo_saved;
    return total;
  }
  std::int64_t replans_narrowed() const override {
    std::int64_t total = 0;
    for (const WindowSlot& slot : slots_) total += slot.commit_narrowed;
    return total;
  }
  std::int64_t replans_full() const override {
    std::int64_t total = 0;
    for (const WindowSlot& slot : slots_) total += slot.commit_full;
    return total;
  }
  StatsAccumulator replan_scope() const override { return replan_scope_; }
  std::string_view name() const override {
    return config_.use_pruning ? "windowPruneGreedyDP" : "windowGreedyDP";
  }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

  /// Exact linear-DP evaluations performed (including commit-stage
  /// replans), summed over the whole slot ring. Thread-count independent
  /// for a fixed window length. Read only after the run quiesced — the
  /// commit stage contributes while a window is in flight.
  std::int64_t exact_evaluations() const {
    std::int64_t total = exact_evaluations_;
    for (const WindowSlot& slot : slots_) total += slot.commit_evals;
    return total;
  }
  /// Proposals that lost their worker to an earlier batch member and went
  /// through the sequential replanning path (speculation misses are
  /// counted separately). Quiescent read, summed over the ring.
  std::int64_t conflict_replans() const {
    std::int64_t total = 0;
    for (const WindowSlot& slot : slots_) total += slot.commit_replans;
    return total;
  }
  /// The engine's shard partition (epoch marks are inspectable in tests).
  const FleetShards& shards() const { return *shards_; }
  int pipeline_depth() const { return depth_; }

 private:
  /// A request's chosen insertion against a fleet snapshot, keyed by the
  /// worker's route version so conflict resolution can detect staleness.
  struct Proposal {
    RequestId request = kInvalidRequest;
    WorkerId worker = kInvalidWorker;
    double delta = kInf;  // exact increased distance (unified cost / alpha)
    int i = -1;
    int j = -1;
    std::uint64_t route_version = 0;
  };

  /// Per-request window state (filter output + speculation capture).
  struct Prep {
    const Request* r = nullptr;
    double L = 0.0;
    /// Shards whose advance must precede this request's prep (bit per
    /// shard; only meaningful on the self-advancing exact path).
    std::uint64_t required_mask = 0;
    std::vector<WorkerId> candidates;
    /// Commit-time re-filter output (speculative windows only).
    std::vector<WorkerId> fresh;
    /// (worker, route version) per candidate access of the speculative
    /// scan; all current at commit time <=> the scan was clean.
    std::vector<std::pair<WorkerId, std::uint64_t>> spec_versions;
    std::int64_t evals = 0;         // this request's DP evaluations
    std::int64_t spec_queries = 0;  // sink-billed speculative queries
    bool alive = false;             // candidates non-empty, not rejected
    bool prepped = false;           // filter + touch ran (gated loop)
    bool planned = false;           // proposal holds a chosen insertion
    /// Route-version memo spanning this request's evaluations within the
    /// window: the planning scan populates it; validation-miss replans
    /// and commit conflict replans reuse every candidate whose version
    /// held (see EvalMemo). Reset when the slot takes a new request.
    EvalMemo memo;
  };

  /// Slot lifecycle; purely diagnostic ordering (the epoch marks are the
  /// real synchronization), asserted at each stage boundary.
  enum class SlotState : std::uint8_t {
    kFree,
    kFilling,
    kPlanning,
    kCommitting,
  };

  /// One dispatch window in flight. The ring holds `depth_` slots:
  /// window e plans into slot e % depth_, which is reusable because the
  /// planning stage never starts before window e - depth_ fully
  /// committed (the exact path's advance gate implies it; the
  /// speculative path waits for it explicitly).
  struct WindowSlot {
    WindowEpoch epoch = 0;
    double now = 0.0;
    bool speculative = false;
    /// Dirty-set baseline of a speculative slot: FleetShards'
    /// MinCommittedEpoch() at scan start. Every fleet mutation since the
    /// scan began carries a dirty-log tag > this value.
    std::uint64_t spec_base = 0;
    std::atomic<SlotState> state{SlotState::kFree};
    std::vector<Prep> preps;
    std::vector<Proposal> proposals;
    std::vector<std::size_t> accepted;  // apply order (cost, then id)
    /// Per accepted proposal: its shard footprint as (shard, sequence
    /// ticket) pairs, ascending by shard. The parallel commit retires
    /// footprints in ticket order per shard — proposals sharing a shard
    /// serialize, disjoint ones overlap.
    std::vector<std::vector<std::pair<int, std::size_t>>> footprints;
    /// Per shard: index into `accepted` after whose retirement the shard
    /// can be released to the next window (-1 = untouched, release at
    /// commit start).
    std::vector<std::ptrdiff_t> release_at;
    // Commit-stage counters, cumulative over the slot's lifetime
    // (written by the commit thread; read quiescently).
    std::int64_t commit_evals = 0;
    std::int64_t commit_replans = 0;
    std::int64_t commit_memo_hits = 0;
    std::int64_t commit_memo_misses = 0;
    std::int64_t commit_memo_saved = 0;
    std::int64_t commit_narrowed = 0;  // replans that reused memo entries
    std::int64_t commit_full = 0;      // replans with zero memo reuse
    // Reusable-workspace clamps: the slot's buffers recycle across
    // windows; these trim capacity back to the recent high-water mark.
    HighWaterClamp preps_clamp;
    HighWaterClamp footprints_clamp;
  };

  /// Runs body over [0, n) on `pool` when attached, inline otherwise.
  void ForEachOn(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::int64_t)>& body);
  void ForEach(std::size_t n, const std::function<void(std::int64_t)>& body) {
    ForEachOn(pool_, n, body);
  }
  /// Full sequential pruneGreedyDP pass for one request against the
  /// *current* fleet (conflict replanning). Returns false on rejection.
  /// DP evaluations are counted into *evals. With `spec`, candidate
  /// accesses run under the mutex stripes with versions captured (the
  /// speculative planning path).
  bool PlanSequential(const Request& r, const std::vector<WorkerId>& candidates,
                      Proposal* out, std::int64_t* evals,
                      const SpecCapture* spec = nullptr,
                      EvalMemo* memo = nullptr);
  /// The window = 0 / singleton-batch path: filter + touch + the shared
  /// sequential scan + apply. No shard rebuild, no footprint machinery.
  void PlanAndApplySingle(const Request& r, double now);
  /// Stages 1-3 of a non-speculative window: advance gate (when
  /// `self_advance`; with displacement-gated preps interleaved), prep,
  /// Rebuild, parallel per-request planning, then BuildAcceptSchedule.
  void PlanExact(WindowSlot* slot, const std::vector<RequestId>& batch,
                 double now, WindowEpoch epoch, bool self_advance);
  /// Speculative planning of one window against the live fleet: filter
  /// under the commit lock, per-request scans under the mutex stripes
  /// with versions captured and queries sink-billed. No accept schedule
  /// yet — commit-time validation builds it.
  void PlanSpeculative(WindowSlot* slot, const std::vector<RequestId>& batch,
                       double now, WindowEpoch epoch);
  /// Commit-time validation of a speculative slot: advance everything in
  /// the fixed order, re-filter, keep clean proposals (hit) and replan
  /// diverged requests (miss), then BuildAcceptSchedule.
  void ValidateSpeculative(WindowSlot* slot);
  /// Accept filter + (delta, request) sort + shard footprints with
  /// sequence tickets + per-shard release schedule. Requires shard
  /// membership to be current (post-Rebuild).
  void BuildAcceptSchedule(WindowSlot* slot);
  /// Stage 4 on `slot`: validation when speculative, then the parallel
  /// footprint-ordered apply, releasing shards as dependents retire.
  void CommitSlot(WindowSlot* slot);

  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  ThreadPool* pool_;
  std::unique_ptr<GridIndex> index_;
  std::unique_ptr<FleetShards> shards_;
  /// The simulation's oracle when it is a BilledOracle (speculative query
  /// billing); nullptr otherwise — speculation then bills globally, which
  /// only perturbs the query count, never results.
  BilledOracle* billing_ = nullptr;
  int depth_ = 2;           // slot-ring size
  bool pipelined_ = false;  // ConfigurePipeline ran (split driving mode)
  /// Commit-stage pool: the planning thread owns pool_, so the commit
  /// thread fans out on its own pool (ThreadPool is single-submitter).
  std::unique_ptr<ThreadPool> commit_pool_;
  std::int64_t exact_evaluations_ = 0;  // planning-thread evaluations
  std::int64_t spec_hits_ = 0;          // commit-thread only
  std::int64_t spec_misses_ = 0;        // commit-thread only
  std::int64_t memo_hits_ = 0;          // planning-thread memo traffic
  std::int64_t memo_misses_ = 0;        // (commit-side lives on the slots)
  std::int64_t memo_saved_ = 0;
  /// Per validation replan: fraction of its memo lookups that missed
  /// (commit-thread writes; quiescent reads).
  StatsAccumulator replan_scope_;
  // Borrowed instruments, wired from the context's registry/tracer at
  // construction; all null (and every probe a single branch) when the
  // simulation runs without observability.
  obs::TraceRecorder* tracer_ = nullptr;
  obs::Counter* windows_counter_ = nullptr;
  obs::Counter* spec_hit_counter_ = nullptr;
  obs::Counter* spec_miss_counter_ = nullptr;
  obs::Counter* conflict_replan_counter_ = nullptr;
  obs::Counter* memo_hit_counter_ = nullptr;
  obs::Counter* memo_miss_counter_ = nullptr;
  obs::Counter* replan_narrowed_counter_ = nullptr;
  obs::Counter* replan_full_counter_ = nullptr;
  obs::Histogram* ticket_wait_hist_ = nullptr;    // commit ticket spins
  obs::Histogram* conflict_replan_hist_ = nullptr;
  obs::Histogram* spec_replan_hist_ = nullptr;    // speculation-miss cost
  // Scratch buffers. touched_ serves whichever thread preps a window
  // (planning thread for exact windows, commit thread for speculative
  // validation — never both at once); the rest are commit-stage only.
  std::vector<std::uint8_t> touched_;         // worker-indexed
  std::vector<std::uint8_t> shard_flag_;      // footprint dedup
  std::vector<std::size_t> shard_seq_;        // next ticket per shard
  std::vector<std::atomic<std::size_t>> commit_heads_;  // retired tickets
  /// Per-accepted-index stats of the parallel apply stage, accumulated
  /// into the slot's commit counters after the tasks join (the tasks run
  /// concurrently, so each writes only its own index).
  struct ApplyStats {
    std::int64_t evals = 0;
    std::int64_t replans = 0;
    std::int64_t memo_hits = 0;
    std::int64_t memo_misses = 0;
    std::int64_t memo_saved = 0;
    std::int64_t narrowed = 0;
    std::int64_t full = 0;
  };
  std::vector<ApplyStats> apply_stats_;       // per accepted index
  // Dirty-set scratch (commit thread only): the workers mutated since a
  // speculative slot's baseline, and a worker-indexed flag of them.
  std::vector<WorkerId> dirty_scratch_;
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<WindowSlot> slots_;
};

/// DispatchWindowPlanner on the simulation's pool; the windowed twin of
/// pruneGreedyDP. Drive it with SimOptions::batch_window_s > 0 for real
/// windows (plus SimOptions::pipeline for the three-stage pipelined
/// loop and SimOptions::pipeline_depth for the deep ring), or 0 for the
/// bit-identical per-request mode.
PlannerFactory MakeDispatchWindowFactory(PlannerConfig config);

}  // namespace urpsm

#endif  // URPSM_SRC_SIM_DISPATCH_WINDOW_H_
