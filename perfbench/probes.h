#ifndef URPSM_PERFBENCH_PROBES_H_
#define URPSM_PERFBENCH_PROBES_H_

// Layer probes of the traced run. Everything here times calls into the
// engine's public functions from outside; nothing under src/ changes.
//
//   TimedOracle           sits under the engine's CachedOracle, so it sees
//                         exactly the cache misses that reach the labels.
//   TracedGreedyDpPlanner makes GreedyDpPlanner::OnRequest's five public
//                         calls itself, with a span around each.
//   TimedBatchPlanner     times DispatchWindowPlanner::OnBatch.
//
// Spans are aggregated, not recorded per call: a run issues millions of
// distance queries. Each thread has a current span; oracle time is charged
// to the span of the thread that issued the query, so a span's self time
// is its duration minus its children and minus the label time charged to
// it. Pool threads are never inside a span of their own and are charged
// to kPool, which overlaps the driver's timeline.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/core/decision.h"
#include "src/core/planner.h"
#include "src/index/grid_index.h"
#include "src/insertion/insertion.h"
#include "src/shortest/oracle.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/fleet.h"
#include "src/util/stats.h"

namespace urpsm::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum Span : int {
  kLoop = 0,  // Simulation's replay loop outside the planner
  kRequest,   // one OnRequest call (self time = unattributed glue)
  kDirect,    // PlanningContext::DirectDist
  kFilter,    // FilterCandidates (grid index)
  kTouch,     // Fleet::Touch of every candidate
  kScan,      // PlanRequestSequential (decision + linear-DP planning)
  kDecision,  // side pass: BatchDecisionLowerBounds over the candidates
  kApply,     // Fleet::ApplyInsertion
  kWindow,    // DispatchWindowPlanner::OnBatch
  kPool,      // any thread outside the benchmark's spans (pool workers)
  kNumSpans,
};

inline thread_local int current_span = kPool;

/// Per-replay aggregates of the traced run.
struct LayerTrace {
  std::array<double, kNumSpans> span_s{};  // inclusive span durations
  // Per-request planner counts.
  std::int64_t requests = 0;
  std::int64_t candidates = 0;
  std::int64_t scan_calls = 0;
  std::int64_t scan_candidates = 0;
  std::int64_t scan_rejects = 0;
  std::int64_t evals = 0;
  std::int64_t route_stops = 0;  // summed over scanned candidates
  // Dispatch-window counts (read from the engine's public accessors).
  std::int64_t windows = 0;
  std::int64_t window_members = 0;
  StatsAccumulator window_ms;
  std::int64_t dispatch_evals = 0;
  std::int64_t memo_hits = 0;
  std::int64_t memo_misses = 0;
  std::int64_t replans = 0;

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(LayerTrace* trace, int span)
        : trace_(trace), span_(span), prev_(current_span), t0_(Clock::now()) {
      current_span = span;
    }
    ~Scope() {
      trace_->span_s[static_cast<std::size_t>(span_)] +=
          SecondsBetween(t0_, Clock::now());
      current_span = prev_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerTrace* trace_;
    int span_;
    int prev_;
    Clock::time_point t0_;
  };
};

/// Timing decorator over the hub labels: counts every label query (a
/// BatchQuery bills sources x targets) and its time, per span of the
/// issuing thread. Each thread owns one cache-line-aligned slot, so pool
/// threads never contend on the counters.
class TimedOracle : public DistanceOracle {
 public:
  explicit TimedOracle(DistanceOracle* inner)
      : inner_(inner), id_(next_id_.fetch_add(1) + 1) {}

  double Distance(VertexId u, VertexId v) override {
    const Clock::time_point t0 = Clock::now();
    const double d = inner_->Distance(u, v);
    Charge(1, t0);
    return d;
  }
  std::vector<VertexId> Path(VertexId u, VertexId v) override {
    return inner_->Path(u, v);
  }
  void BatchQuery(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>& targets,
                  std::vector<double>* out) override {
    const Clock::time_point t0 = Clock::now();
    inner_->BatchQuery(sources, targets, out);
    Charge(static_cast<std::int64_t>(sources.size() * targets.size()), t0);
  }
  double QuantizationErrorBound() const override {
    return inner_->QuantizationErrorBound();
  }

  struct Totals {
    std::array<std::int64_t, kNumSpans> queries{};
    std::array<double, kNumSpans> seconds{};
  };
  /// Sums every thread's slot. Call only while no query is in flight.
  Totals Collect() {
    Totals t;
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& slot : slots_) {
      for (std::size_t s = 0; s < kNumSpans; ++s) {
        t.queries[s] += slot->queries[s];
        t.seconds[s] += static_cast<double>(slot->ns[s]) * 1e-9;
      }
    }
    return t;
  }
  /// Zeroes every slot. Call only while no query is in flight.
  void Reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& slot : slots_) *slot = Slot{};
  }

 private:
  struct alignas(64) Slot {
    std::array<std::int64_t, kNumSpans> queries{};
    std::array<std::int64_t, kNumSpans> ns{};
  };

  void Charge(std::int64_t n, Clock::time_point t0) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    Slot* slot = ThisThreadSlot();
    const auto s = static_cast<std::size_t>(current_span);
    slot->queries[s] += n;
    slot->ns[s] += ns;
  }

  Slot* ThisThreadSlot() {
    thread_local std::uint64_t owner = 0;
    thread_local Slot* slot = nullptr;
    if (owner != id_) {
      const std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Slot>());
      slot = slots_.back().get();
      owner = id_;
    }
    return slot;
  }

  static inline std::atomic<std::uint64_t> next_id_{0};
  DistanceOracle* inner_;
  const std::uint64_t id_;  // tells this oracle's thread slots from others'
  std::mutex mu_;           // guards slots_ (the vector, not the counters)
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// pruneGreedyDP driven from outside: the same five public calls, in the
/// same order, as GreedyDpPlanner::OnRequest, each inside a span, plus a
/// query-free side pass that times the decision phase on its own.
class TracedGreedyDpPlanner : public RoutePlanner {
 public:
  TracedGreedyDpPlanner(PlanningContext* ctx, Fleet* fleet,
                        PlannerConfig config, LayerTrace* trace)
      : ctx_(ctx), fleet_(fleet), config_(config), trace_(trace) {
    Point lo, hi;
    ctx_->graph().BoundingBox(&lo, &hi);
    index_ = std::make_unique<GridIndex>(lo, hi, config_.grid_cell_km);
    fleet_->AttachIndex(index_.get());
  }

  WorkerId OnRequest(const Request& r) override {
    LayerTrace::Scope request_span(trace_, kRequest);
    ++trace_->requests;
    const double now = r.release_time;
    double L = 0.0;
    {
      LayerTrace::Scope s(trace_, kDirect);
      L = ctx_->DirectDist(r.id);
    }
    std::vector<WorkerId> candidates;
    {
      LayerTrace::Scope s(trace_, kFilter);
      candidates = FilterCandidates(ctx_, *index_, r, L, now);
    }
    trace_->candidates += static_cast<std::int64_t>(candidates.size());
    if (candidates.empty()) return kInvalidWorker;
    {
      LayerTrace::Scope s(trace_, kTouch);
      for (const WorkerId w : candidates) fleet_->Touch(w, now);
    }
    InsertionCandidate best;
    WorkerId best_worker = kInvalidWorker;
    {
      LayerTrace::Scope s(trace_, kScan);
      best_worker = PlanRequestSequential(ctx_, fleet_, config_, r, L,
                                          candidates, &best, &trace_->evals);
    }
    ++trace_->scan_calls;
    trace_->scan_candidates += static_cast<std::int64_t>(candidates.size());
    {
      // The scan left every candidate's route state cached at its current
      // version and nothing has mutated the fleet since, so this pass
      // rebuilds no state and issues no distance query.
      LayerTrace::Scope s(trace_, kDecision);
      side_workers_.clear();
      side_states_.clear();
      for (const WorkerId w : candidates) {
        side_workers_.push_back(&fleet_->worker(w));
        side_states_.push_back(&fleet_->CachedState(w, ctx_));
        trace_->route_stops += fleet_->route(w).size();
      }
      BatchDecisionLowerBounds(side_workers_, side_states_, r, L,
                               ctx_->graph(), &side_bounds_);
    }
    if (best_worker == kInvalidWorker) {
      ++trace_->scan_rejects;
      return kInvalidWorker;
    }
    {
      LayerTrace::Scope s(trace_, kApply);
      fleet_->ApplyInsertion(best_worker, r, best.i, best.j, ctx_->oracle());
    }
    return best_worker;
  }

  std::string_view name() const override { return "pruneGreedyDP"; }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

 private:
  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  LayerTrace* trace_;
  std::unique_ptr<GridIndex> index_;
  std::vector<const Worker*> side_workers_;
  std::vector<const RouteState*> side_states_;
  std::vector<double> side_bounds_;
};

/// The dispatch-window engine behind a decorator that times each OnBatch
/// and, at Finalize, copies the engine's public counters into the trace
/// (the simulation destroys the planner when Run returns).
class TimedBatchPlanner : public BatchPlanner {
 public:
  TimedBatchPlanner(std::unique_ptr<DispatchWindowPlanner> inner,
                    LayerTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  WorkerId OnRequest(const Request& r) override {
    return inner_->OnRequest(r);
  }
  void OnBatch(const std::vector<RequestId>& batch, double now,
               WindowEpoch epoch) override {
    const Clock::time_point t0 = Clock::now();
    {
      LayerTrace::Scope s(trace_, kWindow);
      inner_->OnBatch(batch, now, epoch);
    }
    trace_->window_ms.Add(SecondsBetween(t0, Clock::now()) * 1e3);
    ++trace_->windows;
    trace_->window_members += static_cast<std::int64_t>(batch.size());
  }
  void Finalize(double budget_seconds) override {
    inner_->Finalize(budget_seconds);
    trace_->dispatch_evals = inner_->exact_evaluations();
    trace_->memo_hits = inner_->memo_hits();
    trace_->memo_misses = inner_->memo_misses();
    trace_->replans = inner_->replans_narrowed() + inner_->replans_full();
  }
  std::string_view name() const override { return inner_->name(); }
  std::int64_t index_memory_bytes() const override {
    return inner_->index_memory_bytes();
  }

 private:
  std::unique_ptr<DispatchWindowPlanner> inner_;
  LayerTrace* trace_;
};

}  // namespace urpsm::perfbench

#endif  // URPSM_PERFBENCH_PROBES_H_
