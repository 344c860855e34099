#include "src/core/planner.h"

#include <algorithm>

#include "src/core/decision.h"
#include "src/insertion/insertion.h"
#include "src/util/scratch.h"

namespace urpsm {

double CandidateRadiusKm(const Request& r, double L, double now) {
  // The pickup must happen by e_r - L (Eq. 6). A worker anchored at
  // distance euc from o_r cannot reach it before
  // anchor_time + euc / v_max, so euc <= (e_r - L - anchor_time) * v_max
  // is necessary. Busy workers can have anchor_time < now (their anchor is
  // the last stop they passed), which *enlarges* their window; to stay a
  // strict superset we allow one deadline-span of anchor lag — a worker
  // whose anchor is older than that cannot slot the pickup in time anyway.
  const double slack_min = (r.deadline - L) - now;
  if (slack_min < 0.0) return -1.0;
  const double lag_allowance = r.deadline - r.release_time;
  return (slack_min + lag_allowance) * MaxSpeedKmPerMin();
}

std::vector<std::size_t> AscendingLowerBoundOrder(
    const std::vector<WorkerBound>& bounds) {
  // Deterministic for a given bounds array: std::sort's introsort is a
  // pure function of the comparator decisions and element positions, and
  // every caller funnels through this one instantiation.
  std::vector<std::size_t> order(bounds.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bounds[a].lower_bound < bounds[b].lower_bound;
  });
  return order;
}

std::vector<WorkerId> FilterCandidates(PlanningContext* ctx,
                                       const GridIndex& index,
                                       const Request& r, double L,
                                       double now) {
  std::vector<WorkerId> out;
  FilterCandidatesInto(ctx, index, r, L, now, &out);
  return out;
}

void FilterCandidatesInto(PlanningContext* ctx, const GridIndex& index,
                          const Request& r, double L, double now,
                          std::vector<WorkerId>* out) {
  out->clear();
  if (now + L > r.deadline) return;  // unservable even ideally
  const double radius = CandidateRadiusKm(r, L, now);
  if (radius < 0.0) return;
  const Point origin_pt = ctx->graph().coord(r.origin);
  index.WithinRadiusInto(origin_pt, radius, out);
}

WorkerId PlanRequestSequential(PlanningContext* ctx, Fleet* fleet,
                               const PlannerConfig& config, const Request& r,
                               double L,
                               const std::vector<WorkerId>& candidates,
                               InsertionCandidate* best_out,
                               std::int64_t* exact_evaluations) {
  // Phase 1 — decision (Algo. 4): per-worker lower bounds, no new queries.
  // Route states come from the fleet's per-worker cache (keyed on
  // Route::version): a worker whose route did not change since the last
  // request reuses its arrays instead of re-deriving them. The fleet is
  // frozen for the scan, so the cached state references stay valid while
  // every candidate's Euclidean bound column is gathered in one fused
  // pass; each bound is bit-identical to the per-candidate call.
  thread_local std::vector<WorkerBound> bounds;
  thread_local std::vector<const Worker*> batch_workers;
  thread_local std::vector<const RouteState*> batch_states;
  thread_local std::vector<double> batch_lbs;
  thread_local HighWaterClamp bounds_clamp;
  thread_local HighWaterClamp batch_workers_clamp;
  thread_local HighWaterClamp batch_states_clamp;
  thread_local HighWaterClamp batch_lbs_clamp;
  bounds.clear();
  batch_workers.clear();
  batch_states.clear();
  for (const WorkerId w : candidates) {
    batch_workers.push_back(&fleet->worker(w));
    batch_states.push_back(&fleet->CachedState(w, ctx));
  }
  BatchDecisionLowerBounds(batch_workers, batch_states, r, L, ctx->graph(),
                           &batch_lbs);
  double min_lb = kInf;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double lb = batch_lbs[i];
    if (lb == kInf) continue;  // provably infeasible for this worker
    bounds.push_back({candidates[i], lb});
    min_lb = std::min(min_lb, lb);
  }
  batch_workers_clamp.Observe(&batch_workers);
  batch_states_clamp.Observe(&batch_states);
  batch_lbs_clamp.Observe(&batch_lbs);
  bounds_clamp.Observe(&bounds);
  if (bounds.empty()) return kInvalidWorker;
  // Line 5 of Algo. 4: reject when the penalty is cheaper than even the
  // optimistic cost of serving.
  if (r.penalty < config.alpha * min_lb) return kInvalidWorker;

  // Phase 2 — planning: scan in ascending LB order with exact insertion.
  const std::vector<std::size_t> order = AscendingLowerBoundOrder(bounds);

  // Multi-route gather: when the scan provably evaluates every ordered
  // candidate (no Lemma 8 cutoff), all candidates' origin/destination
  // distance columns are fetched with one multi-source oracle sweep up
  // front. Billed queries and cell values are identical to the lazy
  // per-candidate gathers; pruned scans keep the lazy gather so
  // candidates cut off by Lemma 8 still pay no queries.
  const bool batch_gather = !config.use_pruning;
  thread_local std::vector<DistanceColumns> multi_cols;
  thread_local HighWaterClamp multi_cols_clamp;
  if (batch_gather) {
    thread_local std::vector<const Route*> batch_routes;
    thread_local std::vector<int> batch_cutoffs;
    thread_local HighWaterClamp batch_routes_clamp;
    thread_local HighWaterClamp batch_cutoffs_clamp;
    batch_routes.clear();
    batch_cutoffs.clear();
    for (const std::size_t k : order) {
      const WorkerId w = bounds[k].worker;
      batch_routes.push_back(&fleet->route(w));
      batch_cutoffs.push_back(InsertionCutoff(fleet->CachedState(w, ctx), r));
    }
    GatherDistanceColumnsMulti(batch_routes, batch_cutoffs, r, ctx,
                               &multi_cols);
    batch_routes_clamp.Observe(&batch_routes);
    batch_cutoffs_clamp.Observe(&batch_cutoffs);
    multi_cols_clamp.Observe(&multi_cols);
  }

  WorkerId best_worker = kInvalidWorker;
  InsertionCandidate best;
  for (std::size_t ko = 0; ko < order.size(); ++ko) {
    const std::size_t k = order[ko];
    // Lemma 8: every remaining worker's exact cost is at least its LB.
    if (config.use_pruning && best.feasible() &&
        LemmaEightCutoff(best.delta, bounds[k].lower_bound)) {
      break;
    }
    const WorkerId w = bounds[k].worker;
    if (exact_evaluations != nullptr) ++*exact_evaluations;
    // The fleet is frozen between Touch and ApplyInsertion, so this hits
    // the state cache warmed by the decision phase.
    const InsertionCandidate cand =
        batch_gather
            ? LinearDpInsertion(fleet->worker(w), fleet->route(w),
                                fleet->CachedState(w, ctx), r, multi_cols[ko],
                                ctx)
            : LinearDpInsertion(fleet->worker(w), fleet->route(w),
                                fleet->CachedState(w, ctx), r, ctx);
    // Strict improvement only: ties on the exact cost go to the earliest
    // worker in the scan order. Together with the epsilon-guarded cutoff
    // above (which never prunes a potential tie, only strictly worse
    // workers), the chosen insertion is the same for any scan that
    // follows this order and evaluates a superset — in particular
    // ParallelGreedyDpPlanner's block-parallel scan and the dispatch-
    // window engine's per-shard scans are bit-identical to this one.
    if (cand.feasible() && cand.delta < best.delta) {
      best = cand;
      best_worker = w;
    }
  }
  if (best_worker == kInvalidWorker) return kInvalidWorker;
  if (config.exact_reject_check && r.penalty < config.alpha * best.delta) {
    return kInvalidWorker;
  }
  *best_out = best;
  return best_worker;
}

GreedyDpPlanner::GreedyDpPlanner(PlanningContext* ctx, Fleet* fleet,
                                 PlannerConfig config)
    : ctx_(ctx), fleet_(fleet), config_(config) {
  Point lo, hi;
  ctx_->graph().BoundingBox(&lo, &hi);
  index_ = std::make_unique<GridIndex>(lo, hi, config_.grid_cell_km);
  fleet_->AttachIndex(index_.get());
}

WorkerId GreedyDpPlanner::OnRequest(const Request& r) {
  const double now = r.release_time;
  const double L = ctx_->DirectDist(r.id);  // the decision phase's 1 query
  // Line 3 of Algo. 5: candidate filter via grid index and deadline.
  const std::vector<WorkerId> candidates =
      FilterCandidates(ctx_, *index_, r, L, now);
  if (candidates.empty()) return kInvalidWorker;

  // Touching only mutates the touched worker's own route, so committing
  // every candidate up front is equivalent to the historical interleaved
  // touch-then-bound loop — commits happen in the same candidate order.
  for (const WorkerId w : candidates) fleet_->Touch(w, now);

  InsertionCandidate best;
  const WorkerId best_worker = PlanRequestSequential(
      ctx_, fleet_, config_, r, L, candidates, &best, &exact_evaluations_);
  if (best_worker == kInvalidWorker) return kInvalidWorker;
  fleet_->ApplyInsertion(best_worker, r, best.i, best.j, ctx_->oracle());
  return best_worker;
}

}  // namespace urpsm
