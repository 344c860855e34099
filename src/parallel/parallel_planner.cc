#include "src/parallel/parallel_planner.h"

#include <algorithm>

#include "src/insertion/insertion.h"

namespace urpsm {

ParallelGreedyDpPlanner::ParallelGreedyDpPlanner(PlanningContext* ctx,
                                                 Fleet* fleet,
                                                 PlannerConfig config,
                                                 ThreadPool* pool)
    : ctx_(ctx), fleet_(fleet), config_(config), pool_(pool) {
  Point lo, hi;
  ctx_->graph().BoundingBox(&lo, &hi);
  index_ = std::make_unique<GridIndex>(lo, hi, config_.grid_cell_km);
  fleet_->AttachIndex(index_.get());
}

void ParallelGreedyDpPlanner::ForEach(
    std::size_t n, const std::function<void(std::int64_t)>& body) {
  // Below ~two iterations per pool thread the condition-variable wakeup
  // costs more than the loop; run inline. Purely an execution choice —
  // the evaluated set and the results are unchanged (see class comment).
  const bool worth_fanning =
      pool_ != nullptr && pool_->num_threads() > 1 &&
      n >= 2 * static_cast<std::size_t>(pool_->num_threads());
  if (worth_fanning) {
    pool_->ParallelFor(0, static_cast<std::int64_t>(n), body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(static_cast<std::int64_t>(i));
  }
}

WorkerId ParallelGreedyDpPlanner::OnRequest(const Request& r) {
  const double now = r.release_time;
  const double L = ctx_->DirectDist(r.id);  // the decision phase's 1 query

  // Candidate filter via grid index and deadline — the shared
  // FilterCandidates, run sequentially as in the sequential planner (the
  // index emits workers cell by cell, which is the partition order the
  // pool's threads later claim chunks of). The output lands in the
  // reusable per-request workspace.
  FilterCandidatesInto(ctx_, *index_, r, L, now, &candidates_);
  const std::vector<WorkerId>& candidates = candidates_;
  candidates_clamp_.Observe(&candidates_);
  if (candidates.empty()) return kInvalidWorker;

  // Touching mutates the fleet (commits due stops, bumps idle clocks) and
  // the grid index, so it stays on the driver thread. After this loop the
  // fleet is frozen until ApplyInsertion.
  for (const WorkerId w : candidates) fleet_->Touch(w, now);

  // Phase 1 — decision (Algo. 4): per-worker lower bounds, fanned across
  // the pool. Each lbs slot is written by exactly one iteration, and each
  // iteration touches exactly one fleet state-cache slot (candidates are
  // distinct workers), so the cached RouteState rebuilds are race-free.
  std::vector<double>& lbs = lbs_;
  lbs.assign(candidates.size(), kInf);
  lbs_clamp_.Observe(&lbs);
  ForEach(candidates.size(), [&](std::int64_t k) {
    const auto ks = static_cast<std::size_t>(k);
    const WorkerId w = candidates[ks];
    const Route& route = fleet_->route(w);
    const RouteState& st = fleet_->CachedState(w, ctx_);
    lbs[ks] =
        DecisionLowerBound(fleet_->worker(w), route, st, r, L, ctx_->graph());
  });

  // Sequential reduction in candidate order: same bounds, same min as the
  // sequential planner.
  std::vector<WorkerBound>& bounds = bounds_;
  bounds.clear();
  bounds.reserve(candidates.size());
  double min_lb = kInf;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (lbs[k] == kInf) continue;  // provably infeasible for this worker
    bounds.push_back({candidates[k], lbs[k]});
    min_lb = std::min(min_lb, lbs[k]);
  }
  bounds_clamp_.Observe(&bounds);
  if (bounds.empty()) return kInvalidWorker;
  if (r.penalty < config_.alpha * min_lb) return kInvalidWorker;

  // Phase 2 — planning: (lower bound, worker id) order, exact linear DP
  // in parallel blocks of kEvalBlock with the Lemma 8 cutoff between
  // blocks (see the class comment for why this is bit-identical to the
  // sequential scan). Order and cutoff are the sequential planner's own
  // helpers; the order is total, so it is the sequential scan's order.
  const std::vector<std::size_t> order = AscendingLowerBoundOrder(bounds);

  std::vector<InsertionCandidate>& cands = cands_;
  cands.assign(bounds.size(), InsertionCandidate{});
  cands_clamp_.Observe(&cands);
  WorkerId best_worker = kInvalidWorker;
  InsertionCandidate best;
  for (std::size_t b0 = 0; b0 < order.size(); b0 += kEvalBlock) {
    if (config_.use_pruning && best.feasible() &&
        LemmaEightCutoff(best.delta, bounds[order[b0]].lower_bound)) {
      break;
    }
    const std::size_t b1 = std::min(order.size(), b0 + kEvalBlock);
    ForEach(b1 - b0, [&](std::int64_t i) {
      const std::size_t k = order[b0 + static_cast<std::size_t>(i)];
      const WorkerId w = bounds[k].worker;
      // Pure cache read: the decision phase warmed every candidate's
      // state slot and the fleet is frozen until ApplyInsertion.
      cands[k] = LinearDpInsertion(fleet_->worker(w), fleet_->route(w),
                                   fleet_->CachedState(w, ctx_), r, ctx_);
    });
    exact_evaluations_ += static_cast<std::int64_t>(b1 - b0);
    // Reduce in scan order with strict improvement only — exactly the
    // sequential planner's tie behaviour (the earliest candidate in the
    // (lower bound, worker id) order wins equal costs).
    for (std::size_t idx = b0; idx < b1; ++idx) {
      const std::size_t k = order[idx];
      InsertionCandidate cand = cands[k];
      if (!cand.feasible()) continue;
      cand.delta = ClampDetour(cand.delta);
      if (cand.delta < best.delta) {
        best = cand;
        best_worker = bounds[k].worker;
      }
    }
  }
  if (best_worker == kInvalidWorker) return kInvalidWorker;
  if (config_.exact_reject_check && r.penalty < config_.alpha * best.delta) {
    return kInvalidWorker;
  }
  fleet_->ApplyInsertion(best_worker, r, best.i, best.j, ctx_->oracle());
  return best_worker;
}

}  // namespace urpsm
