#ifndef URPSM_SRC_PARALLEL_PARALLEL_PLANNER_H_
#define URPSM_SRC_PARALLEL_PARALLEL_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/decision.h"
#include "src/core/planner.h"
#include "src/insertion/insertion.h"
#include "src/parallel/thread_pool.h"
#include "src/util/scratch.h"

namespace urpsm {

/// pruneGreedyDP with both per-request phases fanned across a ThreadPool.
///
/// Structure per request (mirrors GreedyDpPlanner::OnRequest):
///   1. Candidate filter (grid index + deadline) and Fleet::Touch — kept
///      sequential: touching commits due stops and moves anchors, i.e.
///      mutates the fleet and the grid index.
///   2. Decision phase: every candidate's RouteState + decision lower
///      bound is an independent pure computation over the now-frozen
///      fleet, evaluated with ParallelFor (candidates are partitioned in
///      grid-shard order — WithinRadius emits cell by cell — and claimed
///      chunk-wise by the pool's threads).
///   3. Planning phase: candidates in AscendingLowerBoundOrder (lower
///      bound, then worker id) are evaluated with the exact linear DP in
///      fixed-size blocks; within a block evaluations run in parallel,
///      and between blocks the Lemma 8 cutoff is applied exactly as in
///      the sequential scan.
///
/// Determinism: the result is bit-identical to GreedyDpPlanner's. The
/// scan order is a strict total order over (lower bound, worker id), so
/// this planner's full sort and the sequential planner's lazily popped
/// heap visit candidates in one and the same sequence; both keep the
/// first strict cost improvement, the blockwise scan evaluates a superset
/// of the candidates the sequential pruned scan evaluates, and the
/// epsilon-guarded cutoff guarantees no member of that superset can beat
/// or tie the sequential winner. The block size is a
/// constant — deliberately independent of the pool size — so the set of
/// exact evaluations, and with it the distance-query count, is identical
/// for every thread count.
class ParallelGreedyDpPlanner : public RoutePlanner {
 public:
  /// Exact evaluations per speculative block. Constant (never derived
  /// from the pool size): large enough to keep 8 threads busy, small
  /// enough that the extra evaluations past the sequential cutoff stay
  /// cheap.
  static constexpr std::size_t kEvalBlock = 32;

  /// `pool` is borrowed and may be nullptr (or size 1), in which case
  /// every phase runs inline on the calling thread.
  ParallelGreedyDpPlanner(PlanningContext* ctx, Fleet* fleet,
                          PlannerConfig config, ThreadPool* pool);

  WorkerId OnRequest(const Request& r) override;
  std::string_view name() const override {
    return config_.use_pruning ? "parallelPruneGreedyDP" : "parallelGreedyDP";
  }
  std::int64_t index_memory_bytes() const override {
    return index_->MemoryBytes();
  }

  /// Exact linear-DP evaluations performed. At least the sequential
  /// planner's count (blocks are evaluated whole past the cutoff), but
  /// the same for every thread count.
  std::int64_t exact_evaluations() const { return exact_evaluations_; }

 private:
  /// Runs body over [0, n) on the pool when one is attached, inline
  /// otherwise.
  void ForEach(std::size_t n, const std::function<void(std::int64_t)>& body);

  PlanningContext* ctx_;
  Fleet* fleet_;
  PlannerConfig config_;
  ThreadPool* pool_;
  std::unique_ptr<GridIndex> index_;
  std::int64_t exact_evaluations_ = 0;
  // Reusable per-request workspaces (driver thread only — OnRequest is
  // never re-entered). Recycled across requests with high-water clamps so
  // one dense downtown request doesn't pin its peak footprint forever.
  std::vector<WorkerId> candidates_;
  std::vector<double> lbs_;
  std::vector<WorkerBound> bounds_;
  std::vector<InsertionCandidate> cands_;
  HighWaterClamp candidates_clamp_;
  HighWaterClamp lbs_clamp_;
  HighWaterClamp bounds_clamp_;
  HighWaterClamp cands_clamp_;
};

}  // namespace urpsm

#endif  // URPSM_SRC_PARALLEL_PARALLEL_PLANNER_H_
