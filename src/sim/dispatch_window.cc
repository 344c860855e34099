#include "src/sim/dispatch_window.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace urpsm {

DispatchWindowPlanner::DispatchWindowPlanner(PlanningContext* ctx,
                                             Fleet* fleet,
                                             PlannerConfig config,
                                             ThreadPool* pool)
    : ctx_(ctx), fleet_(fleet), config_(config), pool_(pool) {
  Point lo, hi;
  ctx_->graph().BoundingBox(&lo, &hi);
  index_ = std::make_unique<GridIndex>(lo, hi, config_.grid_cell_km);
  fleet_->AttachIndex(index_.get());
  // Shard regions are coarser than the candidate grid (4 cells per region
  // side) so a worker's stop-to-stop anchor moves rarely change its shard.
  // Both constants are structural — independent of the thread count — so
  // the task decomposition, and with it every planning result, is too.
  shards_ = std::make_unique<FleetShards>(fleet_, lo, hi,
                                          4.0 * config_.grid_cell_km);
  fleet_->AttachShards(shards_.get());
  shards_->set_faults(ctx_->faults());
  commit_heads_ = std::vector<std::atomic<std::size_t>>(
      static_cast<std::size_t>(shards_->num_shards()));
  // Instrument wiring: instruments observe wall times and event counts
  // only — never anything planning reads — so the determinism contract
  // (bit-identical results with or without observability) holds.
  if (obs::Registry* reg = ctx_->metrics();
      reg != nullptr && reg->enabled()) {
    windows_counter_ = reg->GetCounter("engine.windows");
    conflict_replan_counter_ = reg->GetCounter("engine.commit.replans");
    ticket_wait_hist_ = reg->GetHistogram("engine.commit.ticket_wait_ms");
    conflict_replan_hist_ = reg->GetHistogram("engine.commit.replan_ms");
    shards_->RegisterMetrics(reg);
  }
  if (obs::TraceRecorder* t = ctx_->tracer();
      t != nullptr && t->enabled()) {
    tracer_ = t;
  }
}

DispatchWindowPlanner::~DispatchWindowPlanner() {
  fleet_->AttachShards(nullptr);
}

void DispatchWindowPlanner::ConfigurePipeline() {
  pipelined_ = true;
  if (commit_pool_ == nullptr && pool_ != nullptr &&
      pool_->num_threads() > 1) {
    commit_pool_ = std::make_unique<ThreadPool>(pool_->num_threads());
  }
}

void DispatchWindowPlanner::ForEachOn(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::int64_t)>& body) {
  // Purely an execution choice (the per-task work is fixed): tiny task
  // counts run inline rather than paying the pool wakeup. Grain stays 1:
  // the cursor claims indices monotonically, which the commit stage's
  // ticket waits rely on (a task only ever waits on smaller indices, all
  // claimed — hence running to completion on some thread — before it).
  const bool worth_fanning =
      pool != nullptr && pool->num_threads() > 1 && n >= 2;
  if (worth_fanning) {
    pool->ParallelFor(0, static_cast<std::int64_t>(n), body, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(static_cast<std::int64_t>(i));
  }
}

WorkerId DispatchWindowPlanner::OnRequest(const Request& r) {
  PlanAndApplySingle(r, r.release_time);
  return fleet_->AssignedWorker(r.id);
}

void DispatchWindowPlanner::PlanAndApplySingle(const Request& r, double now) {
  const double L = ctx_->DirectDist(r.id);
  const std::vector<WorkerId> candidates =
      FilterCandidates(ctx_, *index_, r, L, now);
  if (candidates.empty()) return;
  for (const WorkerId w : candidates) fleet_->Touch(w, now);
  Proposal p;
  if (PlanSequential(r, candidates, &p, &exact_evaluations_)) {
    fleet_->ApplyInsertion(p.worker, r, p.i, p.j, ctx_->oracle());
  }
}

bool DispatchWindowPlanner::PlanSequential(
    const Request& r, const std::vector<WorkerId>& candidates, Proposal* out,
    std::int64_t* evals) {
  // Funnels through the one shared sequential scan, so batch planning,
  // singleton batches and conflict replans can never drift from
  // GreedyDpPlanner::OnRequest.
  const double L = ctx_->DirectDist(r.id);
  InsertionCandidate best;
  const WorkerId best_worker = PlanRequestSequential(
      ctx_, fleet_, config_, r, L, candidates, &best, evals);
  if (best_worker == kInvalidWorker) return false;
  out->request = r.id;
  out->worker = best_worker;
  out->delta = best.delta;
  out->i = best.i;
  out->j = best.j;
  out->route_version = fleet_->route(best_worker).version();
  return true;
}

void DispatchWindowPlanner::OnBatch(const std::vector<RequestId>& batch,
                                    double now, WindowEpoch epoch) {
  // Singleton fast path (the window = 0 / per-request mode): literally
  // the sequential planner's filter + touch + shared scan, which is what
  // the bit-identity contract promises anyway. The epoch is still
  // released so a later window's advance gate cannot starve.
  if (batch.size() <= 1) {
    if (!batch.empty()) PlanAndApplySingle(ctx_->request(batch.front()), now);
    shards_->MarkAllCommitted(epoch);
    return;
  }
  WindowSlot& slot = SlotOf(epoch);
  PlanSlot(&slot, batch, now, epoch, /*self_advance=*/false);
  CommitSlot(&slot);
}

void DispatchWindowPlanner::PlanWindow(const std::vector<RequestId>& batch,
                                       double now, WindowEpoch epoch) {
  // The pipelined mode funnels even singleton windows through the full
  // plan/commit split: PlanAndApplySingle mutates the fleet, which the
  // planning stage must not do while the previous commit is in flight.
  PlanSlot(&SlotOf(epoch), batch, now, epoch, /*self_advance=*/true);
}

void DispatchWindowPlanner::CommitWindow(WindowEpoch epoch) {
  WindowSlot& slot = SlotOf(epoch);
  assert(slot.epoch == epoch && "CommitWindow out of order");
  CommitSlot(&slot);
}

void DispatchWindowPlanner::PlanSlot(WindowSlot* slot,
                                     const std::vector<RequestId>& batch,
                                     double now, WindowEpoch epoch,
                                     bool self_advance) {
  const obs::TraceSpan span(
      tracer_, "window.plan",
      {{"epoch", static_cast<std::int64_t>(epoch)},
       {"batch", static_cast<std::int64_t>(batch.size())}});
  obs::Inc(windows_counter_);
  const auto shard_count = static_cast<std::size_t>(shards_->num_shards());

  // ---- 0. Slot-free gate: the slot was last used by window
  // epoch - kSlots, whose commit must have fully retired before any slot
  // field is rewritten. (The fused mode commits synchronously and the
  // waits return immediately.)
  if (epoch > static_cast<WindowEpoch>(kSlots)) {
    const WindowEpoch freed = epoch - static_cast<WindowEpoch>(kSlots);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards_->WaitCommitted(static_cast<int>(s), freed);
    }
  }
  assert(slot->state.load(std::memory_order_relaxed) == SlotState::kFree);
  slot->state.store(SlotState::kFilling, std::memory_order_relaxed);
  slot->epoch = epoch;
  slot->now = now;
  // Reusable window workspace: trim capacity back toward the recent
  // high-water mark before refilling. Safe here — the slot-free gate
  // above proves the previous tenant's commit fully retired, so the
  // planning thread owns every slot buffer.
  slot->preps_clamp.Observe(&slot->preps);
  slot->footprints_clamp.Observe(&slot->footprints);

  // ---- 1. Request headers + displacement gate masks. Prep elements are
  // reused across the slot's windows (no clear() — that would free every
  // inner buffer): fields are either overwritten below or explicitly
  // reset, keeping capacity warm on the planning thread's critical path.
  std::vector<Prep>& preps = slot->preps;
  preps.resize(batch.size());
  touched_.assign(static_cast<std::size_t>(fleet_->size()), 0);
  // The per-shard gate needs one bit per shard; wider partitions fall
  // back to the full advance barrier (structurally deterministic either
  // way — the mask is a pure function of request and Rebuild snapshot).
  const bool gated = self_advance && shard_count <= 64;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    Prep& p = preps[b];
    p.alive = false;
    p.prepped = false;
    p.planned = false;
    p.required_mask = 0;
    p.r = &ctx_->request(batch[b]);
    p.L = ctx_->DirectDist(p.r->id);
    if (!gated) continue;
    // Planning happens at the window close: the shared filter's ideal-
    // service deadline test runs against `now`, not the release time.
    const double radius = CandidateRadiusKm(*p.r, p.L, now);
    if (now + p.L > p.r->deadline || radius < 0.0) continue;  // filter = {}
    // The filter reads the grid cells within `rings` of the origin cell
    // (rings = floor(radius / g) + 1), i.e. points within
    // sqrt(2) * (radius + 2g) of the origin. Shard s can place a worker
    // (any index position it held since the last Rebuild) inside that
    // rectangle only if its tile lies within the rectangle bound plus
    // the shard's maximum member displacement — everything farther is
    // provably invisible to this request's filter.
    const Point origin = ctx_->graph().coord(p.r->origin);
    const double reach =
        std::sqrt(2.0) * (radius + 2.0 * config_.grid_cell_km);
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (shards_->TileDistanceKm(static_cast<int>(s), origin) <=
          reach + shards_->MaxDisplacementKm(static_cast<int>(s), now)) {
        p.required_mask |= std::uint64_t{1} << s;
      }
    }
  }

  // Filter + touch of one request; runs as soon as its required shards
  // advanced. Touching never commits stops here — every candidate's
  // shard is required, hence already advanced to `now` — so the touch
  // order across requests is immaterial (per-worker idle anchor bumps,
  // first touch wins).
  const auto prep_one = [&](std::size_t b) {
    Prep& p = preps[b];
    p.prepped = true;
    FilterCandidatesInto(ctx_, *index_, *p.r, p.L, now, &p.candidates);
    if (p.candidates.empty()) return;
    p.alive = true;
    for (const WorkerId w : p.candidates) {
      auto& flag = touched_[static_cast<std::size_t>(w)];
      if (flag == 0) {
        flag = 1;
        fleet_->Touch(w, now);
      }
    }
  };

  // ---- 2. Advance gate: shard by shard, in fixed shard order, each as
  // soon as the previous window's commit stage releases it. The fixed
  // shard-then-worker order keeps every cross-worker accumulation
  // (committed distance, heap pushes, grid moves) deterministic no matter
  // how the commit stage interleaves. Requests prep the moment their
  // required-shard mask is covered by the advanced prefix — the former
  // global advance barrier survives only for requests that genuinely
  // need every shard. In the fused (OnBatch) mode the previous window
  // committed synchronously, so the waits return immediately and the
  // simulator has already advanced the fleet.
  const WindowEpoch prev = epoch == 0 ? 0 : epoch - 1;
  if (self_advance) {
    std::uint64_t advanced = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards_->WaitCommitted(static_cast<int>(s), prev);
      for (const WorkerId w : shards_->workers_in(static_cast<int>(s))) {
        fleet_->AdvanceWorkerTo(w, now);
      }
      if (!gated) continue;
      if (s < 64) advanced |= std::uint64_t{1} << s;
      for (std::size_t b = 0; b < preps.size(); ++b) {
        Prep& p = preps[b];
        if (!p.prepped && (p.required_mask & ~advanced) == 0) prep_one(b);
      }
    }
  } else {
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards_->WaitCommitted(static_cast<int>(s), prev);
    }
  }
  for (std::size_t b = 0; b < preps.size(); ++b) {
    if (!preps[b].prepped) prep_one(b);
  }
  // Anchors may have moved while committing due stops; shard membership
  // reflects the post-advance positions for the rest of the window. (The
  // previous window has fully committed by now — the advance gate's last
  // wait saw every shard released — so no concurrent reader exists.)
  shards_->Rebuild();

  // ---- 3. Planning: one task per request, the shared sequential
  // decision+planning scan against the frozen fleet. Requests are
  // mutually independent here, so the winners are schedule-independent;
  // evaluation counts are accumulated serially afterwards.
  slot->state.store(SlotState::kPlanning, std::memory_order_relaxed);
  std::vector<Proposal>& proposals = slot->proposals;
  proposals.assign(preps.size(), Proposal{});
  ForEach(preps.size(), [&](std::int64_t i) {
    const auto b = static_cast<std::size_t>(i);
    Prep& p = preps[b];
    if (!p.alive) return;
    p.evals = 0;
    p.planned = PlanSequential(*p.r, p.candidates, &proposals[b], &p.evals);
  });
  for (const Prep& p : preps) {
    if (p.alive) exact_evaluations_ += p.evals;
  }

  BuildAcceptSchedule(slot);
}

void DispatchWindowPlanner::BuildAcceptSchedule(WindowSlot* slot) {
  const auto shard_count = static_cast<std::size_t>(shards_->num_shards());
  std::vector<Prep>& preps = slot->preps;
  std::vector<Proposal>& proposals = slot->proposals;

  // ---- Apply order: unified cost (= alpha * delta), then request id.
  // The exact-reject ablation already ran inside the shared scan
  // (planned = false), so acceptance is just "a proposal exists".
  std::vector<std::size_t>& accepted = slot->accepted;
  accepted.clear();
  for (std::size_t b = 0; b < preps.size(); ++b) {
    if (preps[b].alive && preps[b].planned) accepted.push_back(b);
  }
  std::sort(accepted.begin(), accepted.end(),
            [&](std::size_t a, std::size_t b) {
              const Proposal& pa = proposals[a];
              const Proposal& pb = proposals[b];
              if (pa.delta != pb.delta) return pa.delta < pb.delta;
              return pa.request < pb.request;
            });

  // ---- Shard footprints + sequence tickets + release schedule. A
  // proposal's footprint is the (deduplicated, ascending) shard set of
  // its candidates — the workers its apply may read (replan) or write.
  // Ticket seq s/k gates apply order per shard; the shard is released
  // once the last accepted proposal whose request could touch it —
  // directly or through a conflict replan over ANY of its candidates —
  // has retired. Membership is post-Rebuild, so footprints stay valid
  // until the next window's Rebuild, which cannot run before this
  // window's commit fully retires.
  slot->release_at.assign(shard_count, -1);
  slot->footprints.resize(accepted.size());
  shard_flag_.assign(shard_count, 0);
  shard_seq_.assign(shard_count, 0);
  for (std::size_t idx = 0; idx < accepted.size(); ++idx) {
    auto& footprint = slot->footprints[idx];
    footprint.clear();
    for (const WorkerId w : preps[accepted[idx]].candidates) {
      const int s = shards_->ShardOf(w);
      if (shard_flag_[static_cast<std::size_t>(s)] == 0) {
        shard_flag_[static_cast<std::size_t>(s)] = 1;
        footprint.push_back({s, 0});
      }
    }
    std::sort(footprint.begin(), footprint.end());
    for (auto& [s, seq] : footprint) {
      seq = shard_seq_[static_cast<std::size_t>(s)]++;
      shard_flag_[static_cast<std::size_t>(s)] = 0;
      slot->release_at[static_cast<std::size_t>(s)] =
          static_cast<std::ptrdiff_t>(idx);
    }
  }
}

void DispatchWindowPlanner::CommitSlot(WindowSlot* slot) {
  assert(slot->state.load(std::memory_order_relaxed) == SlotState::kPlanning);
  slot->state.store(SlotState::kCommitting, std::memory_order_relaxed);

  const WindowEpoch epoch = slot->epoch;
  const auto shard_count = static_cast<std::size_t>(shards_->num_shards());
  // Shards no accepted proposal can touch are free for the next window
  // before any apply work happens.
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (slot->release_at[s] < 0) {
      shards_->MarkCommitted(static_cast<int>(s), epoch);
    }
  }

  // ---- Parallel footprint-ordered apply. Per shard, tickets retire in
  // sequence; a proposal waits until it holds the head ticket of EVERY
  // footprint shard, so any two proposals sharing a shard apply in the
  // accepted (cost, id) order while disjoint ones overlap. That makes
  // the parallel apply serial-equivalent: a replan triggered by a stale
  // route version reads only candidates inside its own footprint, whose
  // state is exactly what the serial loop would have left. Deadlock-free
  // with grain-1 monotone claiming — a task only waits on smaller
  // indices, and the smallest unretired index never waits.
  const std::size_t n = slot->accepted.size();
  for (std::size_t s = 0; s < shard_count; ++s) {
    commit_heads_[s].store(0, std::memory_order_relaxed);
  }
  apply_stats_.assign(n, ApplyStats{});
  ThreadPool* commit_exec = pipelined_ ? commit_pool_.get() : pool_;
  ForEachOn(commit_exec, n, [&](std::int64_t i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::size_t b = slot->accepted[idx];
    const Proposal& p = slot->proposals[b];
    const Request& r = *slot->preps[b].r;
    const auto& footprint = slot->footprints[idx];
    for (const auto& [s, seq] : footprint) {
      auto& head = commit_heads_[static_cast<std::size_t>(s)];
      if (head.load(std::memory_order_acquire) == seq) continue;
      // The per-shard ticket spin — the commit-lock wait blind spot.
      // Only an actual spin is timed (and only with a live histogram),
      // so the head-ticket fast path stays clock-free.
      const bool timed = ticket_wait_hist_ != nullptr;
      const auto w0 = timed ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
      while (head.load(std::memory_order_acquire) != seq) {
        std::this_thread::yield();
      }
      if (timed) {
        ticket_wait_hist_->Observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - w0)
                .count());
      }
    }
    {
      const obs::TraceSpan apply_span(
          tracer_, "commit.apply",
          {{"epoch", static_cast<std::int64_t>(epoch)},
           {"request", r.id},
           {"shard",
            footprint.empty() ? std::int64_t{-1}
                              : static_cast<std::int64_t>(
                                    footprint.front().first)}});
      if (fleet_->route(p.worker).version() == p.route_version) {
        // Still the fleet snapshot the proposal was computed against (for
        // this worker): feasibility and delta hold verbatim.
        fleet_->ApplyInsertion(p.worker, r, p.i, p.j, ctx_->oracle());
      } else {
        // An earlier (cheaper) batch member took this worker: replan
        // against the updated fleet. The grid index did not move (Insert
        // keeps anchors), so the original candidate list is still the
        // filter's output.
        ApplyStats& stats = apply_stats_[idx];
        stats.replans = 1;
        obs::Inc(conflict_replan_counter_);
        Proposal replanned;
        bool planned = false;
        {
          const obs::ScopedTimerMs replan_timer(conflict_replan_hist_);
          planned = PlanSequential(r, slot->preps[b].candidates, &replanned,
                                   &stats.evals);
        }
        if (planned) {
          fleet_->ApplyInsertion(replanned.worker, r, replanned.i,
                                 replanned.j, ctx_->oracle());
        }
      }
    }
    for (const auto& [s, seq] : footprint) {
      commit_heads_[static_cast<std::size_t>(s)].store(
          seq + 1, std::memory_order_release);
    }
    for (const auto& [s, seq] : footprint) {
      if (slot->release_at[static_cast<std::size_t>(s)] ==
          static_cast<std::ptrdiff_t>(idx)) {
        shards_->MarkCommitted(s, epoch);
        if (tracer_ != nullptr) {
          tracer_->Instant("shard.release",
                           {{"shard", s},
                            {"epoch", static_cast<std::int64_t>(epoch)}});
        }
      }
    }
  });
  for (std::size_t idx = 0; idx < n; ++idx) {
    const ApplyStats& stats = apply_stats_[idx];
    slot->commit_evals += stats.evals;
    slot->commit_replans += stats.replans;
  }
  shards_->MarkAllCommitted(epoch);
  slot->state.store(SlotState::kFree, std::memory_order_relaxed);
}

PlannerFactory MakeDispatchWindowFactory(PlannerConfig config) {
  return [config](PlanningContext* ctx, Fleet* fleet) {
    return std::make_unique<DispatchWindowPlanner>(ctx, fleet, config,
                                                   ctx->thread_pool());
  };
}

}  // namespace urpsm
