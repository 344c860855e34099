#include "src/parallel/fleet_shards.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/graph/road_network.h"
#include "src/model/route.h"
#include "src/obs/registry.h"
#include "src/util/fault.h"

namespace urpsm {

namespace {

/// Largest divisor of `n` that is <= sqrt(n) — the tile grid is as close
/// to square as the shard count allows (16 -> 4x4, 8 -> 2x4, 7 -> 1x7).
int SquarestDivisor(int n) {
  int best = 1;
  for (int d = 1; d * d <= n; ++d) {
    if (n % d == 0) best = d;
  }
  return best;
}

}  // namespace

FleetShards::FleetShards(const Fleet* fleet, Point lo, Point hi,
                         double region_km, int num_shards)
    : fleet_(fleet),
      lo_(lo),
      region_km_(region_km > 0.0 ? region_km : 1.0),
      num_shards_(std::max(1, num_shards)) {
  cells_x_ = std::max(1, static_cast<int>(std::ceil((hi.x - lo.x) /
                                                    region_km_)));
  cells_y_ = std::max(1, static_cast<int>(std::ceil((hi.y - lo.y) /
                                                    region_km_)));
  // Orient the tile grid along the longer cell axis so tiles stay as
  // square as the region grid allows.
  const int d = SquarestDivisor(num_shards_);
  if (cells_x_ >= cells_y_) {
    tiles_x_ = num_shards_ / d;
    tiles_y_ = d;
  } else {
    tiles_x_ = d;
    tiles_y_ = num_shards_ / d;
  }
  // Tile rectangles: the km-space union of each tile's region cells.
  // Cell (cx, cy) spans [lo + c*region, lo + (c+1)*region] per axis; the
  // ceil above lets the last cell overshoot `hi`, which only enlarges the
  // rectangle (conservative for TileDistanceKm).
  tile_min_.assign(static_cast<std::size_t>(num_shards_),
                   {kInf, kInf});
  tile_max_.assign(static_cast<std::size_t>(num_shards_),
                   {-kInf, -kInf});
  for (int cy = 0; cy < cells_y_; ++cy) {
    for (int cx = 0; cx < cells_x_; ++cx) {
      const int tcx = std::min(tiles_x_ - 1, cx * tiles_x_ / cells_x_);
      const int tcy = std::min(tiles_y_ - 1, cy * tiles_y_ / cells_y_);
      const auto s = static_cast<std::size_t>(tcy * tiles_x_ + tcx);
      tile_min_[s].x = std::min(tile_min_[s].x, lo_.x + cx * region_km_);
      tile_min_[s].y = std::min(tile_min_[s].y, lo_.y + cy * region_km_);
      tile_max_[s].x =
          std::max(tile_max_[s].x, lo_.x + (cx + 1) * region_km_);
      tile_max_[s].y =
          std::max(tile_max_[s].y, lo_.y + (cy + 1) * region_km_);
    }
  }
  shard_of_.assign(static_cast<std::size_t>(fleet_->size()), 0);
  members_.resize(static_cast<std::size_t>(num_shards_));
  min_anchor_time_.assign(static_cast<std::size_t>(num_shards_), kInf);
  mutexes_ = std::make_unique<std::mutex[]>(
      static_cast<std::size_t>(num_shards_));
  committed_epoch_.assign(static_cast<std::size_t>(num_shards_), 0);
  Rebuild();
}

void FleetShards::WaitCommitted(int s, std::uint64_t epoch) const {
  if (epoch == 0) return;  // epoch 0 is always released
  std::unique_lock<std::mutex> lock(epoch_mu_);
  if (committed_epoch_[static_cast<std::size_t>(s)] >= epoch) return;
  // Only an actual block is timed: satisfied waits stay clock-free so the
  // histogram measures commit-lock contention, not call frequency.
  obs::Inc(commit_blocking_waits_);
  const bool timed = commit_wait_hist_ != nullptr;
  const auto t0 =
      timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  epoch_cv_.wait(lock, [&] {
    return committed_epoch_[static_cast<std::size_t>(s)] >= epoch;
  });
  if (!timed) return;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  lock.unlock();  // never Observe under epoch_mu_
  commit_wait_hist_->Observe(ms);
}

void FleetShards::MarkCommitted(int s, std::uint64_t epoch) {
  {
    const std::lock_guard<std::mutex> lock(epoch_mu_);
    // Fault site: hold the epoch lock across the seeded delay, stretching
    // the exact dependency edge later windows block on in WaitCommitted.
    MaybeInject(faults_, FaultSite::kShardLockHold);
    auto& mark = committed_epoch_[static_cast<std::size_t>(s)];
    if (mark >= epoch) return;
    mark = epoch;
  }
  epoch_cv_.notify_all();
}

void FleetShards::MarkAllCommitted(std::uint64_t epoch) {
  {
    const std::lock_guard<std::mutex> lock(epoch_mu_);
    for (auto& mark : committed_epoch_) mark = std::max(mark, epoch);
  }
  epoch_cv_.notify_all();
}

std::uint64_t FleetShards::CommittedEpoch(int s) const {
  const std::lock_guard<std::mutex> lock(epoch_mu_);
  return committed_epoch_[static_cast<std::size_t>(s)];
}

void FleetShards::RegisterMetrics(obs::Registry* reg) {
  if (reg == nullptr || !reg->enabled()) return;
  commit_wait_hist_ = reg->GetHistogram("shards.commit_wait_ms");
  commit_blocking_waits_ = reg->GetCounter("shards.commit_blocking_waits");
}

int FleetShards::ShardOfPoint(const Point& p) const {
  const int cx = std::clamp(
      static_cast<int>(std::floor((p.x - lo_.x) / region_km_)), 0,
      cells_x_ - 1);
  const int cy = std::clamp(
      static_cast<int>(std::floor((p.y - lo_.y) / region_km_)), 0,
      cells_y_ - 1);
  const int tcx = std::min(tiles_x_ - 1, cx * tiles_x_ / cells_x_);
  const int tcy = std::min(tiles_y_ - 1, cy * tiles_y_ / cells_y_);
  return tcy * tiles_x_ + tcx;
}

double FleetShards::TileDistanceKm(int s, const Point& p) const {
  const auto i = static_cast<std::size_t>(s);
  const double dx =
      std::max({tile_min_[i].x - p.x, p.x - tile_max_[i].x, 0.0});
  const double dy =
      std::max({tile_min_[i].y - p.y, p.y - tile_max_[i].y, 0.0});
  return std::sqrt(dx * dx + dy * dy);
}

double FleetShards::MaxDisplacementKm(int s, double now) const {
  const double t0 = min_anchor_time_[static_cast<std::size_t>(s)];
  if (t0 == kInf) return 0.0;  // empty shard
  return std::max(0.0, now - t0) * MaxSpeedKmPerMin();
}

void FleetShards::Rebuild() {
  for (std::vector<WorkerId>& m : members_) m.clear();
  min_anchor_time_.assign(static_cast<std::size_t>(num_shards_), kInf);
  for (WorkerId w = 0; w < fleet_->size(); ++w) {
    const int s = ShardOfPoint(fleet_->anchor_point(w));
    shard_of_[static_cast<std::size_t>(w)] = s;
    members_[static_cast<std::size_t>(s)].push_back(w);
    min_anchor_time_[static_cast<std::size_t>(s)] =
        std::min(min_anchor_time_[static_cast<std::size_t>(s)],
                 fleet_->route(w).anchor_time());
  }
}

}  // namespace urpsm
