#include "src/core/decision.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace urpsm {

namespace {

/// The DP of Lemma 7 / Eq. 15-17 over precomputed per-position Euclidean
/// bound columns: euc_o[k] / euc_d[k] bound the travel time from route
/// position k to the request's origin / destination. Mirrors
/// DecisionLowerBoundReference below statement for statement — only the
/// bound *evaluations* differ (column reads vs on-demand lambda calls),
/// and the element arithmetic is identical, so the results are bit-equal
/// (decision_test fuzz-pins the pair).
double DecisionDp(const RouteState& st, const Request& r, double L, int cap,
                  const double* euc_o, const double* euc_d) {
  const int n = st.n;
  const auto leg = [&](int k) {
    return st.arr[static_cast<std::size_t>(k + 1)] -
           st.arr[static_cast<std::size_t>(k)];
  };

  double best = kInf;
  double dio = kInf;  // Dio_euc[j] of Eq. (16)

  for (int j = 0; j <= n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (st.arr[js] > r.deadline) break;  // exact arrival: safe cutoff

    // Cases i == j (first two branches of Eq. 17).
    if (st.picked[js] <= cap && st.arr[js] + euc_o[j] + L <= r.deadline) {
      const double lb = (j == n) ? euc_o[j] + L
                                 : euc_o[j] + L + euc_d[j + 1] - leg(j);
      if ((j == n || lb <= st.slack[js]) && lb < best) best = lb;
    }

    // General case i < j (third branch of Eq. 17).
    if (j > 0 && dio < kInf && st.picked[js] <= cap) {
      const double ldet_d =
          (j == n) ? euc_d[j] : euc_d[j] + euc_d[j + 1] - leg(j);
      const bool ddl_ok = st.arr[js] + dio + euc_d[j] <= r.deadline;
      const bool slack_ok = j == n || dio + ldet_d <= st.slack[js];
      if (ddl_ok && slack_ok) best = std::min(best, dio + ldet_d);
    }

    // Transition of Eq. (16).
    if (j < n) {
      if (st.picked[js] > cap) {
        dio = kInf;
      } else {
        const double ldet = euc_o[j] + euc_o[j + 1] - leg(j);
        if (ldet <= st.slack[js]) dio = std::min(dio, ldet);
      }
    }
  }
  // Delta* >= 0 always (detours are non-negative in a metric), so clamping
  // tightens the bound without invalidating it.
  return best == kInf ? kInf : std::max(0.0, best);
}

}  // namespace

// Mirrors LinearDpInsertion with every network distance that would need a
// query replaced by its Euclidean travel-time lower bound, and every leg
// distance taken from the schedule (arr[k+1] - arr[k], Lemma 7). All
// feasibility filters are *relaxations* of the exact ones (lower-bound
// distances make deadline/slack checks easier to pass), so the minimum is
// taken over a superset of the exact feasible placements with
// value-wise-smaller costs — a valid lower bound on Delta*.
//
// The Euclidean bounds are gathered ONCE per (route, request) as two flat
// columns over the route-state coordinate array — one tight pass instead
// of the reference's ~5 on-demand evaluations per position (each lambda
// call recomputed its hypot) — and only up to the deadline cutoff the DP
// loop would reach anyway. Element-wise the arithmetic is exactly
// EuclideanLowerBoundMin, so the result is bit-identical to the
// reference.
double DecisionLowerBound(const Worker& worker, const Route& route,
                          const RouteState& st, const Request& r, double L,
                          const RoadNetwork& graph) {
  (void)route;
  const int n = st.n;
  const int cap = worker.capacity - r.capacity;
  if (cap < 0) return kInf;

  // Gather limit: the DP breaks at the first j with arr[j] > deadline and
  // touches columns only up to index j (via j-1's j+1 accesses).
  int m = n;
  for (int k = 0; k <= n; ++k) {
    if (st.arr[static_cast<std::size_t>(k)] > r.deadline) {
      m = k;
      break;
    }
  }

  const Point origin = graph.coord(r.origin);
  const Point dest = graph.coord(r.destination);
  const double vmax = MaxSpeedKmPerMin();
  thread_local std::vector<double> o_col;
  thread_local std::vector<double> d_col;
  o_col.resize(static_cast<std::size_t>(m) + 1);
  d_col.resize(static_cast<std::size_t>(m) + 1);
  for (int k = 0; k <= m; ++k) {
    // Same expression as EuclideanLowerBoundMin element-wise (divide, not
    // multiply-by-reciprocal) — the bit-identity with the reference
    // depends on it.
    const Point& p = st.pts[static_cast<std::size_t>(k)];
    o_col[static_cast<std::size_t>(k)] = EuclideanDistance(p, origin) / vmax;
    d_col[static_cast<std::size_t>(k)] = EuclideanDistance(p, dest) / vmax;
  }
  return DecisionDp(st, r, L, cap, o_col.data(), d_col.data());
}

// DecisionDp at n == 0, written out: j = 0 is the only position, picked[0]
// is 0 (nothing on board), arr[0] is the anchor time and pts[0] the anchor
// coordinate; the i < j case and the transition never run.
double IdleDecisionLowerBound(const Worker& worker, const Route& route,
                              const Request& r, double L,
                              const RoadNetwork& graph) {
  assert(route.empty());
  if (worker.capacity - r.capacity < 0) return kInf;
  const double t0 = route.anchor_time();
  if (t0 > r.deadline) return kInf;  // the DP's arrival cutoff at j = 0
  // Same expression as the column gather (divide, not multiply-by-
  // reciprocal) — the bit-identity depends on it.
  const double eo =
      EuclideanDistance(graph.coord(route.anchor()), graph.coord(r.origin)) /
      MaxSpeedKmPerMin();
  if (!(t0 + eo + L <= r.deadline)) return kInf;
  // (An infinite eo + L fails the DP's `lb < best` and returns kInf there;
  // the clamp returns the same kInf here.)
  return std::max(0.0, eo + L);
}

void BatchDecisionLowerBounds(const std::vector<const Worker*>& workers,
                              const std::vector<const RouteState*>& states,
                              const Request& r, double L,
                              const RoadNetwork& graph,
                              std::vector<double>* out) {
  const std::size_t nc = workers.size();
  out->resize(nc);

  const Point origin = graph.coord(r.origin);
  const Point dest = graph.coord(r.destination);
  const double vmax = MaxSpeedKmPerMin();

  // Per-candidate gather limit (same rule as DecisionLowerBound), with the
  // columns of all candidates laid out back to back in one flat buffer —
  // one tight gather loop for the whole candidate set.
  thread_local std::vector<std::size_t> offset;
  thread_local std::vector<int> limit;
  thread_local std::vector<double> o_col;
  thread_local std::vector<double> d_col;
  offset.resize(nc + 1);
  limit.resize(nc);
  offset[0] = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    const RouteState& st = *states[c];
    int m = st.n;
    for (int k = 0; k <= st.n; ++k) {
      if (st.arr[static_cast<std::size_t>(k)] > r.deadline) {
        m = k;
        break;
      }
    }
    const bool skip = workers[c]->capacity - r.capacity < 0;
    limit[c] = skip ? -1 : m;  // infeasible capacity gathers nothing
    offset[c + 1] = offset[c] + (skip ? 0 : static_cast<std::size_t>(m) + 1);
  }
  o_col.resize(offset[nc]);
  d_col.resize(offset[nc]);
  for (std::size_t c = 0; c < nc; ++c) {
    const RouteState& st = *states[c];
    double* oc = o_col.data() + offset[c];
    double* dc = d_col.data() + offset[c];
    for (int k = 0; k <= limit[c]; ++k) {
      // Same expression as DecisionLowerBound's gather element-wise — the
      // bit-identity depends on it.
      const Point& p = st.pts[static_cast<std::size_t>(k)];
      oc[k] = EuclideanDistance(p, origin) / vmax;
      dc[k] = EuclideanDistance(p, dest) / vmax;
    }
  }

  for (std::size_t c = 0; c < nc; ++c) {
    if (limit[c] < 0) {
      (*out)[c] = kInf;
      continue;
    }
    const int cap = workers[c]->capacity - r.capacity;
    (*out)[c] = DecisionDp(*states[c], r, L, cap, o_col.data() + offset[c],
                           d_col.data() + offset[c]);
  }
}

// The pre-column code path, verbatim: every Euclidean bound is an
// on-demand lambda call into the graph, re-evaluated at each use (the DP
// touches most positions ~5 times), and route positions resolve through
// VertexAt's stop-list indirection. Kept as-is — NOT routed through
// DecisionDp — so bench_hotpath's before/after really measures the
// historical cost profile; the element arithmetic is identical, so the
// result is still bit-equal to the column path (fuzz-pinned).
double DecisionLowerBoundReference(const Worker& worker, const Route& route,
                                   const RouteState& st, const Request& r,
                                   double L, const RoadNetwork& graph) {
  const int n = st.n;
  const int cap = worker.capacity - r.capacity;
  if (cap < 0) return kInf;

  const auto euc_o = [&](int k) {
    return graph.EuclideanLowerBoundMin(route.VertexAt(k), r.origin);
  };
  const auto euc_d = [&](int k) {
    return graph.EuclideanLowerBoundMin(route.VertexAt(k), r.destination);
  };
  const auto leg = [&](int k) {
    return st.arr[static_cast<std::size_t>(k + 1)] -
           st.arr[static_cast<std::size_t>(k)];
  };

  double best = kInf;
  double dio = kInf;  // Dio_euc[j] of Eq. (16)

  for (int j = 0; j <= n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (st.arr[js] > r.deadline) break;  // exact arrival: safe cutoff

    // Cases i == j (first two branches of Eq. 17).
    if (st.picked[js] <= cap && st.arr[js] + euc_o(j) + L <= r.deadline) {
      const double lb = (j == n) ? euc_o(j) + L
                                 : euc_o(j) + L + euc_d(j + 1) - leg(j);
      if ((j == n || lb <= st.slack[js]) && lb < best) best = lb;
    }

    // General case i < j (third branch of Eq. 17).
    if (j > 0 && dio < kInf && st.picked[js] <= cap) {
      const double ldet_d =
          (j == n) ? euc_d(j) : euc_d(j) + euc_d(j + 1) - leg(j);
      const bool ddl_ok = st.arr[js] + dio + euc_d(j) <= r.deadline;
      const bool slack_ok = j == n || dio + ldet_d <= st.slack[js];
      if (ddl_ok && slack_ok) best = std::min(best, dio + ldet_d);
    }

    // Transition of Eq. (16).
    if (j < n) {
      if (st.picked[js] > cap) {
        dio = kInf;
      } else {
        const double ldet = euc_o(j) + euc_o(j + 1) - leg(j);
        if (ldet <= st.slack[js]) dio = std::min(dio, ldet);
      }
    }
  }
  return best == kInf ? kInf : std::max(0.0, best);
}

}  // namespace urpsm
