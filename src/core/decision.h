#ifndef URPSM_SRC_CORE_DECISION_H_
#define URPSM_SRC_CORE_DECISION_H_

#include <vector>

#include "src/model/feasibility.h"
#include "src/model/route.h"
#include "src/model/types.h"

namespace urpsm {

/// A worker together with the decision-phase lower bound on its minimal
/// insertion cost for the current request.
struct WorkerBound {
  WorkerId worker = kInvalidWorker;
  double lower_bound = kInf;
};

/// LB(Delta*) of Sec. 5.1 (Lemma 7, Eq. 15-17): a lower bound on the
/// minimal increased distance of inserting `r` into `route`, computed with
/// Euclidean travel-time lower bounds and the route's cached schedule.
///
/// Issues **zero** shortest-distance queries: the caller supplies
/// L = dis(o_r, d_r) (the decision phase's single query, shared across all
/// workers). Returns kInf when even the relaxed feasibility checks fail —
/// in that case the exact insertion is provably infeasible too.
double DecisionLowerBound(const Worker& worker, const Route& route,
                          const RouteState& st, const Request& r, double L,
                          const RoadNetwork& graph);

/// DecisionLowerBound of a worker whose route has no pending stops, in
/// closed form: the Lemma 7 DP at n == 0 has the single placement
/// "pick up and drop off right after the anchor", so the bound is
/// euc(anchor, o_r) / v_max + L when that placement meets the deadline
/// (kInf otherwise, or when K_r exceeds the worker's capacity). Needs no
/// RouteState — O(1) per idle candidate — and evaluates the DP's own
/// expressions in the DP's order, so it is bit-identical to
/// DecisionLowerBound on the route's fresh state (decision_test fuzzes
/// the pair, kInf included). `route` must be empty.
double IdleDecisionLowerBound(const Worker& worker, const Route& route,
                              const Request& r, double L,
                              const RoadNetwork& graph);

/// Batched decision phase: lower bounds for every candidate (worker,
/// state) pair of ONE request, gathering all per-candidate Euclidean bound
/// columns in a single pass over the concatenated route-state coordinate
/// arrays before running the DP per candidate. out[i] is bit-identical to
/// DecisionLowerBound(workers[i], ..., states[i], r, L, graph) — the
/// element arithmetic and the DP are shared, only the gather is fused.
void BatchDecisionLowerBounds(const std::vector<const Worker*>& workers,
                              const std::vector<const RouteState*>& states,
                              const Request& r, double L,
                              const RoadNetwork& graph,
                              std::vector<double>* out);

/// Reference implementation computing every Euclidean bound on demand
/// with per-position calls into the graph (the pre-column code path).
/// DecisionLowerBound gathers the same bounds as two flat per-request
/// columns over RouteState::pts first — identical arithmetic per element,
/// so the two are bit-identical (asserted by decision_test's fuzz;
/// bench_hotpath times both as the before/after).
double DecisionLowerBoundReference(const Worker& worker, const Route& route,
                                   const RouteState& st, const Request& r,
                                   double L, const RoadNetwork& graph);

}  // namespace urpsm

#endif  // URPSM_SRC_CORE_DECISION_H_
