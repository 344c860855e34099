// The repository benchmark: replays one workload's request trace through
// the public Simulation API in closed loop, checks the outputs, and prints
// the end-to-end metrics (--trace 0) or the per-layer split (--trace 1).
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this binary and runs it; see perfbench/README.md.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/shortest/hub_labels.h"
#include "src/sim/dispatch_window.h"
#include "src/sim/simulator.h"
#include "src/workload/city.h"

#ifndef URPSM_PERFBENCH_BUILD_TYPE
#define URPSM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace urpsm::perfbench {
namespace {

// A replay during which the host's steal time exceeded this share of the
// replay's CPU capacity (wall time x CPUs) was slowed by other guests of
// the hypervisor, not by the engine. It is checked and counted like any
// other, but left out of the timing metrics and made up for by another
// replay, for at most kMaxMeasureFactor x --seconds of replay time in all;
// if none was undisturbed by then, the least disturbed one is timed.
constexpr double kMaxStealShare = 0.02;
constexpr double kMaxMeasureFactor = 2.5;

// Set-up is repeated at least kMinSetups times (once in the traced run,
// whose set-up metrics have no bound) and until kMinSetupSeconds of it are
// measured (at most kMaxSetups), and its median reported.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kMinSetupSeconds = 3.0;

// On a windowed workload every run also replays a prefix of the trace at
// nproc threads and at one thread and requires identical outcomes: the
// first kThreadCheckMin simulated minutes in the timed run (untimed), the
// first kSpeedupMin (the morning rush hour) in the traced run, which
// times the two replays for parallel.speedup. A whole one-thread replay
// would take longer than the timed replays.
constexpr double kThreadCheckMin = 10.0;
constexpr double kSpeedupMin = 60.0;

// Tolerance of the layer-split checks: rounding of the summed spans.
constexpr double kSplitTolerance = 1e-6;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(out->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return false;
      }
      out->trace = std::string_view(value) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty();
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// CPU time the hypervisor gave to other guests, summed over this
/// machine's CPUs (the `steal` column of /proc/stat), in seconds; 0 where
/// it is not reported.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long ticks_per_s = sysconf(_SC_CLK_TCK);
  return n == 8 && ticks_per_s > 0
             ? static_cast<double>(v[7]) / static_cast<double>(ticks_per_s)
             : 0.0;
}

struct City {
  RoadNetwork graph;
  std::unique_ptr<HubLabelOracle> labels;
  double graph_s = 0.0;
  double labels_s = 0.0;
};

std::unique_ptr<City> BuildCity(const WorkloadSpec& spec) {
  auto city = std::make_unique<City>();
  const Clock::time_point t0 = Clock::now();
  city->graph = MakeChengduLike(spec.city_scale, spec.city_seed);
  const Clock::time_point t1 = Clock::now();
  city->labels = std::make_unique<HubLabelOracle>(
      HubLabelOracle::Build(city->graph, nullptr, OracleOptions{}));
  const Clock::time_point t2 = Clock::now();
  city->graph_s = SecondsBetween(t0, t1);
  city->labels_s = SecondsBetween(t1, t2);
  return city;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run of the benchmark works on: the city, the seeded
/// inputs, and the options every replay shares.
struct Bench {
  const WorkloadSpec* spec = nullptr;
  std::unique_ptr<City> city;
  Inputs inputs;
  SimOptions options;
  PlannerConfig config;
  std::vector<double> setup_s, graph_s, labels_s;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  bool have_reference = false;
  Outcome reference;
  EarlyPickups early;

  bool windowed() const { return spec->window_s > 0.0; }

  /// Graph build + hub-label build + Simulation construction, repeated;
  /// the inputs are drawn once, after the first build (request
  /// generation is the load generator, not set-up).
  std::unique_ptr<Simulation> SetUp(std::uint64_t seed, int threads,
                                    int min_setups) {
    std::unique_ptr<Simulation> sim;
    double total_s = 0.0;
    for (int rep = 0; rep < kMaxSetups; ++rep) {
      if (rep >= min_setups && total_s >= kMinSetupSeconds) break;
      sim.reset();
      city.reset();
      city = BuildCity(*spec);
      if (rep == 0) {
        inputs = MakeInputs(*spec, city->graph, city->labels.get(), seed);
      }
      const Clock::time_point t0 = Clock::now();
      sim = MakeSim(city->labels.get(), threads);
      const double sim_s = SecondsBetween(t0, Clock::now());
      graph_s.push_back(city->graph_s);
      labels_s.push_back(city->labels_s);
      setup_s.push_back(city->graph_s + city->labels_s + sim_s);
      total_s += setup_s.back();
    }
    return sim;
  }

  std::unique_ptr<Simulation> MakeSim(DistanceOracle* oracle, int threads) {
    SimOptions o = options;
    o.num_threads = threads;
    return std::make_unique<Simulation>(&city->graph, oracle, inputs.workers,
                                        &inputs.requests, o);
  }

  PlannerFactory Untraced() const {
    return windowed() ? MakeDispatchWindowFactory(config)
                      : MakePruneGreedyDpFactory(config);
  }

  PlannerFactory Traced(LayerTrace* trace) const {
    const PlannerConfig cfg = config;
    if (windowed()) {
      return [cfg, trace](PlanningContext* ctx, Fleet* fleet) {
        return std::unique_ptr<RoutePlanner>(new TimedBatchPlanner(
            std::make_unique<DispatchWindowPlanner>(ctx, fleet, cfg,
                                                    ctx->thread_pool()),
            trace));
      };
    }
    return [cfg, trace](PlanningContext* ctx, Fleet* fleet) {
      return std::unique_ptr<RoutePlanner>(
          new TracedGreedyDpPlanner(ctx, fleet, cfg, trace));
    };
  }

  /// One full replay plus its output checks. The first replay of the run
  /// is also audited against Dijkstra and becomes the reference outcome
  /// every later replay (any thread count, traced or not) must equal.
  SimReport Replay(Simulation* sim, const PlannerFactory& factory,
                   const char* label) {
    const SimReport rep = sim->Run(factory);
    std::string failure = CheckEngine(*sim, rep, inputs.requests);
    const Outcome outcome = Outcome::Of(rep, *sim);
    if (failure.empty() && !have_reference) {
      failure = AuditRoutes(city->graph, sim->fleet(), inputs.requests, rep,
                            sim->served(), spec->alpha, &early);
      reference = outcome;
      have_reference = true;
    } else if (failure.empty() && !(outcome == reference)) {
      failure = "outcome differs from the first replay: " +
                Describe(outcome) + " vs " + Describe(reference);
    }
    attempted += rep.total_requests;
    if (failure.empty()) {
      failed += rep.dnf_requests + rep.shed_requests;
    } else {
      failed += rep.total_requests;
      failures.push_back(std::string(label) + ": " + failure);
    }
    return rep;
  }

  /// The trace's first `minutes`, replayed at `threads` and at one
  /// thread, must give identical checked outcomes. Returns the replays'
  /// wall times, {threads, 1}.
  std::array<double, 2> CheckThreadCounts(int threads, double minutes) {
    std::vector<Request> prefix;
    for (const Request& r : inputs.requests) {
      if (r.release_time >= minutes) break;
      prefix.push_back(r);
    }
    std::array<double, 2> walls{};
    std::vector<Outcome> outcomes;
    for (const int n : {threads, 1}) {
      SimOptions o = options;
      o.num_threads = n;
      Simulation sim(&city->graph, city->labels.get(), inputs.workers, &prefix,
                     o);
      const SimReport rep = sim.Run(Untraced());
      const std::string failure = CheckEngine(sim, rep, prefix);
      attempted += rep.total_requests;
      if (!failure.empty()) {
        failed += rep.total_requests;
        failures.push_back("prefix replay at " + std::to_string(n) +
                           " thread(s): " + failure);
        return walls;
      }
      failed += rep.dnf_requests + rep.shed_requests;
      walls[outcomes.size()] = rep.wall_seconds;
      outcomes.push_back(Outcome::Of(rep, sim));
    }
    std::printf("thread-count check: first %.0f min (%zu requests) identical "
                "at %d and 1 thread(s): %s; wall %.3f s and %.3f s\n",
                minutes, prefix.size(), threads,
                outcomes[0] == outcomes[1] ? "yes" : "NO", walls[0], walls[1]);
    if (!(outcomes[0] == outcomes[1])) {
      failed += static_cast<std::int64_t>(prefix.size());
      failures.push_back("prefix outcome differs between " +
                         std::to_string(threads) + " and 1 thread(s): " +
                         Describe(outcomes[0]) + " vs " +
                         Describe(outcomes[1]));
    }
    return walls;
  }
};

void PrintResult(const Bench& b, const std::vector<Metric>& metrics) {
  for (const std::string& f : b.failures) {
    std::printf("CHECK FAILED %s\n", f.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              b.failures.empty() ? "true" : "false",
              static_cast<long long>(b.attempted),
              static_cast<long long>(b.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Timing figures of the replays of one run. Latency samples are pooled:
/// on rush_window a replay holds ~1,200 windows, and its p99 rests on the
/// few slowest, so a per-replay p99 swings with single scheduling stalls.
struct Timings {
  std::vector<double> rates;
  StatsAccumulator latency;

  void Add(const SimReport& rep) {
    rates.push_back(Ratio(rep.processed_requests, rep.wall_seconds));
    latency.Merge(rep.response_stats);
  }
};

/// --trace 0: replays until `seconds` of replay wall time undisturbed by
/// the host are measured (see kMaxStealShare), then, on a windowed
/// workload, the thread-count check.
std::vector<Metric> RunEndToEnd(Bench* b, Simulation* sim, double seconds,
                                int threads) {
  const double cpus = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  Timings kept, least_stolen;
  double least_share = kInf;
  double clean = 0.0;
  double measured = 0.0;
  int replays = 0;
  const PlannerFactory factory = b->Untraced();
  std::printf("replay req/s (host steal s):");
  do {
    const double steal0 = StealSeconds();
    const SimReport rep = b->Replay(sim, factory, "replay");
    const double share =
        (StealSeconds() - steal0) / (rep.wall_seconds * cpus);
    measured += rep.wall_seconds;
    ++replays;
    const bool disturbed = share > kMaxStealShare;
    if (!disturbed) {
      clean += rep.wall_seconds;
      kept.Add(rep);
    }
    if (share < least_share) {
      least_share = share;
      least_stolen = Timings();
      least_stolen.Add(rep);
    }
    std::printf(" %.1f (%.2f%s)", Ratio(rep.processed_requests,
                                        rep.wall_seconds),
                share * rep.wall_seconds * cpus,
                disturbed ? ", left out" : "");
  } while (clean < seconds && measured < kMaxMeasureFactor * seconds);
  std::printf("\n");
  // Read before the check's extra simulations exist.
  const double peak_rss_mb = PeakRssMb();
  if (b->windowed()) b->CheckThreadCounts(threads, kThreadCheckMin);
  // A host that steals throughout leaves nothing undisturbed: then the
  // least disturbed replay counts.
  const Timings& t = kept.rates.empty() ? least_stolen : kept;
  const Outcome& o = b->reference;
  std::printf("replays %d (%zu timed), plan latency samples %zu, requests "
              "per replay %zu, served %d, rejected %d, shed %d, dnf %d\n",
              replays, t.rates.size(), t.latency.count(),
              b->inputs.requests.size(), o.served, o.rejected, o.shed, o.dnf);
  std::printf("error_rate (dnf + shed + failed checks) / attempted = %.6f\n",
              Ratio(static_cast<double>(b->failed),
                    static_cast<double>(b->attempted)));
  return {
      {"req_per_s", Median(t.rates), "1/s"},
      {"plan_p50_ms", t.latency.Percentile(50), "ms"},
      {"plan_p99_ms", t.latency.Percentile(99), "ms"},
      {"served_rate",
       Ratio(o.served, static_cast<double>(b->inputs.requests.size())),
       "ratio"},
      {"unified_cost", o.unified_cost, "cost"},
      {"setup_s", Median(b->setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// Per-replay layer figures of one traced replay.
struct LayerSplit {
  std::array<double, kNumSpans> self_s{};
  double label_s = 0.0;           // all threads
  double label_critical_s = 0.0;  // charged to the driver's spans
  std::int64_t label_queries = 0;
  double unattributed_s = 0.0;
  double wall_s = 0.0;
};

LayerSplit Split(const LayerTrace& t, const TimedOracle::Totals& oracle,
                 double wall_s) {
  LayerSplit s;
  s.wall_s = wall_s;
  for (int k = 0; k < kNumSpans; ++k) {
    s.label_s += oracle.seconds[k];
    s.label_queries += oracle.queries[k];
    if (k != kPool) s.label_critical_s += oracle.seconds[k];
  }
  double children = 0.0;
  for (const int k : {kDirect, kFilter, kTouch, kScan, kDecision, kApply}) {
    s.self_s[k] = t.span_s[k] - oracle.seconds[k];
    children += t.span_s[k];
  }
  s.self_s[kWindow] = t.span_s[kWindow] - oracle.seconds[kWindow];
  s.unattributed_s = t.span_s[kRequest] - children - oracle.seconds[kRequest];
  s.self_s[kLoop] = wall_s - t.span_s[kRequest] - t.span_s[kWindow] -
                    oracle.seconds[kLoop];
  return s;
}

/// The parts of a split add up to its wall by construction, so that sum
/// cannot catch a fault. What can: a part that came out negative (label
/// time charged twice, spans that overlap or outlast the replay), or more
/// driver-thread label time than the spans enclosing it (loop + request +
/// window = the wall). "" when the split is sound.
std::string CheckSplit(const LayerSplit& s) {
  static constexpr const char* kNames[kNumSpans] = {
      "loop", "request", "direct", "filter", "touch",
      "scan", "decision", "apply", "window", "pool"};
  const double eps = kSplitTolerance * (1.0 + s.wall_s);
  char buf[160];
  for (int k = 0; k < kNumSpans; ++k) {
    if (s.self_s[k] < -eps) {
      std::snprintf(buf, sizeof(buf), "layer split: %s self time %.9f s < 0",
                    kNames[k], s.self_s[k]);
      return buf;
    }
  }
  if (s.unattributed_s < -eps) {
    std::snprintf(buf, sizeof(buf), "layer split: unattributed %.9f s < 0",
                  s.unattributed_s);
    return buf;
  }
  if (s.label_critical_s > s.wall_s + eps) {
    std::snprintf(buf, sizeof(buf),
                  "layer split: driver label time %.6f s > traced wall %.6f s",
                  s.label_critical_s, s.wall_s);
    return buf;
  }
  return "";
}

/// --trace 1: alternates untraced and traced replays until `seconds` of
/// replay wall time are measured, then, on a windowed workload, times the
/// thread-count check for parallel.speedup.
std::vector<Metric> RunTraced(Bench* b, Simulation* sim, double seconds,
                              int threads) {
  TimedOracle timed(b->city->labels.get());
  std::unique_ptr<Simulation> traced_sim = b->MakeSim(&timed, threads);
  const PlannerFactory untraced = b->Untraced();

  std::vector<double> wall_untraced, wall_traced;
  LayerTrace trace;  // the last traced replay's counts (identical each time)
  LayerSplit sum;
  std::int64_t billed_queries = 0;
  double measured = 0.0;
  int rounds = 0;
  do {
    const SimReport u = b->Replay(sim, untraced, "untraced replay");
    wall_untraced.push_back(u.wall_seconds);

    trace = LayerTrace();
    timed.Reset();
    current_span = kLoop;
    const SimReport t =
        b->Replay(traced_sim.get(), b->Traced(&trace), "traced replay");
    current_span = kPool;
    wall_traced.push_back(t.wall_seconds);
    billed_queries = t.distance_queries;
    const LayerSplit s = Split(trace, timed.Collect(), t.wall_seconds);
    const std::string split_failure = CheckSplit(s);
    if (!split_failure.empty()) {
      b->failures.push_back(split_failure);
      b->failed += t.total_requests;
    }
    for (int k = 0; k < kNumSpans; ++k) sum.self_s[k] += s.self_s[k];
    sum.label_s += s.label_s;
    sum.label_critical_s += s.label_critical_s;
    sum.label_queries = s.label_queries;
    sum.unattributed_s += s.unattributed_s;
    sum.wall_s += s.wall_s;
    measured += u.wall_seconds + t.wall_seconds;
    ++rounds;
  } while (measured < seconds);
  const std::array<double, 2> walls =
      b->windowed() ? b->CheckThreadCounts(threads, kSpeedupMin)
                    : std::array<double, 2>{};

  const double n = rounds;
  auto self = [&](int k) { return sum.self_s[k] / n; };
  // The split of the driver thread's timeline, for display (CheckSplit
  // checked each replay's). Label time charged to pool threads overlaps
  // it and is reported beside it.
  double parts = sum.label_critical_s + sum.unattributed_s;
  for (int k = 0; k < kNumSpans; ++k) parts += sum.self_s[k];
  std::printf("traced rounds %d, threads %d\n", rounds, threads);
  std::printf("split (per replay): loop %.4f + direct %.4f + filter %.4f + "
              "touch %.4f + scan %.4f + decision %.4f + apply %.4f + "
              "window %.4f + labels %.4f + unattributed %.4f = %.4f s; "
              "traced wall %.4f s\n",
              self(kLoop), self(kDirect), self(kFilter), self(kTouch),
              self(kScan), self(kDecision), self(kApply), self(kWindow),
              sum.label_critical_s / n, sum.unattributed_s / n, parts / n,
              sum.wall_s / n);

  const City& c = *b->city;
  const double label_s = sum.label_s / n;
  const auto q = static_cast<double>(sum.label_queries);
  return {
      {"graph.build_s", Median(b->graph_s), "s"},
      {"shortest.build_s", Median(b->labels_s), "s"},
      {"shortest.label_entries_per_vertex", c.labels->average_label_size(),
       "count"},
      {"shortest.label_mb",
       static_cast<double>(c.labels->MemoryBytes()) / (1024.0 * 1024.0),
       "MB"},
      {"shortest.queries", static_cast<double>(billed_queries), "count"},
      {"shortest.label_queries", q, "count"},
      {"shortest.cache_hit_ratio",
       billed_queries > 0 ? 1.0 - q / static_cast<double>(billed_queries)
                          : 0.0,
       "ratio"},
      {"shortest.label_busy_s", label_s, "s"},
      {"shortest.ns_per_label_query", Ratio(label_s * 1e9, q), "ns"},
      {"index.filter_s", self(kFilter), "s"},
      {"index.candidates_per_req",
       Ratio(static_cast<double>(trace.candidates),
             static_cast<double>(trace.requests)),
       "count"},
      {"core.scan_s", self(kScan), "s"},
      {"core.decision_s", self(kDecision), "s"},
      {"core.reject_ratio",
       Ratio(static_cast<double>(trace.scan_rejects),
             static_cast<double>(trace.scan_calls)),
       "ratio"},
      {"core.dp_eval_ratio",
       Ratio(static_cast<double>(trace.evals),
             static_cast<double>(trace.scan_candidates)),
       "ratio"},
      {"insertion.evals",
       static_cast<double>(b->windowed() ? trace.dispatch_evals : trace.evals),
       "count"},
      {"model.candidate_route_stops",
       Ratio(static_cast<double>(trace.route_stops),
             static_cast<double>(trace.scan_candidates)),
       "count"},
      {"sim.direct_s", self(kDirect), "s"},
      {"sim.touch_s", self(kTouch), "s"},
      {"sim.apply_s", self(kApply), "s"},
      {"sim.loop_s", self(kLoop), "s"},
      {"dispatch.plan_s", self(kWindow), "s"},
      {"dispatch.windows", static_cast<double>(trace.windows), "count"},
      {"dispatch.batch_mean",
       Ratio(static_cast<double>(trace.window_members),
             static_cast<double>(trace.windows)),
       "count"},
      {"dispatch.window_p50_ms", trace.window_ms.Percentile(50), "ms"},
      {"dispatch.window_p99_ms", trace.window_ms.Percentile(99), "ms"},
      {"dispatch.evals", static_cast<double>(trace.dispatch_evals), "count"},
      {"dispatch.memo_hit_ratio",
       Ratio(static_cast<double>(trace.memo_hits),
             static_cast<double>(trace.memo_hits + trace.memo_misses)),
       "ratio"},
      {"dispatch.replans", static_cast<double>(trace.replans), "count"},
      {"parallel.speedup", Ratio(walls[1], walls[0]), "ratio"},
      {"trace.overhead_ratio",
       Median(wall_traced) / Median(wall_untraced) - 1.0, "ratio"},
      {"trace.unattributed_s", sum.unattributed_s / n, "s"},
      {"trace.wall_s", sum.wall_s / n, "s"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: urpsm_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int nproc = Nproc();
  const int threads = spec->window_s > 0.0 ? nproc : 1;

  Bench b;
  b.spec = spec;
  b.options.alpha = spec->alpha;
  b.options.batch_window_s = spec->window_s;
  b.config.alpha = spec->alpha;
  std::unique_ptr<Simulation> sim =
      b.SetUp(args.seed, threads, args.trace ? 1 : kMinSetups);

  std::printf("build compiler=\"%s\" build_type=%s nproc=%d\n", __VERSION__,
              URPSM_PERFBENCH_BUILD_TYPE, nproc);
  std::printf("workload %s seed %llu: %d vertices, %d workers, %zu requests, "
              "window %.0f s, %d thread(s), label entries/vertex %.1f\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              b.city->graph.num_vertices(), spec->workers,
              b.inputs.requests.size(), spec->window_s, threads,
              b.city->labels->average_label_size());

  const std::vector<Metric> metrics =
      args.trace ? RunTraced(&b, sim.get(), args.seconds, threads)
                 : RunEndToEnd(&b, sim.get(), args.seconds, threads);
  std::printf("audit {\"early_pickups\": %lld, "
              "\"early_pickup_max_lead_min\": %.6f}\n",
              static_cast<long long>(b.early.pickups), b.early.max_min);
  PrintResult(b, metrics);
  return b.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace urpsm::perfbench

int main(int argc, char** argv) { return urpsm::perfbench::Main(argc, argv); }
