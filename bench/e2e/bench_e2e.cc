// bench_e2e — one benchmark from workflow to served requests.
//
// Every workload runs the whole Chiron pipeline through its public API:
// eight deploys of the workload's workflows (profile -> Predictor -> PGP
// -> codegen, paper Fig. 9), then the round-0 plan(s) serve open-loop
// simulated traffic on a ClusterSimulator.
//
//   untraced pass (--trace 0): repeats set-up + pipeline for --seconds and
//     reports the end-to-end metrics (host times as the fastest
//     repetition, model outputs);
//   traced pass (--trace 1): calls each layer's public functions one at a
//     time inside obs::Tracer spans opened here, reads the counters the
//     APIs already return, reports per-layer metrics, and checks that the
//     decomposition computes exactly what the pipeline computes.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics} with the metrics BENCHMARK.json bounds; --out-dir also keeps a
// run record with every metric and build/host provenance for compare.py.
// README.md documents workloads, metrics and bounds.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/chiron.h"
#include "core/generator.h"
#include "core/pgp.h"
#include "core/plan_io.h"
#include "core/predictor.h"
#include "core/profiler.h"
#include "metrics/stats.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "platform/cluster.h"
#include "platform/plan_backend.h"
#include "platform/systems.h"
#include "workflow/arrivals.h"
#include "workflow/benchmarks.h"

#ifndef CHIRON_E2E_BUILD_TYPE
#define CHIRON_E2E_BUILD_TYPE "unknown"
#endif
#ifndef CHIRON_E2E_FLAGS
#define CHIRON_E2E_FLAGS "unknown"
#endif

namespace {

using namespace chiron;
using Clock = std::chrono::steady_clock;

/// The seed expected.json was recorded at.
constexpr std::uint64_t kDefaultSeed = 1;
/// Deploys per pipeline repetition in every workload: one round of the
/// eight-workflow suite, or eight rounds of a single workflow.
constexpr std::size_t kDeploysPerRep = 8;
/// Live backend runs sampled into a workload's replay tables, split evenly
/// across its served plans.
constexpr std::size_t kReplayEntries = 4096;
/// Unloaded backend runs behind predictor.error_pct (Fig. 12).
constexpr int kErrorRuns = 200;
/// Repetitions (each a set-up plus a pipeline) measured even when --seconds
/// is shorter than that.
constexpr std::size_t kMinReps = 3;
/// Salts separating the replay-table and error-run draws from the seed.
constexpr std::uint64_t kReplaySalt = 0x5E1A7AB1Eull;
constexpr std::uint64_t kErrorSalt = 0xE7707ull;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// Serves a plan by replaying service times sampled once from its live
/// WrapPlanBackend, so the serving loop — not the GIL timeline — is what a
/// replayed workload measures.
class ReplayBackend : public Backend {
 public:
  ReplayBackend(const Backend& live, std::size_t entries, Rng rng)
      : usage_(live.resources()), table_(entries) {
    for (TimeMs& t : table_) t = live.run(rng).e2e_latency_ms;
  }
  std::string name() const override { return "replay"; }
  RunResult run(Rng& rng) const override {
    RunResult r;
    r.e2e_latency_ms = table_[rng.below(table_.size())];
    return r;
  }
  ResourceUsage resources() const override { return usage_; }

 private:
  ResourceUsage usage_;
  std::vector<TimeMs> table_;
};

/// Timing decorator: forwards to `inner` and accumulates calls and busy
/// time in per-thread cache-line-padded slots, so the window workers of a
/// parallel serve never contend on one counter.
class TimedBackend : public Backend {
 public:
  explicit TimedBackend(const Backend& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  RunResult run(Rng& rng) const override {
    const Clock::time_point start = Clock::now();
    RunResult result = inner_.run(rng);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count();
    Slot& slot = slots_[slot_index()];
    slot.calls.fetch_add(1, std::memory_order_relaxed);
    slot.ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    return result;
  }
  ResourceUsage resources() const override { return inner_.resources(); }

  std::uint64_t calls() const {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.calls.load(std::memory_order_relaxed);
    return total;
  }
  double busy_ms() const {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.ns.load(std::memory_order_relaxed);
    return static_cast<double>(total) / 1e6;
  }

 private:
  static constexpr std::size_t kSlots = 64;
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  static std::size_t slot_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index =
        next.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return index;
  }

  const Backend& inner_;
  mutable std::array<Slot, kSlots> slots_;
};

// ---------------------------------------------------------------------------
// Workloads and their set-up
// ---------------------------------------------------------------------------

enum class WorkloadId { kDeploySuite, kEngine1Node, kFleetFinra100, kFaults8Node };

constexpr std::array<WorkloadId, 4> kWorkloads = {
    WorkloadId::kDeploySuite, WorkloadId::kEngine1Node,
    WorkloadId::kFleetFinra100, WorkloadId::kFaults8Node};

const char* workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kDeploySuite: return "deploy_suite";
    case WorkloadId::kEngine1Node: return "engine_1node";
    case WorkloadId::kFleetFinra100: return "fleet_finra100";
    case WorkloadId::kFaults8Node: return "faults_8node";
  }
  return "?";
}

bool parse_workload(const std::string& name, WorkloadId& out) {
  for (WorkloadId id : kWorkloads) {
    if (name == workload_name(id)) {
      out = id;
      return true;
    }
  }
  return false;
}

/// One plan the workload serves: its round-0 deployment, the backend that
/// serves it, and the traffic it serves.
struct ServedPlan {
  std::size_t workflow = 0;  ///< index into Setup::workflows
  Deployment deployment;
  std::unique_ptr<WrapPlanBackend> live;
  std::unique_ptr<ReplayBackend> replay;  ///< null: serve on `live`
  ClusterConfig config;

  const Backend& backend() const {
    return replay ? static_cast<const Backend&>(*replay) : *live;
  }
};

struct Setup {
  std::uint64_t seed = kDefaultSeed;
  std::size_t threads = 1;         ///< T = min(4, nproc)
  std::size_t deploy_threads = 1;  ///< PGP pool size of the pipeline deploys
  std::size_t rounds = 1;          ///< deploy rounds per repetition
  std::vector<Workflow> workflows;
  std::vector<TimeMs> slos;
  std::vector<ServedPlan> served;
  /// Always-on telemetry of faults_8node (null elsewhere).
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::FlightRecorder> recorder;
};

const RuntimeParams& params() { return RuntimeParams::defaults(); }

ChironConfig chiron_config(const Setup& s, std::size_t round) {
  ChironConfig config;
  config.params = params();
  config.deploy_threads = s.deploy_threads;
  config.seed = s.seed + round;
  return config;
}

/// The PgpConfig Chiron::deploy builds for a native-mode deploy.
PgpConfig pgp_config(const ChironConfig& cc, const Workflow& wf,
                     std::size_t threads) {
  PgpConfig config;
  config.params = cc.params;
  config.mode = cc.mode;
  config.runtime =
      wf.function_count() > 0 ? wf.function(0).runtime : Runtime::kPython3;
  config.conservative_factor = cc.conservative_factor;
  config.use_kl = cc.use_kl;
  config.deploy_threads = threads;
  config.prediction_cache = cc.prediction_cache;
  return config;
}

/// Builds the workload's inputs from `seed`. `scale` divides the simulated
/// horizons (1 = full size; the smoke test uses 100).
///
/// Each repetition is sized to take about a second or less, so a run
/// measures tens of repetitions and can report its fastest: one long batch
/// per run would leave a single noisy sample on a shared host.
Setup make_setup(WorkloadId id, std::uint64_t seed, std::size_t threads,
                 std::size_t scale) {
  Setup s;
  s.seed = seed;
  s.threads = threads;
  const double horizon_scale = 1.0 / static_cast<double>(scale);

  ClusterConfig traffic;
  traffic.seed = seed;
  traffic.faults.seed = seed;
  switch (id) {
    case WorkloadId::kDeploySuite:
      // Deploy-bound, on the deploy thread pool. Every deployed plan then
      // serves replayed validation traffic on one node, which costs a few
      // percent of the repetition.
      s.workflows = evaluation_suite();
      s.deploy_threads = threads;
      traffic.offered_rps = 10.0;
      traffic.horizon_ms = 1000e3 * horizon_scale;
      break;
    case WorkloadId::kEngine1Node:
      s.workflows = {make_social_network()};
      traffic.offered_rps = 1200.0;
      traffic.horizon_ms = 1000e3 * horizon_scale;
      break;
    case WorkloadId::kFleetFinra100:
      // The one workload on a live backend: every request simulates the
      // plan's GIL timeline.
      s.workflows = {make_finra(100)};
      traffic.nodes = 32;
      traffic.router = RouterPolicy::kRoundRobin;
      traffic.sim_threads = threads;
      traffic.offered_rps = 960.0;
      traffic.horizon_ms = 15e3 * horizon_scale;
      break;
    case WorkloadId::kFaults8Node:
      s.workflows = {make_social_network()};
      traffic.nodes = 8;
      traffic.router = RouterPolicy::kWarmAffinity;
      traffic.sim_threads = threads;
      traffic.arrivals = ArrivalKind::kBurst;
      traffic.offered_rps = 4800.0;
      traffic.horizon_ms = 100e3 * horizon_scale;
      traffic.keep_alive_ms = 1000.0;
      traffic.faults.cold_start_failure = 0.02;
      traffic.faults.crash = 0.02;
      traffic.faults.node_crash = 0.25;
      // Enough attempts that no request is dropped: the workload measures
      // the recovery paths, not lost requests.
      traffic.retry.max_attempts = 6;
      traffic.retry.timeout_ms = 1000.0;
      s.metrics = std::make_unique<obs::MetricsRegistry>();
      s.recorder = std::make_unique<obs::FlightRecorder>(65536);
      s.recorder->set_enabled(true);
      traffic.metrics = s.metrics.get();
      traffic.recorder = s.recorder.get();
      break;
  }
  s.rounds = kDeploysPerRep / s.workflows.size();

  const SystemOptions slo_options;
  for (const Workflow& wf : s.workflows) {
    s.slos.push_back(default_slo(wf, slo_options));
  }
  for (std::size_t w = 0; w < s.workflows.size(); ++w) {
    ServedPlan p;
    p.workflow = w;
    Chiron chiron(chiron_config(s, 0));
    p.deployment = chiron.deploy(s.workflows[w], s.slos[w]);
    p.live = std::make_unique<WrapPlanBackend>(
        "chiron", params(), s.workflows[w], p.deployment.plan);
    if (id != WorkloadId::kFleetFinra100) {
      p.replay = std::make_unique<ReplayBackend>(
          *p.live, kReplayEntries / s.workflows.size(), Rng(seed ^ kReplaySalt));
    }
    p.config = traffic;
    s.served.push_back(std::move(p));
  }
  return s;
}

// ---------------------------------------------------------------------------
// The pipeline (untraced)
// ---------------------------------------------------------------------------

/// One repetition of the pipeline.
struct Rep {
  double pipeline_s = 0.0;
  double serve_s = 0.0;              ///< arrivals + serve, all served plans
  std::vector<double> deploy_ms;     ///< every deploy, round-major
  std::vector<WrapPlan> plans;       ///< every deployed plan, round-major
  std::size_t slo_met = 0;
  std::vector<ClusterResult> served; ///< request_id_base zeroed
};

Rep run_pipeline(Setup& s) {
  if (s.metrics) s.metrics->reset();
  if (s.recorder) s.recorder->clear();
  Rep rep;
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0; r < s.rounds; ++r) {
    for (std::size_t w = 0; w < s.workflows.size(); ++w) {
      Chiron chiron(chiron_config(s, r));
      const Clock::time_point t0 = Clock::now();
      Deployment d = chiron.deploy(s.workflows[w], s.slos[w]);
      rep.deploy_ms.push_back(seconds_since(t0) * 1e3);
      rep.slo_met += d.slo_met ? 1 : 0;
      rep.plans.push_back(std::move(d.plan));
    }
  }
  for (const ServedPlan& p : s.served) {
    const Clock::time_point t0 = Clock::now();
    ClusterResult result =
        ClusterSimulator(p.config, params()).run(p.backend(), 1);
    rep.serve_s += seconds_since(t0);
    result.request_id_base = 0;
    rep.served.push_back(std::move(result));
  }
  rep.pipeline_s = seconds_since(start);
  return rep;
}

std::size_t offered(const Rep& rep) {
  std::size_t n = 0;
  for (const ClusterResult& r : rep.served) n += r.offered;
  return n;
}

/// Invariants every served result must satisfy.
void check_result(const ClusterResult& r, const ClusterConfig& config,
                  const std::string& what, std::vector<std::string>& errors) {
  if (r.offered != r.completed + r.timed_out + r.dropped) {
    errors.push_back(what + ": offered != completed + timed_out + dropped");
  }
  if (r.offered == 0) errors.push_back(what + ": no requests offered");
  if (config.retry.timeout_ms > 0.0 && r.p99_ms > config.retry.timeout_ms) {
    errors.push_back(what + ": completed p99 exceeds the timeout");
  }
  std::size_t routed_completed = 0;
  for (const NodeResult& n : r.node_results) routed_completed += n.completed;
  if (routed_completed != r.completed) {
    errors.push_back(what + ": per-node completions do not sum to completed");
  }
}

/// Checks one repetition: valid plans, the round-0 plans equal to the ones
/// set up, results deterministic against `first` (when given).
void check_rep(const Setup& s, const Rep& rep, const Rep* first,
               std::vector<std::string>& errors) {
  const std::size_t n_wf = s.workflows.size();
  if (rep.plans.size() != s.rounds * n_wf) {
    errors.push_back("deploy count mismatch");
    return;
  }
  for (std::size_t i = 0; i < rep.plans.size(); ++i) {
    try {
      rep.plans[i].validate(s.workflows[i % n_wf]);
    } catch (const std::exception& e) {
      errors.push_back(std::string("invalid plan: ") + e.what());
    }
  }
  for (const ServedPlan& p : s.served) {
    if (serialize_plan(rep.plans[p.workflow]) !=
        serialize_plan(p.deployment.plan)) {
      errors.push_back("round-0 plan of " + s.workflows[p.workflow].name() +
                       " differs from the set-up deploy");
    }
  }
  for (std::size_t k = 0; k < rep.served.size(); ++k) {
    check_result(rep.served[k], s.served[k].config,
                 s.workflows[s.served[k].workflow].name(), errors);
  }
  if (first == nullptr) return;
  for (std::size_t i = 0; i < rep.plans.size(); ++i) {
    if (serialize_plan(rep.plans[i]) != serialize_plan(first->plans[i])) {
      errors.push_back("plans differ between repetitions");
      break;
    }
  }
  if (rep.served != first->served) {
    errors.push_back("served results differ between repetitions");
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

enum class Kind { kHostTime, kHost, kModel, kSpeedup };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kHost;
  std::string unmeasured;  ///< non-empty: no value is reported, only why
};

/// Deterministic model outputs of one repetition (bit-identical across
/// repetitions and across host-only changes).
std::vector<Metric> model_metrics(const Rep& rep) {
  double p50 = 0.0, p99 = 0.0;
  std::size_t completed = 0, cold = 0, cpus = 0;
  for (const ClusterResult& r : rep.served) {
    p50 += r.p50_ms;
    p99 += r.p99_ms;
    completed += r.completed;
    cold += r.cold_starts;
  }
  for (const WrapPlan& plan : rep.plans) cpus += plan.allocated_cpus();
  const double served = static_cast<double>(rep.served.size());
  const double deploys = static_cast<double>(rep.plans.size());
  return {
      {"sim_p50_ms", p50 / served, "ms", Kind::kModel, {}},
      {"sim_p99_ms", p99 / served, "ms", Kind::kModel, {}},
      {"sim_goodput_pct",
       100.0 * static_cast<double>(completed) / static_cast<double>(offered(rep)),
       "%", Kind::kModel, {}},
      {"sim_cold_starts", static_cast<double>(cold), "count", Kind::kModel, {}},
      {"plan_cpus", static_cast<double>(cpus) / deploys, "CPUs", Kind::kModel, {}},
      {"slo_met_pct", 100.0 * static_cast<double>(rep.slo_met) / deploys, "%",
       Kind::kModel, {}},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Every repetition repeats the same computation, so each host time is the
/// fastest of its repetitions. A shared host runs in speed states that last
/// seconds (a fixed kernel ran 1.5-1.7x slower in the slow one on the
/// baseline VM); a median would move with the share of the run spent in
/// each state, the fastest repetition does not unless the run never left
/// the slow state. Deploy percentiles are taken over the deploys of one
/// repetition, each timed as its fastest over the repetitions.
std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const std::vector<Rep>& reps) {
  std::vector<double> pipeline, rate;
  std::vector<double> deploy_ms = reps.front().deploy_ms;
  for (const Rep& rep : reps) {
    pipeline.push_back(rep.pipeline_s);
    rate.push_back(static_cast<double>(offered(rep)) / rep.serve_s / 1e3);
    for (std::size_t i = 0; i < deploy_ms.size(); ++i) {
      deploy_ms[i] = std::min(deploy_ms[i], rep.deploy_ms[i]);
    }
  }
  std::vector<Metric> m = {
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s",
       Kind::kHostTime, {}},
      {"pipeline_s", *std::min_element(pipeline.begin(), pipeline.end()), "s",
       Kind::kHostTime, {}},
      {"deploy_ms_p50", percentile(deploy_ms, 50.0), "ms", Kind::kHostTime, {}},
      {"deploy_ms_p90", percentile(deploy_ms, 90.0), "ms", Kind::kHostTime, {}},
      {"serve_kreq_s", *std::max_element(rate.begin(), rate.end()), "kreq/s",
       Kind::kHostTime, {}},
      {"peak_rss_mb", peak_rss_mb(), "MB", Kind::kHost, {}},
  };
  for (Metric& model : model_metrics(reps.front())) m.push_back(std::move(model));
  return m;
}

// ---------------------------------------------------------------------------
// The traced pass: the same pipeline, one layer call at a time
// ---------------------------------------------------------------------------

using Values = std::map<std::string, double>;

/// One traced decomposition of the pipeline plus the comparison runs that
/// isolate threads and telemetry. Appends every equality failure to
/// `errors`.
Values traced_pass(Setup& s, std::vector<std::string>& errors) {
  Values v;
  obs::Tracer& tracer = obs::Tracer::global();

  // Untraced reference first: the pipeline exactly as the untraced pass
  // runs it.
  const Rep reference = run_pipeline(s);
  check_rep(s, reference, nullptr, errors);

  tracer.clear();
  tracer.set_enabled(true);
  const Clock::time_point start = Clock::now();
  std::vector<WrapPlan> plans;
  std::vector<std::vector<FunctionBehavior>> behaviors;
  double profile_ms = 0.0, pgp_ms = 0.0, codegen_ms = 0.0;
  std::size_t functions = 0, outer = 0, kl = 0, calls = 0;
  std::uint64_t hits = 0, misses = 0;

  struct Served {
    std::vector<TimeMs> arrivals;
    std::uint64_t id_base = 0;
    ClusterConfig config;
    std::unique_ptr<TimedBackend> backend;
    std::unique_ptr<obs::MetricsRegistry> own_metrics;
    ClusterResult result;
    double serve_ms = 0.0;
  };
  std::vector<Served> served(s.served.size());
  double arrivals_ms = 0.0;
  {
    obs::ScopedSpan pipeline_span(tracer, "pipeline", "bench");
    for (std::size_t r = 0; r < s.rounds; ++r) {
      for (std::size_t w = 0; w < s.workflows.size(); ++w) {
        const Workflow& wf = s.workflows[w];
        const ChironConfig cc = chiron_config(s, r);
        obs::ScopedSpan deploy_span(
            tracer, "deploy", "bench",
            {{"round", static_cast<double>(r)}, {"workflow", static_cast<double>(w)}});
        std::vector<Profile> profiles;
        {
          obs::ScopedSpan span(tracer, "layer.profile", "bench");
          const Clock::time_point t0 = Clock::now();
          Rng rng(cc.seed);
          Profiler profiler(cc.profiler, rng.split());
          profiles = profiler.profile_workflow(wf);
          profile_ms += seconds_since(t0) * 1e3;
          functions += profiles.size();
        }
        behaviors.push_back(Profiler::behaviors(profiles));
        PgpResult result;
        {
          obs::ScopedSpan span(tracer, "layer.pgp", "bench");
          const Clock::time_point t0 = Clock::now();
          const PgpScheduler scheduler(pgp_config(cc, wf, cc.deploy_threads), wf,
                                       behaviors.back());
          result = scheduler.schedule(s.slos[w]);
          pgp_ms += seconds_since(t0) * 1e3;
          const PredictionCache::Stats cache = scheduler.predictor().cache_stats();
          hits += cache.hits;
          misses += cache.misses;
        }
        outer += result.stats.outer_iterations;
        kl += result.stats.kl_evaluations;
        calls += result.stats.predictor_calls;
        {
          obs::ScopedSpan span(tracer, "layer.codegen", "bench");
          const Clock::time_point t0 = Clock::now();
          const std::vector<GeneratedWrap> wraps =
              generate_orchestrators(wf, result.plan);
          const std::string stack = generate_stack_yaml(wf, result.plan);
          codegen_ms += seconds_since(t0) * 1e3;
          if (wraps.empty() || stack.empty()) errors.push_back("empty codegen output");
        }
        plans.push_back(std::move(result.plan));
      }
    }
    for (std::size_t k = 0; k < s.served.size(); ++k) {
      const ServedPlan& p = s.served[k];
      Served& out = served[k];
      out.config = p.config;
      if (out.config.metrics == nullptr && out.config.nodes > 1) {
        // The windowed engine reports its cluster.sim.* counters here.
        out.own_metrics = std::make_unique<obs::MetricsRegistry>();
        out.config.metrics = out.own_metrics.get();
      }
      if (s.metrics) s.metrics->reset();
      if (s.recorder) s.recorder->clear();
      {
        obs::ScopedSpan span(tracer, "layer.arrivals", "bench");
        const Clock::time_point t0 = Clock::now();
        Rng rng(out.config.seed);
        ArrivalGenerator generator(out.config.arrivals, out.config.offered_rps,
                                   rng.split());
        out.arrivals = generator.generate(out.config.horizon_ms);
        arrivals_ms += seconds_since(t0) * 1e3;
      }
      out.id_base = obs::mint_request_ids(out.arrivals.size());
      out.backend = std::make_unique<TimedBackend>(p.backend());
      {
        obs::ScopedSpan span(tracer, "layer.serve", "bench",
                             {{"nodes", static_cast<double>(out.config.nodes)}});
        const Clock::time_point t0 = Clock::now();
        out.result = ClusterSimulator(out.config, params())
                         .run_prepared(*out.backend, 1, out.arrivals, out.id_base);
        out.serve_ms = seconds_since(t0) * 1e3;
      }
    }
  }
  const double traced_s = seconds_since(start);
  tracer.set_enabled(false);

  // Equality 1: profile -> schedule -> codegen == Chiron::deploy.
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (serialize_plan(plans[i]) != serialize_plan(reference.plans[i])) {
      errors.push_back("decomposed deploy differs from Chiron::deploy (" +
                       s.workflows[i % s.workflows.size()].name() + ")");
      break;
    }
  }

  // Telemetry read from the traced serve.
  std::uint64_t rec_events = 0, rec_dropped = 0;
  if (s.recorder) {
    rec_events = s.recorder->recorded_count();
    rec_dropped = s.recorder->dropped_count();
  }
  double windows = 0.0, transfers = 0.0, barrier_routed = 0.0;
  for (const Served& out : served) {
    if (out.config.metrics == nullptr) continue;
    windows += static_cast<double>(out.config.metrics->counter("cluster.sim.windows").value());
    transfers += static_cast<double>(out.config.metrics->counter("cluster.sim.transfers").value());
    barrier_routed += static_cast<double>(
        out.config.metrics->counter("cluster.sim.barrier_routed").value());
  }

  double ms_t1 = 0.0, ms_tn = 0.0, busy_t1 = 0.0, busy_tn = 0.0;
  double telemetry_on_ms = 0.0, telemetry_off_ms = 0.0;
  std::uint64_t backend_calls = 0;
  std::size_t n_offered = 0, peak_queue = 0, cold = 0, routed = 0;
  double imbalance = 0.0;
  std::size_t failed = 0, retried = 0, timed_out = 0, dropped = 0, crashes = 0;
  for (std::size_t k = 0; k < served.size(); ++k) {
    Served& out = served[k];
    const std::string name = s.workflows[s.served[k].workflow].name();
    ms_tn += out.serve_ms;
    busy_tn += out.backend->busy_ms();
    backend_calls += out.backend->calls();

    // Equality 2: ArrivalGenerator::generate + run_prepared == run().
    ClusterResult normalized = out.result;
    normalized.request_id_base = 0;
    if (normalized != reference.served[k]) {
      errors.push_back("generate + run_prepared differs from run() (" + name + ")");
    }

    // Equality 3: sim_threads = 1 == sim_threads = T.
    {
      ClusterConfig config = out.config;
      config.sim_threads = 1;
      obs::MetricsRegistry t1_metrics;
      if (config.metrics != nullptr && config.metrics != s.metrics.get()) {
        config.metrics = &t1_metrics;
      }
      if (s.metrics) s.metrics->reset();
      if (s.recorder) s.recorder->clear();
      const TimedBackend timed(s.served[k].backend());
      const Clock::time_point t0 = Clock::now();
      const ClusterResult t1 = ClusterSimulator(config, params())
                                   .run_prepared(timed, 1, out.arrivals, out.id_base);
      ms_t1 += seconds_since(t0) * 1e3;
      busy_t1 += timed.busy_ms();
      if (t1 != out.result) {
        errors.push_back("sim_threads=1 differs from sim_threads=T (" + name + ")");
      }
    }

    // Equality 4: recorder (and registry) on == off.
    if (s.recorder) {
      ClusterConfig config = out.config;
      config.metrics = nullptr;
      config.recorder = nullptr;
      const TimedBackend timed(s.served[k].backend());
      const Clock::time_point t0 = Clock::now();
      const ClusterResult off = ClusterSimulator(config, params())
                                    .run_prepared(timed, 1, out.arrivals, out.id_base);
      telemetry_off_ms += seconds_since(t0) * 1e3;
      telemetry_on_ms += out.serve_ms;
      if (off != out.result) {
        errors.push_back("recorder on differs from recorder off (" + name + ")");
      }
    }

    const ClusterResult& r = out.result;
    n_offered += r.offered;
    peak_queue = std::max(peak_queue, r.peak_queue);
    cold += r.cold_starts;
    std::size_t max_routed = 0, sum_routed = 0;
    for (const NodeResult& node : r.node_results) {
      max_routed = std::max(max_routed, node.routed);
      sum_routed += node.routed;
    }
    routed += sum_routed;
    const double mean_routed =
        static_cast<double>(sum_routed) / static_cast<double>(r.node_results.size());
    imbalance = std::max(imbalance, static_cast<double>(max_routed) / mean_routed);
    failed += r.failed;
    retried += r.retried;
    timed_out += r.timed_out;
    dropped += r.dropped;
    crashes += r.node_crashes;
  }

  // Thread pool: every schedule again with deploy_threads = 1 and = T.
  std::vector<double> pgp_t1_ms, pgp_tn_ms;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const std::size_t w = i % s.workflows.size();
    const ChironConfig cc = chiron_config(s, i / s.workflows.size());
    for (std::vector<double>* times : {&pgp_t1_ms, &pgp_tn_ms}) {
      const std::size_t threads = times == &pgp_t1_ms ? 1 : s.threads;
      const Clock::time_point t0 = Clock::now();
      const PgpScheduler scheduler(pgp_config(cc, s.workflows[w], threads),
                                   s.workflows[w], behaviors[i]);
      const PgpResult result = scheduler.schedule(s.slos[w]);
      times->push_back(seconds_since(t0) * 1e3);
      if (serialize_plan(result.plan) != serialize_plan(plans[i])) {
        errors.push_back("deploy_threads=" + std::to_string(threads) +
                         " plan differs from the pipeline's");
      }
    }
  }

  // Predictor error against the live backend, unloaded (Fig. 12).
  double error_pct = 0.0;
  for (const ServedPlan& p : s.served) {
    const Workflow& wf = s.workflows[p.workflow];
    const Predictor predictor(
        PredictorConfig{params(), wf.function(0).runtime, 1.0, true},
        Profiler::behaviors(p.deployment.profiles));
    const TimeMs predicted = predictor.workflow_latency(p.deployment.plan);
    Rng rng(s.seed ^ kErrorSalt);
    const TimeMs actual = p.live->mean_latency(rng, kErrorRuns);
    error_pct += std::abs(actual - predicted) / predicted * 100.0;
  }
  error_pct /= static_cast<double>(s.served.size());

  const double offered_d = static_cast<double>(n_offered);
  v["profile.ms"] = profile_ms;
  v["profile.functions"] = static_cast<double>(functions);
  v["pgp.ms"] = pgp_ms;
  v["pgp.outer_iterations"] = static_cast<double>(outer);
  v["pgp.kl_evaluations"] = static_cast<double>(kl);
  v["pgp.predictor_calls"] = static_cast<double>(calls);
  v["pgp.thread_speedup_p50"] = percentile(pgp_t1_ms, 50.0) / percentile(pgp_tn_ms, 50.0);
  v["pgp.thread_speedup_p90"] = percentile(pgp_t1_ms, 90.0) / percentile(pgp_tn_ms, 90.0);
  v["predictor.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) / static_cast<double>(hits + misses);
  v["predictor.error_pct"] = error_pct;
  v["codegen.ms"] = codegen_ms;
  v["arrivals.ms"] = arrivals_ms;
  v["arrivals.count"] = offered_d;
  v["backend.calls"] = static_cast<double>(backend_calls);
  v["backend.busy_ms"] = busy_tn;
  v["backend.us_per_call"] = busy_tn * 1e3 / static_cast<double>(backend_calls);
  v["serve.ms_t1"] = ms_t1;
  v["serve.ms_tn"] = ms_tn;
  v["serve.engine_ns_per_req"] = (ms_t1 - busy_t1) * 1e6 / offered_d;
  v["serve.peak_queue"] = static_cast<double>(peak_queue);
  v["serve.speedup"] = ms_t1 / ms_tn;
  v["serve.windows"] = windows;
  v["serve.transfers"] = transfers;
  v["serve.barrier_routed"] = barrier_routed;
  v["router.node_imbalance"] = imbalance;
  v["router.warm_hit_ratio"] =
      1.0 - static_cast<double>(cold) / static_cast<double>(routed);
  v["fault.failed"] = static_cast<double>(failed);
  v["fault.retried"] = static_cast<double>(retried);
  v["fault.timed_out"] = static_cast<double>(timed_out);
  v["fault.dropped"] = static_cast<double>(dropped);
  v["fault.node_crashes"] = static_cast<double>(crashes);
  v["recorder.events"] = static_cast<double>(rec_events);
  v["recorder.dropped"] = static_cast<double>(rec_dropped);
  v["recorder.overhead_pct"] =
      telemetry_off_ms > 0.0
          ? (telemetry_on_ms - telemetry_off_ms) / telemetry_off_ms * 100.0
          : 0.0;
  v["trace.overhead_pct"] =
      (traced_s - reference.pipeline_s) / reference.pipeline_s * 100.0;
  return v;
}

struct LayerSpec {
  const char* name;
  const char* unit;
  Kind kind;
};

/// Every per-layer metric, in report order. kHostTime entries are timings
/// (withheld from a build without NDEBUG); kSpeedup entries also need
/// >= 4 online CPUs.
constexpr LayerSpec kLayerMetrics[] = {
    {"profile.ms", "ms", Kind::kHostTime},
    {"profile.functions", "count", Kind::kModel},
    {"pgp.ms", "ms", Kind::kHostTime},
    {"pgp.outer_iterations", "count", Kind::kModel},
    {"pgp.kl_evaluations", "count", Kind::kModel},
    {"pgp.predictor_calls", "count", Kind::kModel},
    {"pgp.thread_speedup_p50", "x", Kind::kSpeedup},
    {"pgp.thread_speedup_p90", "x", Kind::kSpeedup},
    {"predictor.cache_hit_ratio", "ratio", Kind::kHost},
    {"predictor.error_pct", "%", Kind::kModel},
    {"codegen.ms", "ms", Kind::kHostTime},
    {"arrivals.ms", "ms", Kind::kHostTime},
    {"arrivals.count", "count", Kind::kModel},
    {"backend.calls", "count", Kind::kModel},
    {"backend.busy_ms", "ms", Kind::kHostTime},
    {"backend.us_per_call", "us", Kind::kHostTime},
    {"serve.ms_t1", "ms", Kind::kHostTime},
    {"serve.ms_tn", "ms", Kind::kHostTime},
    {"serve.engine_ns_per_req", "ns", Kind::kHostTime},
    {"serve.peak_queue", "count", Kind::kModel},
    {"serve.speedup", "x", Kind::kSpeedup},
    {"serve.windows", "count", Kind::kModel},
    {"serve.transfers", "count", Kind::kModel},
    {"serve.barrier_routed", "count", Kind::kModel},
    {"router.node_imbalance", "ratio", Kind::kModel},
    {"router.warm_hit_ratio", "ratio", Kind::kModel},
    {"fault.failed", "count", Kind::kModel},
    {"fault.retried", "count", Kind::kModel},
    {"fault.timed_out", "count", Kind::kModel},
    {"fault.dropped", "count", Kind::kModel},
    {"fault.node_crashes", "count", Kind::kModel},
    {"recorder.events", "count", Kind::kModel},
    {"recorder.dropped", "count", Kind::kModel},
    {"recorder.overhead_pct", "%", Kind::kHostTime},
    {"trace.overhead_pct", "%", Kind::kHostTime},
};

// ---------------------------------------------------------------------------
// Provenance and output
// ---------------------------------------------------------------------------

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

long online_cpus() { return sysconf(_SC_NPROCESSORS_ONLN); }

double load_average_1min() {
  std::ifstream in("/proc/loadavg");
  double load = NAN;
  in >> load;
  return load;
}

/// Aggregate CPU steal jiffies from /proc/stat (-1 when unavailable).
long long steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long fields[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (long long& f : fields) {
    if (!(in >> f)) return -1;
  }
  return fields[7];
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string json_string(const std::string& s) {
  return json::dump(json::Value(s));
}

struct Provenance {
  std::uint64_t seed = kDefaultSeed;
  std::size_t threads = 1;
  long nproc = 0;
  double load_1min_start = NAN;
  long long steal_start = -1;

  std::string to_json() const {
    const long long steal_end = steal_jiffies();
    std::ostringstream o;
    o << "{\"build_type\": " << json_string(CHIRON_E2E_BUILD_TYPE)
      << ", \"ndebug\": " << (kNdebug ? "true" : "false")
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"cxx_flags\": " << json_string(CHIRON_E2E_FLAGS)
      << ", \"nproc\": " << nproc << ", \"threads\": " << threads
      << ", \"seed\": " << seed
      << ", \"load_1min_start\": " << json_number(load_1min_start)
      << ", \"steal_jiffies\": "
      << (steal_start < 0 || steal_end < 0 ? std::string("null")
                                           : std::to_string(steal_end - steal_start))
      << "}";
    return o.str();
  }
};

/// Why `m` cannot be reported as a number on this build/host, or "".
std::string unmeasured_reason(const Metric& m, long nproc) {
  if ((m.kind == Kind::kHostTime || m.kind == Kind::kSpeedup) && !kNdebug) {
    return "timed in a build without NDEBUG (" CHIRON_E2E_BUILD_TYPE ")";
  }
  if (m.kind == Kind::kSpeedup && nproc < 4) {
    return "speedup needs >= 4 online CPUs, host has " + std::to_string(nproc);
  }
  return {};
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    o << (i ? ", " : "") << json_string(m.name) << ": {";
    if (m.unmeasured.empty()) {
      o << "\"value\": " << json_number(m.value) << ", ";
    } else {
      o << "\"unmeasured\": " << json_string(m.unmeasured) << ", ";
    }
    o << "\"unit\": " << json_string(m.unit) << "}";
  }
  o << "}";
  return o.str();
}

std::string model_names_json(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (const Metric& m : metrics) {
    if (m.kind != Kind::kModel) continue;
    out += (out.size() > 1 ? ", " : "") + json_string(m.name);
  }
  return out + "]";
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    if (m.unmeasured.empty()) {
      std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("  %-26s %16s %s (%s)\n", m.name.c_str(), "unmeasured",
                  m.unit.c_str(), m.unmeasured.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Golden model digest (expected.json)
// ---------------------------------------------------------------------------

void check_expected(const std::string& path, WorkloadId id,
                    const std::vector<Metric>& metrics,
                    std::vector<std::string>& errors) {
  std::ifstream in(path);
  if (!in) {
    errors.push_back("cannot read " + path);
    return;
  }
  std::stringstream text;
  text << in.rdbuf();
  try {
    const json::Value doc = json::parse(text.str());
    const json::Value& expected = doc.at("workloads").at(workload_name(id));
    for (const Metric& m : metrics) {
      if (m.kind != Kind::kModel) continue;
      const double want = expected.at(m.name).as_number();
      if (want != m.value) {
        errors.push_back("model metric " + m.name + " = " + json_number(m.value) +
                         ", expected.json has " + json_number(want));
      }
    }
  } catch (const std::exception& e) {
    errors.push_back(path + ": " + e.what());
  }
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  WorkloadId workload = WorkloadId::kDeploySuite;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 12.0;
  bool trace = false;
  std::string expected;
  std::string out_dir;
  std::string trace_out;
  bool smoke = false;
  bool digest = false;
};

int usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                 [--expected expected.json] [--out-dir DIR] "
               "[--trace-out FILE]\n"
               "       bench_e2e --smoke | --digest\n"
               "workloads: deploy_suite engine_1node fleet_finra100 faults_8node\n",
               message);
  return 2;
}

std::size_t bench_threads() {
  return static_cast<std::size_t>(std::clamp<long>(online_cpus(), 1, 4));
}

/// Runs one workload for --seconds: repetitions of set-up + pipeline, or
/// traced passes after one set-up; prints the result and returns the
/// process exit code.
int run_workload(const Options& opt) {
  Provenance prov;
  prov.seed = opt.seed;
  prov.threads = bench_threads();
  prov.nproc = online_cpus();
  prov.load_1min_start = load_average_1min();
  prov.steal_start = steal_jiffies();

  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  const bool deploys_are_ops = opt.workload == WorkloadId::kDeploySuite;
  const Clock::time_point start = Clock::now();
  Setup setup;
  if (!opt.trace) {
    // Every repetition sets up afresh, so set-up is sampled across the
    // whole run like the pipeline is.
    std::vector<double> setup_s;
    std::vector<Rep> reps;
    while (reps.size() < kMinReps || seconds_since(start) < opt.seconds) {
      const Clock::time_point t0 = Clock::now();
      setup = make_setup(opt.workload, opt.seed, prov.threads, 1);
      setup_s.push_back(seconds_since(t0));
      reps.push_back(run_pipeline(setup));
      check_rep(setup, reps.back(), reps.size() > 1 ? &reps.front() : nullptr,
                errors);
    }
    for (const Rep& rep : reps) {
      attempted += deploys_are_ops ? rep.plans.size() : offered(rep);
      if (!deploys_are_ops) {
        for (const ClusterResult& r : rep.served) failed += r.timed_out + r.dropped;
      }
    }
    metrics = end_to_end_metrics(setup_s, reps);
    if (opt.seed == kDefaultSeed && !opt.expected.empty()) {
      check_expected(opt.expected, opt.workload, metrics, errors);
    } else {
      std::printf("seed %llu: golden digest is recorded at seed %llu only; "
                  "invariant and determinism checks only\n",
                  static_cast<unsigned long long>(opt.seed),
                  static_cast<unsigned long long>(kDefaultSeed));
    }
  } else {
    setup = make_setup(opt.workload, opt.seed, prov.threads, 1);
    std::map<std::string, std::vector<double>> samples;
    int passes = 0;
    while (passes < 1 || seconds_since(start) < opt.seconds) {
      for (const auto& [name, value] : traced_pass(setup, errors)) {
        samples[name].push_back(value);
      }
      ++passes;
    }
    for (const LayerSpec& spec : kLayerMetrics) {
      metrics.push_back({spec.name, median(samples.at(spec.name)), spec.unit,
                         spec.kind, {}});
    }
    attempted = static_cast<std::uint64_t>(passes) *
                (deploys_are_ops ? setup.rounds * setup.workflows.size()
                                 : static_cast<std::size_t>(
                                       samples.at("arrivals.count").front()));
    failed = deploys_are_ops
                 ? 0
                 : static_cast<std::uint64_t>(passes) *
                       static_cast<std::uint64_t>(samples.at("fault.timed_out").front() +
                                                  samples.at("fault.dropped").front());
    if (!opt.trace_out.empty()) {
      if (!obs::Tracer::global().write(opt.trace_out)) {
        errors.push_back("cannot write trace " + opt.trace_out);
      } else {
        std::ifstream in(opt.trace_out);
        std::stringstream text;
        text << in.rdbuf();
        try {
          (void)json::parse(text.str()).at("traceEvents").as_array();
        } catch (const std::exception& e) {
          errors.push_back("trace does not parse: " + std::string(e.what()));
        }
      }
    }
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) errors.push_back("metric " + m.name + " is not finite");
    m.unmeasured = unmeasured_reason(m, prov.nproc);
  }

  const bool correct = errors.empty();
  if (!correct) failed = attempted;
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  const std::string title = std::string(workload_name(opt.workload)) + " seed " +
                            std::to_string(opt.seed) +
                            (opt.trace ? " (traced pass, per-layer)" : " (end-to-end)");
  print_table(title, metrics);
  const std::string provenance = prov.to_json();
  std::printf("provenance %s\n", provenance.c_str());

  // The result line carries the metrics BENCHMARK.json bounds. The
  // end-to-end model metrics are exact, not bounded: they are checked
  // against expected.json above and kept in the run record for compare.py.
  std::vector<Metric> reported;
  for (const Metric& m : metrics) {
    if (opt.trace || m.kind != Kind::kModel) reported.push_back(m);
  }
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": " << metrics_json(reported) << "}";
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + workload_name(opt.workload) +
                             ".seed" + std::to_string(opt.seed) + ".trace" +
                             (opt.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\"workload\": " << json_string(workload_name(opt.workload))
        << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
        << ", \"provenance\": " << provenance
        << ", \"model_metrics\": " << model_names_json(metrics)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": " << metrics_json(metrics) << "}\n";
    if (!out) std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
  }
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}

/// 1/100-size traced pass of every workload: every decomposition equality
/// plus the conservation invariant (the bench_e2e_smoke ctest).
int run_smoke() {
  const Clock::time_point start = Clock::now();
  std::vector<std::string> errors;
  for (WorkloadId id : kWorkloads) {
    const std::size_t errors_before = errors.size();
    Setup setup = make_setup(id, kDefaultSeed, bench_threads(), 100);
    const Values v = traced_pass(setup, errors);
    for (const LayerSpec& spec : kLayerMetrics) {
      if (!std::isfinite(v.at(spec.name))) {
        errors.push_back(std::string(workload_name(id)) + ": " + spec.name +
                         " is not finite");
      }
    }
    std::printf("%-15s %s offered=%.0f windows=%.0f transfers=%.0f\n",
                workload_name(id), errors.size() == errors_before ? "ok" : "FAILED",
                v.at("arrivals.count"), v.at("serve.windows"),
                v.at("serve.transfers"));
  }
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::printf("bench_e2e smoke: %s in %.2f s\n", errors.empty() ? "ok" : "FAILED",
              seconds_since(start));
  return errors.empty() ? 0 : 1;
}

/// Prints expected.json: the model metrics of one full-size repetition of
/// every workload at the default seed.
int run_digest() {
  std::printf("{\n  \"seed\": %llu,\n  \"workloads\": {\n",
              static_cast<unsigned long long>(kDefaultSeed));
  for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
    Setup setup = make_setup(kWorkloads[w], kDefaultSeed, bench_threads(), 1);
    const Rep rep = run_pipeline(setup);
    std::printf("    %s: {", json_string(workload_name(kWorkloads[w])).c_str());
    const std::vector<Metric> model = model_metrics(rep);
    for (std::size_t i = 0; i < model.size(); ++i) {
      std::printf("%s\n      %s: %s", i ? "," : "", json_string(model[i].name).c_str(),
                  json_number(model[i].value).c_str());
    }
    std::printf("\n    }%s\n", w + 1 < kWorkloads.size() ? "," : "");
  }
  std::printf("  }\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--digest") {
      opt.digest = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--expected" || arg == "--out-dir" ||
               arg == "--trace-out") {
      if (i + 1 >= argc) return usage((arg + " needs a value").c_str());
      flags[arg] = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.smoke) return run_smoke();
  if (opt.digest) return run_digest();

  if (!flags.count("--workload")) return usage("--workload is required");
  if (!parse_workload(flags["--workload"], opt.workload)) {
    return usage("unknown workload");
  }
  if (flags.count("--seed")) {
    const std::string& text = flags["--seed"];
    char* end = nullptr;
    opt.seed = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0') {
      return usage("--seed must be an unsigned integer");
    }
  }
  if (flags.count("--seconds")) {
    char* end = nullptr;
    opt.seconds = std::strtod(flags["--seconds"].c_str(), &end);
    if (*end != '\0' || !(opt.seconds >= 0.0)) return usage("bad --seconds");
  }
  if (flags.count("--trace")) {
    if (flags["--trace"] != "0" && flags["--trace"] != "1") {
      return usage("--trace must be 0 or 1");
    }
    opt.trace = flags["--trace"] == "1";
  }
  opt.expected = flags["--expected"];
  opt.out_dir = flags["--out-dir"];
  opt.trace_out = flags["--trace-out"];
  return run_workload(opt);
}
