// chironctl — the operator-facing CLI: parse a workflow definition file,
// deploy it with Chiron, print the plan, and optionally emit the
// deployable artifacts (stack.yml + per-wrap handlers).
//
//   $ ./examples/chironctl my_workflow.json [--slo 60] [--mode native]
//                          [--deploy-threads N] [--emit out_dir]
//                          [--trace out.json] [--trace-limit N] [--metrics]
//                          [--faults SPEC] [--retry N] [--timeout-ms T]
//                          [--rps R] [--sweep N]
//                          [--nodes N] [--router POLICY] [--sim-threads N]
//                          [--serve-obs PORT] [--obs-linger-ms MS]
//                          [--recorder] [--recorder-capacity N]
//                          [--recorder-dump PATH]
//
// --trace records the deploy pipeline (profile / PGP iterations / KL /
// CPU minimisation / codegen) as Chrome trace-event JSON — open it in
// Perfetto or chrome://tracing; --trace-limit caps retained events
// (drop-oldest) so long runs stay bounded. --metrics dumps the metrics
// registry in Prometheus text format after the run.
//
// --serve-obs starts the embedded observability endpoint (/metrics,
// /metrics.json, /trace, /recorder, /healthz) on 127.0.0.1:PORT (0 = pick
// a free port) and keeps it up --obs-linger-ms after the run so scrapers
// can catch a short run. --recorder arms the always-on flight recorder:
// every simulated request's causal timeline is retained in a bounded ring
// (--recorder-capacity events), auto-dumped on SLO breaches, written as a
// post-mortem on fatal signals, and dumped to --recorder-dump on exit.
//
// --faults arms seeded fault injection and runs the deployed plan
// through the closed-loop cluster simulator. SPEC is a comma list, e.g.
//   --faults cold=0.05,crash=0.02@0.5,straggler=0.1x4,node=0.2,seed=7
// An unknown key exits 2 with the parser's message.
// --retry sets max attempts per request (default 3 under faults) and
// --timeout-ms arms a per-request deadline; both apply to that fault run.
//
// --nodes shards the simulated cluster into N nodes, each with its own
// capacity, warm pool, and queue; --router picks the placement policy
// (round_robin|random|least_outstanding|power_of_two|warm_affinity).
// Both apply to the fault run and to every --sweep scenario. One node
// (the default) reproduces the closure reference loop exactly. A `node=P` key in
// --faults arms whole-node crashes (sharded runs only). --sim-threads N
// runs each multi-node simulation on N window workers (0 = one per
// hardware thread); results are bit-identical whatever N, so the knob
// only buys wall-clock.
//
// --sweep N scores the deployed plan under N traffic scenarios at once:
// offered load is spread 0.5x..2x around --rps, each scenario is run
// under several seeds, and all runs fan out across one thread per core
// via ClusterSimulator::run_batch (deterministic per seed whatever the
// thread count). One summary line is printed per scenario. Any armed
// --faults/--retry/--timeout-ms apply to every scenario.
//
// Run without arguments to see a demo on a built-in definition.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "common/fork_join.h"
#include "core/chiron.h"
#include "core/plan_io.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/obs_server.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "platform/cluster.h"
#include "platform/plan_backend.h"
#include "workflow/definition.h"

using namespace chiron;

namespace {

const char* kDemoDefinition = R"JSON({
  "name": "image-pipeline",
  "slo_ms": 80,
  "runtime": "python3",
  "stages": [
    ["fetch"],
    ["resize", "watermark", "classify", "thumbnail"],
    ["store"]
  ],
  "functions": {
    "fetch":     { "kind": "network", "cpu_ms": 2, "block_ms": 18,
                   "output_kb": 512 },
    "resize":    { "kind": "cpu", "cpu_ms": 12 },
    "watermark": { "kind": "cpu", "cpu_ms": 7 },
    "classify":  { "kind": "cpu", "cpu_ms": 15 },
    "thumbnail": { "kind": "disk", "cpu_ms": 4, "block_ms": 6, "blocks": 2 },
    "store":     { "kind": "network", "cpu_ms": 1, "block_ms": 9,
                   "files": ["result.bin"] }
  }
})JSON";

// Parses all of `text` as a finite number no less than `lo`; throws
// std::invalid_argument naming the problem.
double parse_number(const std::string& text, double lo) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') {
    throw std::invalid_argument("'" + text + "' is not a number");
  }
  if (!std::isfinite(v)) {
    throw std::invalid_argument("'" + text + "' is not finite");
  }
  if (v < lo) {
    throw std::invalid_argument("must be >= " + format_fixed(lo, 0) +
                                ", got " + text);
  }
  return v;
}

// A whole number in [lo, hi]: counts, thread numbers, ports.
std::size_t parse_count(const std::string& text, std::size_t lo = 0,
                        std::size_t hi = std::size_t{1} << 40) {
  const double v = parse_number(text, static_cast<double>(lo));
  if (v != std::floor(v)) {
    throw std::invalid_argument("must be a whole number, got " + text);
  }
  if (v > static_cast<double>(hi)) {
    throw std::invalid_argument("must be <= " + std::to_string(hi) +
                                ", got " + text);
  }
  return static_cast<std::size_t>(v);
}

// Upper bounds on sizes the host pays for up front: each thread is an OS
// thread, and each flight-recorder slot (48 B) is resident at once.
constexpr std::size_t kMaxThreads = 256;
constexpr std::size_t kMaxRecorderCapacity = std::size_t{1} << 22;

IsolationMode parse_mode(const std::string& mode) {
  if (mode == "native") return IsolationMode::kNative;
  if (mode == "mpk") return IsolationMode::kMpk;
  if (mode == "pool") return IsolationMode::kPool;
  throw std::invalid_argument("unknown mode '" + mode +
                              "' (native|mpk|pool)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string text = kDemoDefinition;
  TimeMs slo_override = 0.0;
  IsolationMode mode = IsolationMode::kNative;
  std::string emit_dir;
  std::string trace_path;
  bool dump_metrics = false;
  std::size_t deploy_threads = 0;  // 0 = auto
  FaultSpec faults;
  int retry_attempts = 0;      // 0 = default (3 when faults are armed)
  TimeMs timeout_ms = 0.0;     // 0 = no per-request deadline
  double offered_rps = 50.0;
  std::size_t cluster_nodes = 1;
  std::size_t sim_threads = 1;
  RouterPolicy router_policy = RouterPolicy::kRoundRobin;
  std::size_t sweep_n = 0;     // scenarios for --sweep (0 = off)
  bool fault_run = false;      // any of --faults/--retry/--timeout-ms
  bool serve_obs = false;
  int obs_port = 0;            // 0 = ephemeral
  long obs_linger_ms = 0;      // keep serving this long after the run
  bool recorder_on = false;
  std::size_t recorder_capacity = 65536;
  std::string recorder_dump;
  std::size_t trace_limit = 0; // 0 = unbounded

  // Every flag, once. A value flag takes the next argument and reports a
  // bad value by throwing; a switch takes none.
  struct Flag {
    const char* name;
    bool takes_value;
    std::function<void(const std::string&)> apply;
  };
  const auto value = [](const char* name, auto apply) {
    return Flag{name, true, std::move(apply)};
  };
  const auto on = [](const char* name, bool& target) {
    return Flag{name, false, [&target](const std::string&) { target = true; }};
  };
  const std::vector<Flag> flags = {
      value("--slo", [&](const std::string& v) {
        slo_override = parse_number(v, 0.0);
      }),
      value("--mode", [&](const std::string& v) { mode = parse_mode(v); }),
      value("--emit", [&](const std::string& v) { emit_dir = v; }),
      value("--trace", [&](const std::string& v) { trace_path = v; }),
      on("--metrics", dump_metrics),
      value("--deploy-threads", [&](const std::string& v) {
        deploy_threads = parse_count(v, 0, kMaxThreads);
      }),
      value("--faults", [&](const std::string& v) {
        faults = parse_fault_spec(v);
        fault_run = true;
      }),
      value("--retry", [&](const std::string& v) {
        retry_attempts = static_cast<int>(parse_count(v, 0, 1000000));
        fault_run = true;
      }),
      value("--timeout-ms", [&](const std::string& v) {
        timeout_ms = parse_number(v, 0.0);
        fault_run = true;
      }),
      value("--rps", [&](const std::string& v) {
        offered_rps = parse_number(v, std::numeric_limits<double>::lowest());
        if (offered_rps <= 0.0) {
          throw std::invalid_argument("must be > 0, got " + v);
        }
      }),
      value("--sweep", [&](const std::string& v) { sweep_n = parse_count(v); }),
      value("--nodes", [&](const std::string& v) {
        cluster_nodes = parse_count(v, 1);
      }),
      value("--sim-threads", [&](const std::string& v) {
        sim_threads = parse_count(v, 0, kMaxThreads);
      }),
      value("--router", [&](const std::string& v) {
        router_policy = parse_router_policy(v);
      }),
      value("--serve-obs", [&](const std::string& v) {
        serve_obs = true;
        obs_port = static_cast<int>(parse_count(v, 0, 65535));
      }),
      value("--obs-linger-ms", [&](const std::string& v) {
        obs_linger_ms = static_cast<long>(parse_count(v));
      }),
      on("--recorder", recorder_on),
      value("--recorder-capacity", [&](const std::string& v) {
        recorder_on = true;
        recorder_capacity = parse_count(v, 1, kMaxRecorderCapacity);
      }),
      value("--recorder-dump", [&](const std::string& v) {
        recorder_on = true;
        recorder_dump = v;
      }),
      value("--trace-limit", [&](const std::string& v) {
        trace_limit = parse_count(v);
      }),
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto flag =
          std::find_if(flags.begin(), flags.end(),
                       [&arg](const Flag& f) { return arg == f.name; });
      if (flag == flags.end()) {
        std::cerr << "unknown flag " << arg << "\n";
        return 2;
      }
      if (flag->takes_value && i + 1 >= argc) {
        std::cerr << arg << " requires a value\n";
        return 2;
      }
      try {
        flag->apply(flag->takes_value ? argv[++i] : "");
      } catch (const std::exception& e) {
        std::cerr << arg << ": " << e.what() << "\n";
        return 2;
      }
    } else {
      std::ifstream in(arg);
      if (!in) {
        std::cerr << "cannot open " << arg << "\n";
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
  }

  WorkflowDefinition def;
  try {
    def = parse_workflow_definition(text);
  } catch (const std::exception& e) {
    std::cerr << "definition error: " << e.what() << "\n";
    return 1;
  }
  const TimeMs slo = slo_override > 0.0 ? slo_override
                     : def.slo_ms > 0.0 ? def.slo_ms
                                        : 100.0;

  std::cout << "workflow '" << def.workflow.name() << "': "
            << def.workflow.stage_count() << " stages, "
            << def.workflow.function_count() << " functions, SLO " << slo
            << " ms, mode " << to_string(mode) << "\n\n";

  if (!trace_path.empty() || serve_obs) {
    // Surface the "written"/"listening" lines — unless the operator
    // explicitly pinned a level through CHIRON_LOG_LEVEL, which wins.
    if (std::getenv("CHIRON_LOG_LEVEL") == nullptr) {
      set_log_level(LogLevel::kInfo);
    }
    obs::Tracer::global().set_enabled(true);
    // A live /trace endpoint means the run can be long; default to a
    // bounded tracer unless the operator explicitly sized it.
    if (trace_limit == 0 && serve_obs) trace_limit = 262144;
  }
  if (trace_limit != 0) obs::Tracer::global().set_max_events(trace_limit);

  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (recorder_on) {
    recorder.set_capacity(recorder_capacity);
    recorder.set_enabled(true);
    const std::string stem =
        recorder_dump.empty() ? std::string("chiron_recorder") : recorder_dump;
    recorder.arm_auto_dump(stem + ".breach.json");
    recorder.install_signal_dump(stem + ".postmortem.jsonl");
  }

  obs::ObsServerConfig obs_config;
  obs_config.port = obs_port;
  obs_config.tracer = &obs::Tracer::global();
  obs_config.metrics = &obs::MetricsRegistry::global();
  obs_config.recorder = &recorder;
  obs::ObsServer obs_server(obs_config);
  if (serve_obs && !obs_server.start()) return 2;

  ChironConfig config;
  config.mode = mode;
  config.deploy_threads = deploy_threads;
  Chiron manager(config);
  const Deployment d = manager.deploy(def.workflow, slo);

  std::cout << "predicted latency " << format_fixed(d.predicted_latency_ms, 1)
            << " ms — SLO " << (d.slo_met ? "MET" : "NOT MET") << "\n";
  Table plan({"stage", "wrap", "mode", "functions"});
  for (StageId s = 0; s < d.plan.stages.size(); ++s) {
    for (std::size_t w = 0; w < d.plan.stages[s].wraps.size(); ++w) {
      for (const ProcessGroup& g : d.plan.stages[s].wraps[w].processes) {
        std::string names;
        for (FunctionId f : g.functions) {
          if (!names.empty()) names += ", ";
          names += def.workflow.function(f).name;
        }
        plan.row()
            .add_int(s)
            .add_int(static_cast<long long>(w))
            .add(to_string(g.mode))
            .add(names);
      }
    }
  }
  plan.print(std::cout);
  std::cout << "sandboxes " << d.plan.sandbox_count() << ", CPUs "
            << d.plan.allocated_cpus() << "\n";

  if (!emit_dir.empty()) {
    const std::filesystem::path root = emit_dir;
    std::filesystem::create_directories(root / "wraps");
    std::ofstream(root / "stack.yml") << d.stack_yaml;
    std::ofstream(root / "plan.json") << serialize_plan(d.plan);
    std::ofstream(root / "deployment.dot")
        << generate_dot(def.workflow, d.plan);
    for (const GeneratedWrap& wrap : d.orchestrators) {
      std::filesystem::create_directories(root / "wraps" / wrap.name);
      std::ofstream(root / "wraps" / wrap.name / "handler.py") << wrap.handler;
    }
    std::cout << "artifacts written to " << root
              << " (stack.yml, plan.json, deployment.dot, wraps/)\n";
  }

  if (fault_run) {
    ClusterConfig cluster;
    cluster.nodes = cluster_nodes;
    cluster.sim_threads = sim_threads;
    cluster.router = router_policy;
    cluster.offered_rps = offered_rps;
    cluster.faults = faults;
    cluster.retry.max_attempts = retry_attempts > 0 ? retry_attempts : 3;
    cluster.retry.timeout_ms = timeout_ms;
    cluster.metrics = &obs::MetricsRegistry::global();
    cluster.tracer = &obs::Tracer::global();
    if (recorder_on) cluster.recorder = &recorder;

    RuntimeParams params;
    WrapPlanBackend backend("chiron", params, def.workflow, d.plan);
    ClusterSimulator simulator(cluster, params);
    const ClusterResult r = simulator.run(backend, 1);

    std::cout << "\nfault run (" << to_string(faults) << "; retry "
              << cluster.retry.max_attempts << ", timeout "
              << (timeout_ms > 0.0 ? format_fixed(timeout_ms, 0) + " ms"
                                   : std::string("off"))
              << ", " << format_fixed(offered_rps, 0) << " rps, "
              << cluster_nodes << " node" << (cluster_nodes == 1 ? "" : "s")
              << ", router " << to_string(router_policy);
    if (cluster_nodes > 1 && sim_threads != 1) {
      std::cout << ", sim threads "
                << (sim_threads == 0 ? std::string("auto")
                                     : std::to_string(sim_threads));
    }
    std::cout << ")\n";
    Table outcome({"offered", "completed", "failed", "retried", "timed_out",
                   "dropped", "p95_ms"});
    outcome.row()
        .add_int(static_cast<long long>(r.offered))
        .add_int(static_cast<long long>(r.completed))
        .add_int(static_cast<long long>(r.failed))
        .add_int(static_cast<long long>(r.retried))
        .add_int(static_cast<long long>(r.timed_out))
        .add_int(static_cast<long long>(r.dropped))
        .add(format_fixed(r.p95_ms, 1));
    outcome.print(std::cout);
    std::cout << "goodput " << format_fixed(r.achieved_rps, 1) << " rps of "
              << format_fixed(offered_rps, 0) << " offered\n";
    if (recorder_on && r.offered > 0) {
      std::cout << "recorder: request ids " << r.request_id_base << ".."
                << r.request_id_base + r.offered - 1 << ", "
                << recorder.recorded_count() - recorder.dropped_count()
                << " events retained (" << recorder.dropped_count()
                << " dropped)";
      if (obs_server.running()) {
        std::cout << " — curl http://127.0.0.1:" << obs_server.port()
                  << "/recorder?request=" << r.request_id_base;
      }
      std::cout << "\n";
    }
  }

  if (sweep_n > 0) {
    // Score the deployed plan under a fan of traffic scenarios: offered
    // load spread 0.5x..2x around --rps, each scenario replayed under the
    // same seed set, all runs fanned across threads by run_batch.
    // Results are deterministic per (scenario, seed) regardless of the
    // thread count, so these lines are reproducible run-over-run.
    RuntimeParams params;
    WrapPlanBackend backend("chiron", params, def.workflow, d.plan);

    std::vector<ScenarioSpec> specs;
    specs.reserve(sweep_n);
    for (std::size_t s = 0; s < sweep_n; ++s) {
      const double factor =
          sweep_n == 1 ? 1.0
                       : 0.5 + 1.5 * static_cast<double>(s) /
                                 static_cast<double>(sweep_n - 1);
      ScenarioSpec spec;
      spec.config.nodes = cluster_nodes;
      spec.config.sim_threads = sim_threads;
      spec.config.router = router_policy;
      spec.config.offered_rps = offered_rps * factor;
      spec.config.faults = faults;
      if (fault_run) {
        spec.config.retry.max_attempts =
            retry_attempts > 0 ? retry_attempts : 3;
        spec.config.retry.timeout_ms = timeout_ms;
      }
      spec.backend = &backend;
      std::ostringstream name;
      name << "rps-" << format_fixed(spec.config.offered_rps, 0);
      spec.name = name.str();
      specs.push_back(std::move(spec));
    }

    const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
    const std::size_t threads = resolve_workers(0);
    const std::vector<ScenarioOutcome> outcomes =
        ClusterSimulator::run_batch(specs, seeds, params, threads);

    std::cout << "\nsweep: " << specs.size() << " scenarios x "
              << seeds.size() << " seeds on " << threads << " workers\n";
    for (const ScenarioOutcome& o : outcomes) {
      std::cout << "sweep " << o.name << ": completed " << o.completed
                << "/" << o.offered << ", latency "
                << format_fixed(o.latency_ms.mean(), 1) << " ms (sd "
                << format_fixed(o.latency_ms.stddev(), 1) << ", max "
                << format_fixed(o.latency_ms.max(), 1) << "), goodput "
                << format_fixed(o.achieved_rps.mean(), 1) << " rps";
      if (o.timed_out > 0 || o.dropped > 0) {
        std::cout << ", timed_out " << o.timed_out << ", dropped "
                  << o.dropped;
      }
      std::cout << "\n";
    }
  }

  if (!trace_path.empty()) {
    obs::Tracer::global().write(trace_path);
  }
  if (!recorder_dump.empty()) {
    recorder.write(recorder_dump);
  }
  if (dump_metrics) {
    if (recorder_on) recorder.publish_metrics();
    std::cout << "\n" << obs::MetricsRegistry::global().to_prometheus();
  }
  if (obs_server.running() && obs_linger_ms > 0) {
    std::cout << "obs server lingering " << obs_linger_ms
              << " ms on http://127.0.0.1:" << obs_server.port()
              << " (ctrl-c to stop)\n" << std::flush;
    std::this_thread::sleep_for(std::chrono::milliseconds(obs_linger_ms));
  }
  obs_server.stop();
  return d.slo_met ? 0 : 3;
}
