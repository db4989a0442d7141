#include "local/local_runner.h"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exec/emulated_gil.h"
#include "exec/engine.h"
#include "obs/trace.h"

namespace chiron {
namespace {

using Clock = std::chrono::steady_clock;

double now_ms(Clock::time_point origin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

void sleep_ms(TimeMs ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// Runs one behaviour on the current thread: CPU periods spin under the
// group's GIL, block periods sleep with it released.
void run_behavior(const FunctionBehavior& behavior, double scale,
                  EmulatedGil& gil) {
  bool holding = false;
  for (const Segment& seg : behavior.segments()) {
    if (seg.kind == Segment::Kind::kCpu) {
      if (!holding) {
        gil.acquire();
        holding = true;
      }
      spin_with_gil(seg.duration * scale, gil);
    } else {
      if (holding) {
        gil.release();
        holding = false;
      }
      sleep_ms(seg.duration * scale);
    }
  }
  if (holding) gil.release();
}

}  // namespace

LocalDeployment::LocalDeployment(Workflow wf, WrapPlan plan,
                                 LocalConfig config)
    : wf_(std::move(wf)), plan_(std::move(plan)), config_(config) {
  plan_.validate(wf_);
  if (config_.time_scale <= 0.0) {
    throw std::invalid_argument("time_scale must be positive");
  }
}

void LocalDeployment::register_function(const std::string& name,
                                        FunctionImpl impl) {
  for (const FunctionSpec& f : wf_.functions()) {
    if (f.name == name) {
      impls_[name] = std::move(impl);
      return;
    }
  }
  throw std::invalid_argument("unknown function '" + name + "'");
}

LocalRunResult LocalDeployment::invoke(const Payload& input) {
  const auto origin = Clock::now();
  const double scale = config_.time_scale;
  LocalRunResult result;
  std::mutex result_mu;

  obs::Tracer& tracer = obs::Tracer::global();
  obs::ScopedSpan invoke_span(tracer, "local.invoke", "local",
                              {{"bytes", static_cast<double>(input.size())}});

  Payload stage_input = input;
  for (StageId s = 0; s < plan_.stages.size(); ++s) {
    obs::ScopedSpan stage_span(tracer, "stage", "local",
                               {{"stage", static_cast<double>(s)}});
    const StagePlan& sp = plan_.stages[s];
    std::vector<std::thread> wrap_threads;
    std::vector<Payload> wrap_outputs(sp.wraps.size());

    for (std::size_t w = 0; w < sp.wraps.size(); ++w) {
      wrap_threads.emplace_back([&, w] {
        // Remote wraps pay the invocation RPC.
        if (config_.emulate_overheads && w > 0) {
          sleep_ms(config_.params.rpc_ms * scale);
        }
        const Wrap& wrap = sp.wraps[w];
        // One emulated interpreter per process group; the resident
        // orchestrator group reuses the wrap's interpreter (index 0).
        // Pool deployments dispatch every function onto its own resident
        // worker process, so each function gets a private interpreter
        // (true parallelism, §4) — modelled as one GIL per function.
        const bool pool = plan_.mode == IsolationMode::kPool;
        std::vector<std::unique_ptr<EmulatedGil>> gils;
        std::vector<std::vector<std::size_t>> gil_of(wrap.processes.size());
        for (std::size_t g = 0; g < wrap.processes.size(); ++g) {
          const std::size_t members = wrap.processes[g].functions.size();
          for (std::size_t t = 0; t < members; ++t) {
            if (pool || t == 0) {
              gils.push_back(std::make_unique<EmulatedGil>(
                  config_.params.gil_switch_interval_ms * scale));
              if (tracer.enabled()) {
                gils.back()->enable_tracing(
                    &tracer, "interp s" + std::to_string(s) + ".w" +
                                 std::to_string(w) + "." +
                                 std::to_string(gils.size() - 1));
              }
            }
            gil_of[g].push_back(gils.size() - 1);
          }
        }

        // Sibling threads start one modelled spawn gap apart: thread
        // clone plus the mode's isolation startup, or a pool dispatch.
        const TimeMs spawn_gap = config_.params.spawn_gap_ms(
            wf_.function(wrap.processes[0].functions[0]).runtime,
            plan_.mode);
        std::vector<std::thread> fn_threads;
        std::mutex output_mu;
        Payload wrap_output;
        std::size_t fork_index = 0;
        for (std::size_t g = 0; g < wrap.processes.size(); ++g) {
          const ProcessGroup& group = wrap.processes[g];
          const TimeMs group_delay =
              config_.emulate_overheads && group.mode == ExecMode::kProcess
                  ? (static_cast<TimeMs>(fork_index) *
                         config_.params.process_block_ms +
                     config_.params.process_startup_ms) *
                        scale
                  : 0.0;
          if (group.mode == ExecMode::kProcess) ++fork_index;
          for (std::size_t t = 0; t < group.functions.size(); ++t) {
            const FunctionId f = group.functions[t];
            const TimeMs thread_delay =
                config_.emulate_overheads
                    ? static_cast<TimeMs>(t) * spawn_gap * scale
                    : 0.0;
            const std::size_t gil_index = gil_of[g][t];
            fn_threads.emplace_back([&, f, gil_index, group_delay,
                                     thread_delay] {
              sleep_ms(group_delay + thread_delay);
              LocalFunctionResult fr;
              fr.id = f;
              fr.start_ms = now_ms(origin);
              const FunctionSpec& spec = wf_.function(f);
              if (tracer.enabled()) tracer.name_thread(spec.name);
              obs::ScopedSpan fn_span(tracer, "fn:" + spec.name, "local");
              EmulatedGil& gil = *gils[gil_index];
              const auto it = impls_.find(spec.name);
              if (it != impls_.end()) {
                // Real user code still contends on its interpreter.
                gil.acquire();
                fr.output = it->second(stage_input);
                gil.release();
              } else {
                run_behavior(spec.behavior, scale, gil);
                fr.output = spec.name + "(" +
                            std::to_string(stage_input.size()) + "B)";
              }
              fr.finish_ms = now_ms(origin);
              std::lock_guard<std::mutex> lock(output_mu);
              if (!wrap_output.empty()) wrap_output += "|";
              wrap_output += fr.output;
              std::lock_guard<std::mutex> rlock(result_mu);
              result.functions.push_back(std::move(fr));
            });
          }
        }
        for (std::thread& t : fn_threads) t.join();
        wrap_outputs[w] = std::move(wrap_output);
      });
    }
    for (std::thread& t : wrap_threads) t.join();

    Payload merged;
    for (const Payload& out : wrap_outputs) {
      if (!merged.empty()) merged += "|";
      merged += out;
    }
    stage_input = std::move(merged);
  }

  result.output = std::move(stage_input);
  result.e2e_latency_ms = now_ms(origin);
  return result;
}

}  // namespace chiron
