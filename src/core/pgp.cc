#include "core/pgp.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/fork_join.h"
#include "core/kernighan_lin.h"
#include "obs/trace.h"

namespace chiron {
namespace {

// Builds the ProcessGroup vector for a set of function sets; group 0 of a
// stage runs as threads of the resident orchestrator (no fork cost), the
// rest are forked processes.
std::vector<ProcessGroup> to_groups(std::vector<std::vector<FunctionId>> sets) {
  std::vector<ProcessGroup> groups;
  groups.reserve(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ProcessGroup g;
    g.functions = std::move(sets[i]);
    g.mode = i == 0 ? ExecMode::kThread : ExecMode::kProcess;
    groups.push_back(std::move(g));
  }
  return groups;
}

// Functions of `stage` that must be isolated in their own sandbox
// (runtime-tag mismatch with the stage majority, or shared written files).
std::vector<FunctionId> compute_conflicted(const Workflow& wf, StageId s) {
  const Stage& stage = wf.stage(s);
  // Majority runtime tag of the stage; functions off-tag are isolated.
  std::map<std::string, std::size_t> tag_counts;
  for (FunctionId f : stage.functions) {
    ++tag_counts[wf.function(f).runtime_tag];
  }
  std::string majority;
  std::size_t best = 0;
  for (const auto& [tag, count] : tag_counts) {
    if (count > best) {
      best = count;
      majority = tag;
    }
  }
  // File conflicts: any two functions writing the same file.
  std::map<std::string, std::vector<FunctionId>> writers;
  for (FunctionId f : stage.functions) {
    for (const std::string& file : wf.function(f).files_written) {
      writers[file].push_back(f);
    }
  }
  std::set<FunctionId> conflicted;
  for (FunctionId f : stage.functions) {
    if (wf.function(f).runtime_tag != majority) conflicted.insert(f);
  }
  for (const auto& [file, fns] : writers) {
    if (fns.size() > 1) {
      // Keep the first writer shareable; isolate the rest.
      for (std::size_t i = 1; i < fns.size(); ++i) conflicted.insert(fns[i]);
    }
  }
  return {conflicted.begin(), conflicted.end()};
}

// Incremental KL stage evaluation. Stage latency (Eq. 2) is a max over
// wraps, and the search-phase wrap layout is a fixed function of the group
// count — so a KL swap touching groups p and q only invalidates the (at
// most two) wraps containing them. The evaluator keeps layout_stage's
// skeleton for the committed sets and each wrap's latency, and per pair
// evaluation re-simulates only the touched wraps with the two groups
// substituted, instead of a full stage re-layout. It relies on no
// memoization: each touched wrap's groups run the GIL kernel's
// makespan-only entry straight on the profiles (Predictor::
// process_latency). The offsets are the Predictor's own Eq. (2), so the
// values are exactly Predictor::stage_latency of the substituted layout.
class StageEvaluator {
 public:
  /// `skeleton` is layout_stage's output for the first `group_count`
  /// groups: their chunk wraps first, the conflicted singletons after.
  StageEvaluator(const Predictor& predictor, IsolationMode mode,
                 StagePlan skeleton, std::size_t group_count)
      : predictor_(predictor), mode_(mode), skeleton_(std::move(skeleton)) {
    for (std::size_t w = 0; w < skeleton_.wraps.size(); ++w) {
      for (std::size_t i = 0; i < skeleton_.wraps[w].process_count(); ++i) {
        if (slot_.size() < group_count) slot_.push_back({w, i});
      }
    }
    base_latency_.resize(skeleton_.wraps.size());
    for (std::size_t w = 0; w < base_latency_.size(); ++w) rebase(w);
  }

  /// Stage latency with group p -> a and group q -> b, everything else as
  /// currently committed.
  TimeMs eval_pair(std::size_t p, std::size_t q,
                   const std::vector<FunctionId>& a,
                   const std::vector<FunctionId>& b) const {
    TimeMs stage = 0.0;
    for (std::size_t w = 0; w < skeleton_.wraps.size(); ++w) {
      TimeMs lat = base_latency_[w];
      if (w == slot_[p].wrap || w == slot_[q].wrap) {
        Wrap wrap = skeleton_.wraps[w];
        if (w == slot_[p].wrap) group(wrap, p).functions = a;
        if (w == slot_[q].wrap) group(wrap, q).functions = b;
        lat = predictor_.wrap_latency(wrap, mode_);
      }
      stage = std::max(stage, predictor_.wrap_offset(w) + lat);
    }
    return stage;
  }

  /// Writes the committed contents of groups p and q into the skeleton
  /// and re-bases the wraps holding them.
  void refresh(std::size_t p, std::size_t q,
               const std::vector<std::vector<FunctionId>>& sets) {
    for (std::size_t g : {p, q}) {
      group(skeleton_.wraps[slot_[g].wrap], g).functions = sets[g];
    }
    rebase(slot_[p].wrap);
    if (slot_[q].wrap != slot_[p].wrap) rebase(slot_[q].wrap);
  }

 private:
  struct Slot {
    std::size_t wrap;
    std::size_t process;
  };

  ProcessGroup& group(Wrap& wrap, std::size_t g) const {
    return wrap.processes[slot_[g].process];
  }

  void rebase(std::size_t w) {
    base_latency_[w] = predictor_.wrap_latency(skeleton_.wraps[w], mode_);
  }

  const Predictor& predictor_;
  const IsolationMode mode_;
  StagePlan skeleton_;
  std::vector<Slot> slot_;            // group -> (wrap, process)
  std::vector<TimeMs> base_latency_;  // committed latency of each wrap
};

}  // namespace

PgpScheduler::PgpScheduler(PgpConfig config, Workflow wf,
                           std::vector<FunctionBehavior> profiles)
    : config_(std::move(config)),
      wf_(std::move(wf)),
      predictor_(
          PredictorConfig{config_.params, config_.runtime,
                          config_.conservative_factor,
                          config_.prediction_cache},
          std::move(profiles)) {
  if (predictor_.profiles().size() < wf_.function_count()) {
    throw std::invalid_argument("profiles do not cover the workflow");
  }
  conflicted_.reserve(wf_.stage_count());
  for (StageId s = 0; s < wf_.stage_count(); ++s) {
    conflicted_.push_back(compute_conflicted(wf_, s));
  }
}

std::size_t PgpScheduler::search_wrap_count(std::size_t group_count) const {
  if (group_count == 0) return 0;
  const double ratio =
      config_.params.rpc_ms / std::max(config_.params.process_block_ms, 1e-6);
  const std::size_t fill =
      std::max<std::size_t>(1, static_cast<std::size_t>(ratio));
  return (group_count + fill - 1) / fill;
}

std::vector<ProcessGroup> PgpScheduler::partition_stage(
    StageId s, std::size_t n, PgpStats& stats) const {
  const std::vector<FunctionId>& conflicted = conflicted_functions(s);
  const std::set<FunctionId> conflicted_set(conflicted.begin(),
                                            conflicted.end());
  std::vector<FunctionId> fns;
  for (FunctionId f : wf_.stage(s).functions) {
    if (!conflicted_set.count(f)) fns.push_back(f);
  }
  if (fns.empty()) return {};

  std::size_t k = std::min<std::size_t>(n, fns.size());
  // MPK pkey exhaustion: a process cannot isolate more than
  // kMpkMaxThreadsPerProcess threads, so wide stages need a process-count
  // floor regardless of the requested n.
  if (config_.mode == IsolationMode::kMpk) {
    const std::size_t floor_k =
        (fns.size() + kMpkMaxThreadsPerProcess - 1) /
        kMpkMaxThreadsPerProcess;
    k = std::max(k, floor_k);
  }
  // Round-robin init (Algorithm 2 line 9): {f1, f_{n+1}, ...}, {f2, ...}.
  std::vector<std::vector<FunctionId>> sets(k);
  for (std::size_t i = 0; i < fns.size(); ++i) sets[i % k].push_back(fns[i]);

  if (config_.use_kl && k > 1 && fns.size() <= config_.kl_function_limit) {
    obs::ScopedSpan kl_span(obs::Tracer::global(), "pgp.kl_refine", "deploy",
                            {{"stage", static_cast<double>(s)},
                             {"processes", static_cast<double>(k)}});
    // KL over every pair of process sets (Algorithm 2 lines 10-11). The
    // evaluator re-simulates only the wraps holding the swapped pair and
    // reuses every untouched group's latency (see StageEvaluator).
    StageEvaluator evaluator(
        predictor_, config_.mode,
        layout_stage(s, to_groups(sets), search_wrap_count(k)), k);
    for (std::size_t p = 0; p + 1 < sets.size(); ++p) {
      for (std::size_t q = p + 1; q < sets.size(); ++q) {
        PairLatencyEval eval = [&](const std::vector<FunctionId>& a,
                                   const std::vector<FunctionId>& b) {
          ++stats.predictor_calls;
          return evaluator.eval_pair(p, q, a, b);
        };
        KlResult kl = kernighan_lin(sets[p], sets[q], eval);
        stats.kl_evaluations += kl.evaluations;
        sets[p] = std::move(kl.a);
        sets[q] = std::move(kl.b);
        evaluator.refresh(p, q, sets);
      }
    }
  }
  return to_groups(std::move(sets));
}

StagePlan PgpScheduler::layout_stage(StageId s,
                                     std::vector<ProcessGroup> groups,
                                     std::size_t wrap_count) const {
  StagePlan sp;
  if (!groups.empty()) {
    const std::size_t w = std::max<std::size_t>(
        1, std::min(wrap_count, groups.size()));
    sp.wraps.resize(w);
    // Balanced contiguous chunks preserve fork order within each wrap.
    const std::size_t base = groups.size() / w;
    const std::size_t extra = groups.size() % w;
    std::size_t next = 0;
    for (std::size_t i = 0; i < w; ++i) {
      const std::size_t take = base + (i < extra ? 1 : 0);
      for (std::size_t j = 0; j < take; ++j) {
        ProcessGroup g = groups[next++];
        // Only the first wrap hosts the resident orchestrator; groups
        // landing elsewhere must fork.
        if (g.mode == ExecMode::kThread && !(i == 0 && j == 0)) {
          g.mode = ExecMode::kProcess;
        }
        sp.wraps[i].processes.push_back(std::move(g));
      }
    }
  }
  // Conflicted functions: dedicated single-function sandboxes (§3.4).
  for (FunctionId f : conflicted_functions(s)) {
    Wrap w;
    ProcessGroup g;
    g.functions = {f};
    g.mode = ExecMode::kThread;  // sole occupant of its sandbox
    w.processes.push_back(std::move(g));
    sp.wraps.push_back(std::move(w));
  }
  if (sp.wraps.empty()) {
    throw std::logic_error("stage layout produced no wraps");
  }
  return sp;
}

PgpScheduler::OuterOutcome PgpScheduler::evaluate_outer(std::size_t n) const {
  obs::ScopedSpan iter_span(obs::Tracer::global(), "pgp.outer_iteration",
                            "deploy", {{"n", static_cast<double>(n)}});
  OuterOutcome out;
  out.candidate.mode = config_.mode;
  for (StageId s = 0; s < wf_.stage_count(); ++s) {
    out.groups.push_back(partition_stage(s, n, out.stats));
    out.candidate.stages.push_back(layout_stage(
        s, out.groups.back(), search_wrap_count(out.groups.back().size())));
  }
  ++out.stats.predictor_calls;
  out.latency = predictor_.workflow_latency(out.candidate);
  return out;
}

PgpResult PgpScheduler::schedule(TimeMs slo_ms) const {
  obs::Tracer& tracer = obs::Tracer::global();
  obs::ScopedSpan schedule_span(tracer, "pgp.schedule", "deploy",
                                {{"slo_ms", slo_ms}});
  PgpResult result;
  const std::size_t max_n = std::max<std::size_t>(1, wf_.max_parallelism());

  // Outer loop (Algorithm 2 lines 3-12): grow n until the SLO is met.
  // With deploy_threads > 1, upcoming process counts are evaluated
  // speculatively in widening waves, each wave one fork-join region (a
  // one-n wave starts no thread); results are consumed in ascending n,
  // the smallest SLO-meeting n is committed, and the stats of overshot
  // counts are discarded — so plan and telemetry are identical to the
  // sequential search. The width ramp (1, 2, 4, ...) keeps generous-SLO
  // deployments (where n = 1 already fits) from paying for wasted
  // speculation.
  std::vector<std::vector<ProcessGroup>> stage_groups(wf_.stage_count());
  WrapPlan plan;
  TimeMs predicted = kInfiniteTime;
  std::size_t chosen_n = max_n;
  const std::size_t threads = resolve_workers(config_.deploy_threads);
  std::size_t next_n = 1;
  std::size_t width = 1;
  bool met = false;
  while (next_n <= max_n && !met) {
    const std::size_t batch = std::min(width, max_n - next_n + 1);
    auto outcomes = fork_join(threads, batch, [&](std::size_t i) {
      return evaluate_outer(next_n + i);
    });
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t n = next_n + i;
      OuterOutcome& out = outcomes[i];
      ++result.stats.outer_iterations;
      result.stats.kl_evaluations += out.stats.kl_evaluations;
      result.stats.predictor_calls += out.stats.predictor_calls;
      if (out.latency <= slo_ms) {
        plan = std::move(out.candidate);
        predicted = out.latency;
        stage_groups = std::move(out.groups);
        chosen_n = n;
        met = true;
        break;
      }
      if (out.latency < predicted) {
        plan = std::move(out.candidate);
        predicted = out.latency;
        stage_groups = std::move(out.groups);
        chosen_n = n;
      }
    }
    next_n += batch;
    width = std::min(threads, width * 2);
  }
  result.processes = chosen_n;
  result.slo_met = predicted <= slo_ms;

  // Resource phases run against a tighter internal target: the SLO, but
  // never giving back more than `resource_slack` of the achieved latency.
  const TimeMs target =
      std::min(slo_ms, predicted * (1.0 + config_.resource_slack));

  // Packing (lines 13-16): per stage, deploy the fewest wraps (max
  // processes per wrap) that keep the whole workflow inside the target.
  if (result.slo_met) {
    obs::ScopedSpan pack_span(tracer, "pgp.pack_wraps", "deploy");
    for (StageId s = 0; s < wf_.stage_count(); ++s) {
      const std::size_t group_count = stage_groups[s].size();
      for (std::size_t w = 1; w <= std::max<std::size_t>(1, group_count); ++w) {
        WrapPlan candidate = plan;
        candidate.stages[s] = layout_stage(s, stage_groups[s], w);
        ++result.stats.predictor_calls;
        const TimeMs t = predictor_.workflow_latency(candidate);
        if (t <= target) {
          plan = std::move(candidate);
          predicted = t;
          break;
        }
      }
    }
  }

  // CPU minimisation: smallest allocation inside the target.
  if (config_.minimize_cpus && result.slo_met) {
    obs::ScopedSpan cpu_span(tracer, "pgp.min_cpus", "deploy");
    plan = with_min_cpus(predictor_, std::move(plan), target);
    if (plan.cpu_cap > 0) {
      ++result.stats.predictor_calls;
      predicted = predictor_.workflow_latency(plan);
    }
  }

  plan.validate(wf_);
  result.plan = std::move(plan);
  result.predicted_latency_ms = predicted;
  predictor_.publish_cache_metrics();
  return result;
}

WrapPlan PgpScheduler::with_min_cpus(const Predictor& predictor,
                                     WrapPlan plan, TimeMs slo_ms) {
  // Pool deployments parallelise per worker (one per function), process
  // deployments per process; the cap search covers both. Predicted
  // latency is monotone non-increasing in the allocation (every engine in
  // runtime/ only gets faster with more cores), so the smallest feasible
  // cap is found by bisection; with_min_cpus_linear is the tested
  // reference.
  const std::size_t peak =
      plan.mode == IsolationMode::kPool
          ? plan.peak_stage_functions()
          : plan.peak_processes();
  if (peak <= 1) return plan;
  WrapPlan probe = plan;
  probe.cpu_cap = peak - 1;
  if (predictor.workflow_latency(probe) > slo_ms) {
    return plan;  // monotone: if the largest candidate cap misses, all do
  }
  std::size_t lo = 1, hi = peak - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    probe.cpu_cap = mid;
    if (predictor.workflow_latency(probe) <= slo_ms) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  probe.cpu_cap = lo;
  return probe;
}

WrapPlan PgpScheduler::with_min_cpus_linear(const Predictor& predictor,
                                            WrapPlan plan, TimeMs slo_ms) {
  const std::size_t peak =
      plan.mode == IsolationMode::kPool
          ? plan.peak_stage_functions()
          : plan.peak_processes();
  for (std::size_t c = 1; c < peak; ++c) {
    WrapPlan candidate = plan;
    candidate.cpu_cap = c;
    if (predictor.workflow_latency(candidate) <= slo_ms) {
      return candidate;
    }
  }
  return plan;
}

}  // namespace chiron
