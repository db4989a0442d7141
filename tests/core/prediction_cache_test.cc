#include "core/prediction_cache.h"

#include <gtest/gtest.h>

#include "core/pgp.h"
#include "core/predictor.h"
#include "obs/metrics.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

InterleaveResult result_with_makespan(TimeMs ms) {
  InterleaveResult r;
  r.makespan = ms;
  return r;
}

TEST(PredictionCacheTest, MissThenInsertThenHit) {
  PredictionCache cache;
  const GroupCacheKey key{{0, 1, 2}, ExecMode::kThread,
                          IsolationMode::kNative, 0, false};
  EXPECT_EQ(cache.lookup(key), nullptr);
  cache.insert(key, result_with_makespan(12.5));
  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->makespan, 12.5);
  const PredictionCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(PredictionCacheTest, FunctionOrderIsPartOfTheKey) {
  // Thread spawn order staggers ready times, so {0,1} and {1,0} are
  // distinct simulations and must not alias.
  PredictionCache cache;
  const GroupCacheKey ab{{0, 1}, ExecMode::kThread, IsolationMode::kNative,
                         0, false};
  const GroupCacheKey ba{{1, 0}, ExecMode::kThread, IsolationMode::kNative,
                         0, false};
  cache.insert(ab, result_with_makespan(1.0));
  EXPECT_EQ(cache.lookup(ba), nullptr);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(PredictionCacheTest, ModeCapAndSpansDisambiguate) {
  PredictionCache cache;
  GroupCacheKey base{{3, 4}, ExecMode::kProcess, IsolationMode::kNative, 0,
                     false};
  cache.insert(base, result_with_makespan(1.0));
  GroupCacheKey thread = base;
  thread.exec_mode = ExecMode::kThread;
  GroupCacheKey mpk = base;
  mpk.isolation = IsolationMode::kMpk;
  GroupCacheKey capped = base;
  capped.cpus = 2;
  GroupCacheKey spans = base;
  spans.record_spans = true;
  for (const GroupCacheKey& k : {thread, mpk, capped, spans}) {
    EXPECT_EQ(cache.lookup(k), nullptr);
  }
}

TEST(PredictionCacheTest, FirstWriterWins) {
  PredictionCache cache;
  const GroupCacheKey key{{7}, ExecMode::kProcess, IsolationMode::kNative, 0,
                          false};
  const auto first = cache.insert(key, result_with_makespan(3.0));
  const auto second = cache.insert(key, result_with_makespan(99.0));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_DOUBLE_EQ(cache.lookup(key)->makespan, 3.0);
}

TEST(PredictionCacheTest, ClearDropsEntriesKeepsCounters) {
  PredictionCache cache;
  const GroupCacheKey key{{1}, ExecMode::kThread, IsolationMode::kNative, 0,
                          false};
  cache.lookup(key);  // miss
  cache.insert(key, result_with_makespan(1.0));
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

TEST(PredictionCacheTest, CachedPredictorMatchesUncached) {
  // The cache must be invisible in every predicted value, across runtimes
  // and isolation modes (including the true-parallel engines). It serves
  // only CPU-capped wraps, so each plan is also predicted on one CPU.
  const Workflow wf = make_finra(12);
  for (Runtime rt : {Runtime::kPython3, Runtime::kJava}) {
    for (IsolationMode mode :
         {IsolationMode::kNative, IsolationMode::kMpk, IsolationMode::kPool}) {
      PredictorConfig cached;
      cached.runtime = rt;
      PredictorConfig uncached = cached;
      uncached.enable_cache = false;
      const Predictor a(cached, true_behaviors(wf));
      const Predictor b(uncached, true_behaviors(wf));
      PgpConfig pgp;
      pgp.mode = mode;
      pgp.runtime = rt;
      pgp.deploy_threads = 1;
      // A tight SLO, so the GIL plans fork more than one process.
      const WrapPlan plan =
          PgpScheduler(pgp, wf, true_behaviors(wf)).schedule(100.0).plan;
      WrapPlan capped = plan;
      capped.cpu_cap = 1;
      // Repeat so the second pass exercises warm-cache reads.
      for (int pass = 0; pass < 2; ++pass) {
        EXPECT_DOUBLE_EQ(a.workflow_latency(plan), b.workflow_latency(plan))
            << "runtime=" << static_cast<int>(rt)
            << " mode=" << static_cast<int>(mode) << " pass=" << pass;
        EXPECT_DOUBLE_EQ(a.workflow_latency(capped),
                         b.workflow_latency(capped))
            << "runtime=" << static_cast<int>(rt)
            << " mode=" << static_cast<int>(mode) << " pass=" << pass
            << " capped";
      }
      // True-parallel configurations (Java threads, pool workers) predict
      // uncapped wraps without per-group simulations, so only the GIL
      // process path is expected to populate the cache here.
      if (rt != Runtime::kJava && mode != IsolationMode::kPool) {
        EXPECT_GT(a.cache_entries(), 0u);
      }
      EXPECT_EQ(b.cache_entries(), 0u);
    }
  }
}

TEST(PredictionCacheTest, SchedulePublishesHitMissCounters) {
  obs::MetricsRegistry& m = obs::MetricsRegistry::global();
  const std::int64_t hits_before =
      m.counter("chiron.predictor.cache.hit").value();
  const std::int64_t misses_before =
      m.counter("chiron.predictor.cache.miss").value();

  // A tight SLO, so PGP caps the CPUs: the cache serves only capped
  // wraps, and the min-CPU bisection re-asks their unchanged groups.
  const Workflow wf = make_finra(25);
  const PgpScheduler scheduler(PgpConfig{}, wf, true_behaviors(wf));
  const PgpResult result = scheduler.schedule(100.0);
  ASSERT_NO_THROW(result.plan.validate(wf));
  ASSERT_GT(result.plan.cpu_cap, 0u);

  const PredictionCache::Stats local = scheduler.predictor().cache_stats();
  EXPECT_GT(local.hits, 0u);    // bisection probes revisit the same groups
  EXPECT_GT(local.misses, 0u);  // every distinct group simulates once

  // schedule() mirrors its counts into the global registry.
  const std::int64_t hits_after =
      m.counter("chiron.predictor.cache.hit").value();
  const std::int64_t misses_after =
      m.counter("chiron.predictor.cache.miss").value();
  EXPECT_EQ(hits_after - hits_before,
            static_cast<std::int64_t>(local.hits));
  EXPECT_EQ(misses_after - misses_before,
            static_cast<std::int64_t>(local.misses));

  // Publishing is delta-based: a second publish with no new traffic must
  // not double-count.
  scheduler.predictor().publish_cache_metrics();
  EXPECT_EQ(m.counter("chiron.predictor.cache.hit").value(), hits_after);
  EXPECT_EQ(m.counter("chiron.predictor.cache.miss").value(), misses_after);
}

TEST(PredictionCacheTest, SchedulerKnobDisablesCache) {
  const Workflow wf = make_finra(10);
  PgpConfig config;
  config.prediction_cache = false;
  const PgpScheduler scheduler(config, wf, true_behaviors(wf));
  scheduler.schedule(300.0);
  EXPECT_EQ(scheduler.predictor().cache_entries(), 0u);
  const PredictionCache::Stats s = scheduler.predictor().cache_stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
}

}  // namespace
}  // namespace chiron
