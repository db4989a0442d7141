// Fork-join over an index range: threads live only while a parallel
// region runs.
//
// Every parallel section in Chiron is one fork-join region: PGP evaluates
// one wave of speculative process counts, a scenario sweep runs its
// (spec, seed) jobs, the windowed engine serves one run. Each starts its
// threads for the region and joins them before returning, so no object
// owns idle workers and no task can wait on a queue it shares with its
// caller. Results come back in index order whatever the thread count, so
// callers that fold them in that order stay bit-identical to a sequential
// loop.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

namespace chiron {

/// Resolves a thread-count knob: 0 means "auto" (hardware concurrency),
/// anything else is taken literally; always at least 1.
std::size_t resolve_workers(std::size_t requested);

/// Runs `body(i)` for every i in [0, count) on min(threads, count)
/// threads, the caller being one of them and always running index 0.
/// The others take indices from an atomic counter. Every thread is joined
/// before this returns; if any call threw, the lowest index's exception
/// is rethrown then. Runs inline when `threads` or `count` is <= 1 (a
/// throw then stops the loop, as a plain loop would).
void fork_join_each(std::size_t threads, std::size_t count,
                    const std::function<void(std::size_t)>& body);

/// fork_join_each, returning `fn(i)`'s results in index order.
template <typename Fn>
auto fork_join(std::size_t threads, std::size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<R>> slots(count);
  fork_join_each(threads, count,
                 [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> results;
  results.reserve(count);
  for (std::optional<R>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace chiron
