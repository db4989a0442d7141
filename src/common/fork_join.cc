#include "common/fork_join.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace chiron {

std::size_t resolve_workers(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void fork_join_each(std::size_t threads, std::size_t count,
                    const std::function<void(std::size_t)>& body) {
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{1};  // the caller takes index 0
  const auto run = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  const auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < count;) run(i);
  };
  {
    const std::size_t n = std::min(threads, count);
    std::vector<std::jthread> helpers;
    helpers.reserve(n - 1);
    for (std::size_t t = 1; t < n; ++t) helpers.emplace_back(drain);
    run(0);
    drain();
  }  // joins the helpers
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace chiron
