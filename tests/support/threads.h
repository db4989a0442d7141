// Thread-count probe for tests that check an object starts no thread it
// keeps.
#pragma once

#include <cstdio>

namespace chiron {
namespace testsupport {

/// Threads of this process, from the `Threads:` line of
/// /proc/self/status; -1 when it cannot be read.
inline long thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long threads = -1;
  while (threads < 0 && std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "Threads: %ld", &threads) != 1) threads = -1;
  }
  std::fclose(f);
  return threads;
}

}  // namespace testsupport
}  // namespace chiron
