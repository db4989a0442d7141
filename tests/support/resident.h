// Resident-set probe for tests that check reserved storage stays untouched
// until it is written.
#pragma once

#include <cstdio>

#include <unistd.h>

namespace chiron {
namespace testsupport {

/// Resident set size in bytes, from /proc/self/statm (pages); -1 when the
/// file cannot be read.
inline long resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long size = 0;
  long resident = -1;
  if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = -1;
  std::fclose(f);
  return resident < 0 ? -1 : resident * sysconf(_SC_PAGESIZE);
}

}  // namespace testsupport
}  // namespace chiron
