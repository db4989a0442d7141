// Fundamental scalar types and identifiers shared across the Chiron
// reproduction. All simulated durations are double milliseconds: the paper
// reports every latency in ms and the GIL switch interval (5 ms default)
// makes sub-millisecond resolution necessary.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace chiron {

/// Simulated time / duration, in milliseconds.
using TimeMs = double;

/// Data sizes in bytes (payloads range from 1 B to 1 GB in Fig. 4).
using Bytes = std::uint64_t;

/// Memory footprints in MiB (the unit the paper reports).
using MemMb = double;

/// Index of a function within a workflow (dense, 0-based).
using FunctionId = std::uint32_t;

/// Index of a stage within a workflow (dense, 0-based).
using StageId = std::uint32_t;

/// Sentinel for "no function".
inline constexpr FunctionId kInvalidFunction =
    std::numeric_limits<FunctionId>::max();

/// A positive infinity useful for "latency of an infeasible plan".
inline constexpr TimeMs kInfiniteTime = std::numeric_limits<TimeMs>::infinity();

inline constexpr Bytes operator"" _KB(unsigned long long v) { return v * 1024ull; }
inline constexpr Bytes operator"" _MB(unsigned long long v) { return v * 1024ull * 1024ull; }
inline constexpr Bytes operator"" _GB(unsigned long long v) { return v * 1024ull * 1024ull * 1024ull; }

/// The language runtime a function targets. Python/Node are
/// pseudo-parallel (GIL); Java supports true thread parallelism (Fig. 18).
enum class Runtime : std::uint8_t {
  kPython3,
  kNodeJs,
  kJava,
};

/// Human-readable runtime name ("python3", "nodejs", "java").
std::string to_string(Runtime rt);

/// Whether threads of this runtime contend on a global interpreter lock.
constexpr bool has_gil(Runtime rt) {
  return rt == Runtime::kPython3 || rt == Runtime::kNodeJs;
}

/// How a function executes inside its wrap (paper §3: execution mode).
enum class ExecMode : std::uint8_t {
  kProcess,  ///< forked process: true parallelism, fork+block overhead
  kThread,   ///< cloned thread: negligible startup, GIL pseudo-parallelism
};

/// Human-readable execution-mode name ("process" / "thread").
std::string to_string(ExecMode m);

/// Thread isolation / execution mechanism variants evaluated in §4 & §6.
enum class IsolationMode : std::uint8_t {
  kNative,  ///< plain threads, no extra isolation
  kMpk,     ///< Intel MPK page-key isolation (Table 1)
  kSfi,     ///< WebAssembly software-fault isolation (Table 1)
  kPool,    ///< process pool: true parallelism, pre-started workers
};

/// Human-readable isolation-mode name ("native"/"mpk"/"sfi"/"pool").
std::string to_string(IsolationMode m);

/// Whether a wrap's functions run truly in parallel (Java threads, or
/// pre-forked pool workers) instead of sharing a GIL per process.
constexpr bool true_parallel(Runtime rt, IsolationMode mode) {
  return rt == Runtime::kJava || mode == IsolationMode::kPool;
}

}  // namespace chiron
