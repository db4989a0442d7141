// The in-tree timing harness of the bench_micro_* suites: entries
// registered in the RegisterBenchmark(name, fn(size)) idiom are timed on
// wall and thread-CPU clocks and written as the JSON scripts/bench_guard.py
// folds. Sized families get a <family>_BigO row by google-benchmark's
// fit rule, so fits from before and after the move compare directly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace chiron::bench {

using Counters = std::map<std::string, double>;

/// One instance of an entry, set up: `body` is timed; `counters`, when
/// set, is read after each repetition and written next to its times.
struct Timed {
  std::function<void()> body;
  std::function<Counters()> counters = nullptr;
};

/// Takes a size (0 if unsized), does the setup, returns the body to time.
using BenchmarkFunction = std::function<Timed(std::int64_t size)>;

struct Shape {
  std::vector<std::int64_t> sizes;  // empty or {0}: one unsized instance
  bool ms = false;                  // report times in ms instead of ns
  /// The work runs on other threads, which the CPU clock misses: names
  /// get the /real_time suffix that tells readers to go by wall time.
  bool real_time = false;
};

/// Adds an entry; instances run in registration order, then by size.
bool RegisterBenchmark(std::string name, BenchmarkFunction fn,
                       Shape shape = {});

/// Keeps the compiler from discarding a result the timed body computed.
template <class T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct BigO {
  std::string label;  // (1), lgN, N, NlgN, N^2 or N^3
  double cpu_coefficient = 0.0;
  double real_coefficient = 0.0;
};

/// google-benchmark's least-squares complexity fit: for each candidate
/// g in the order (1), lgN, N, NlgN, N^2, N^3 (lg = log2), coefficient =
/// Σt·g / Σg² and rms = √(Σ(t − c·g)² / n) / mean(t). The lowest CPU-time
/// rms wins, a tie keeping the earlier curve; the real coefficient is fit
/// on wall time with that curve. Coefficients keep the times' unit.
BigO fit_big_o(const std::vector<double>& n, const std::vector<double>& cpu,
               const std::vector<double>& real);

/// Takes only --benchmark_{filter,min_time,repetitions,
/// report_aggregates_only,out}=VALUE; writes the report to the out file
/// or stdout. Returns 2, naming the problem on stderr, on an unknown or
/// malformed flag, a filter matching nothing or an unwritable out file.
int run_main(int argc, char** argv);

}  // namespace chiron::bench
