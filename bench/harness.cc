#include "harness.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <regex>
#include <stdexcept>

namespace chiron::bench {
namespace {

struct Entry {
  std::string family;
  BenchmarkFunction fn;
  Shape shape;
};

std::vector<Entry>& registry() {
  static std::vector<Entry> entries;
  return entries;
}

#ifdef NDEBUG
constexpr const char* kBuildType = "release";
#else
constexpr const char* kBuildType = "debug";
#endif

struct Flags {
  std::string filter = ".";
  double min_time = 0.5;  // seconds of wall time per timed batch
  std::int64_t repetitions = 1;
  bool aggregates_only = false;
  std::string out;
};

/// A JSON row's numbers: real_time, cpu_time, iterations and counters.
using Row = std::map<std::string, double>;

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Runs `body` in batches that grow as google-benchmark's do (aim 40 %
/// past min_time, at most 10x a step) until one lasts min_time of wall
/// time; the shorter batches before it only warm up. Times are per
/// iteration of that last batch, in units of `unit_ns`.
Row measure(const Timed& timed, double min_time, double unit_ns) {
  const double min_ns = min_time * 1e9;
  for (std::int64_t iters = 1;;) {
    const double cpu0 = thread_cpu_ns();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < iters; ++i) timed.body();
    const double real = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const double cpu = thread_cpu_ns() - cpu0;
    const auto n = static_cast<double>(iters);
    if (real >= min_ns) {
      Row row = timed.counters ? timed.counters() : Row{};
      row["iterations"] = n;
      row["real_time"] = real / n / unit_ns;
      row["cpu_time"] = cpu / n / unit_ns;
      return row;
    }
    const double grow =
        real > 0.1 * min_ns ? std::min(1.4 * min_ns / real, 10.0) : 10.0;
    iters = std::max(iters + 1, static_cast<std::int64_t>(n * grow));
  }
}

constexpr const char* kStatistics[] = {"mean", "median", "stddev"};

/// The kStatistics of every field over an instance's (two or more)
/// repetitions; stddev is the sample standard deviation.
std::array<Row, 3> aggregate(const std::vector<Row>& reps) {
  const auto count = static_cast<double>(reps.size());
  std::array<Row, 3> out;
  for (const auto& [key, unused] : reps.front()) {
    std::vector<double> v;
    for (const Row& r : reps) v.push_back(r.at(key));
    std::sort(v.begin(), v.end());
    double mean = 0.0, ss = 0.0;
    for (double x : v) mean += x / count;
    for (double x : v) ss += (x - mean) * (x - mean);
    out[0][key] = mean;
    out[1][key] = (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2.0;
    out[2][key] = std::sqrt(ss / (count - 1.0));
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Entry names are identifiers the suites choose, so nothing is escaped.
std::string json_row(const std::string& name, const std::string& run_name,
                     const std::string& aggregate_name, const char* unit,
                     const Row& fields, const std::string& extra = "") {
  std::string row = "{\"name\": \"" + name + "\", \"run_name\": \"" +
                    run_name + "\", \"run_type\": ";
  row += aggregate_name.empty()
             ? "\"iteration\""
             : "\"aggregate\", \"aggregate_name\": \"" + aggregate_name + "\"";
  row += ", \"time_unit\": \"" + std::string(unit) + "\"" + extra;
  for (const auto& [key, value] : fields) {
    row += ", \"" + key + "\": " + num(value);
  }
  return row + "}";
}

void run(const Flags& flags) {
  std::ofstream file;
  if (!flags.out.empty()) {
    file.open(flags.out);
    if (!file) {
      throw std::invalid_argument("cannot write --benchmark_out=" + flags.out +
                                  ": " + std::strerror(errno));
    }
  }
  double load = NAN;
  getloadavg(&load, 1);
  const std::string head =
      std::string("{\"library_build_type\": \"") + kBuildType +
      "\", \"num_cpus\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"load_avg_1min\": " + num(load) + "}";
  const std::regex filter(flags.filter);
  // Every selected instance, set up before any is timed.
  struct Instance {
    const Entry* entry;
    std::int64_t size;
    std::string name;
    Timed timed;
    std::vector<Row> reps;
  };
  std::vector<Instance> instances;
  for (const Entry& e : registry()) {
    for (std::int64_t size : e.shape.sizes) {
      std::string name = e.family + (size ? "/" + std::to_string(size) : "") +
                         (e.shape.real_time ? "/real_time" : "");
      if (!std::regex_search(name, filter)) continue;
      instances.push_back({&e, size, std::move(name), e.fn(size), {}});
    }
  }
  // Repetition r of every instance runs before repetition r + 1, so a
  // stretch of host noise lands on every instance alike rather than on
  // all repetitions of one of them.
  for (std::int64_t r = 0; r < flags.repetitions; ++r) {
    for (Instance& in : instances) {
      in.reps.push_back(measure(in.timed, flags.min_time,
                                in.entry->shape.ms ? 1e6 : 1.0));
    }
  }
  std::vector<std::string> rows;
  for (auto in = instances.begin(); in != instances.end();) {
    const Entry& e = *in->entry;
    const std::string suffix = e.shape.real_time ? "/real_time" : "";
    const char* unit = e.shape.ms ? "ms" : "ns";
    const double unit_ns = e.shape.ms ? 1e6 : 1.0;
    std::vector<double> n, cpu, real;  // the fit's input, in ns
    for (; in != instances.end() && in->entry == &e; ++in) {
      for (const Row& rep : in->reps) {
        n.push_back(static_cast<double>(in->size));
        cpu.push_back(rep.at("cpu_time") * unit_ns);
        real.push_back(rep.at("real_time") * unit_ns);
        if (!flags.aggregates_only || flags.repetitions == 1) {
          rows.push_back(json_row(in->name, in->name, "", unit, rep));
        }
      }
      if (flags.repetitions == 1) continue;
      const std::array<Row, 3> stats = aggregate(in->reps);
      for (std::size_t i = 0; i < stats.size(); ++i) {
        rows.push_back(json_row(in->name + "_" + kStatistics[i], in->name,
                                kStatistics[i], unit, stats[i]));
      }
    }
    if (std::adjacent_find(n.begin(), n.end(), std::not_equal_to<>()) !=
        n.end()) {  // two or more sizes ran
      const BigO fit = fit_big_o(n, cpu, real);
      rows.push_back(json_row(e.family + suffix + "_BigO", e.family + suffix,
                              "BigO", "ns",
                              {{"cpu_coefficient", fit.cpu_coefficient},
                               {"real_coefficient", fit.real_coefficient}},
                              ", \"big_o\": \"" + fit.label + "\""));
    }
  }
  if (rows.empty()) {
    throw std::invalid_argument("--benchmark_filter=" + flags.filter +
                                " matches no benchmark");
  }
  std::ostream& out = flags.out.empty() ? std::cout : file;
  out << "{\n  \"context\": " << head << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    " << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n" << std::flush;
  if (!out) {
    throw std::invalid_argument("cannot write --benchmark_out=" + flags.out);
  }
}

/// `value` as a finite double >= `lo`, all of it, or an error naming
/// `flag`.
double parse_number(const std::string& flag, const std::string& value,
                    double lo) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !std::isfinite(v)) {
    throw std::invalid_argument(flag + " needs a number, got '" + value + "'");
  }
  if (v < lo) {
    throw std::invalid_argument(flag + " must be >= " + num(lo) + ", got " +
                                value);
  }
  return v;
}

/// The flags scripts/bench_guard.py passes, and nothing else.
Flags parse_flags(const std::vector<std::string>& args) {
  Flags flags;
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto fail = [&flag](const std::string& problem) {
      return std::invalid_argument(flag + " " + problem);
    };
    if (flag == "--benchmark_filter") {
      try {
        std::regex{value};
      } catch (const std::regex_error& e) {
        throw fail(std::string("is not a regex: ") + e.what());
      }
      flags.filter = value;
    } else if (flag == "--benchmark_min_time") {
      flags.min_time = parse_number(flag, value, 0.0);
    } else if (flag == "--benchmark_repetitions") {
      const double reps = parse_number(flag, value, 1.0);
      if (reps > 1e6 || reps != std::floor(reps)) {
        throw fail("must be a whole number up to 1000000, got " + value);
      }
      flags.repetitions = static_cast<std::int64_t>(reps);
    } else if (flag == "--benchmark_report_aggregates_only") {
      if (value != "true" && value != "false") {
        throw fail("must be true or false, got '" + value + "'");
      }
      flags.aggregates_only = value == "true";
    } else if (flag == "--benchmark_out") {
      if (value.empty()) throw fail("needs a path");
      flags.out = value;
    } else {
      throw std::invalid_argument("unknown flag '" + arg + "'");
    }
  }
  return flags;
}

}  // namespace

bool RegisterBenchmark(std::string name, BenchmarkFunction fn, Shape shape) {
  if (shape.sizes.empty()) shape.sizes = {0};
  registry().push_back({std::move(name), std::move(fn), std::move(shape)});
  return true;
}

BigO fit_big_o(const std::vector<double>& n, const std::vector<double>& cpu,
               const std::vector<double>& real) {
  struct Curve {
    const char* label;
    double (*g)(double);
  };
  static constexpr Curve kCurves[] = {
      {"(1)", [](double) { return 1.0; }},
      {"lgN", [](double x) { return std::log2(x); }},
      {"N", [](double x) { return x; }},
      {"NlgN", [](double x) { return x * std::log2(x); }},
      {"N^2", [](double x) { return x * x; }},
      {"N^3", [](double x) { return x * x * x; }},
  };
  // {coefficient, rms} of one curve.
  const auto fit = [&n](const std::vector<double>& t, const Curve& curve) {
    double gg = 0.0, tg = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < n.size(); ++i) {
      const double g = curve.g(n[i]);
      gg += g * g;
      tg += t[i] * g;
      sum += t[i];
    }
    const double c = tg / gg;
    double rss = 0.0;
    for (std::size_t i = 0; i < n.size(); ++i) {
      rss += std::pow(t[i] - c * curve.g(n[i]), 2);
    }
    const auto count = static_cast<double>(n.size());
    return std::pair{c, std::sqrt(rss / count) / (sum / count)};
  };
  const Curve* best = &kCurves[0];
  auto best_cpu = fit(cpu, *best);
  for (const Curve& curve : kCurves) {
    const auto f = fit(cpu, curve);
    if (f.second < best_cpu.second) {
      best = &curve;
      best_cpu = f;
    }
  }
  return {best->label, best_cpu.first, fit(real, *best).first};
}

int run_main(int argc, char** argv) {
  try {
    run(parse_flags({argv + 1, argv + argc}));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}

}  // namespace chiron::bench
