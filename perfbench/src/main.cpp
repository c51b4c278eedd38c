// perfbench: the repository benchmark.  One workload per invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--corrupt-reference] [--revision REV]
//             [--record PATH]
//
// Prints every metric by name with its unit, a stamp line (host, build,
// revision, pipeline threads), and as the last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1.  perfbench/run.py builds this binary and forwards its arguments.
#include <cpuid.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "support/json_writer.hpp"
#include "support/util.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" list.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"verify_geomean_s", "s"},
    {"verify_total_s", "s"},   {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"ops_per_s", "1/s"},
    {"cpu_ms_per_op", "ms"},   {"peak_rss_mb", "MB"},
};

// Must match BENCHMARK.json's "per_layer" list.
constexpr Metric kPerLayer[] = {
    {"session.load_ms", "ms"},         {"session.warm_share", "ratio"},
    {"session.cold_updates", "count"}, {"ir.parse_ms", "ms"},
    {"net.build_ms", "ms"},            {"epvp.src_ms", "ms"},
    {"epvp.src_cpu_ms", "ms"},         {"epvp.iterations", "count"},
    {"epvp.nonconverged", "count"},    {"dataplane.spf_ms", "ms"},
    {"dataplane.spf_cpu_ms", "ms"},    {"dataplane.pecs", "count"},
    {"properties.routing_ms", "ms"},   {"properties.forwarding_ms", "ms"},
    {"properties.violations", "count"}, {"bdd.nodes_peak", "count"},
    {"bdd.ite_lookups", "count"},      {"bdd.ite_hit_rate", "ratio"},
    {"bdd.gc_runs", "count"},          {"bdd.gc_reclaimed", "count"},
    {"bdd.lock_contended", "count"},   {"bdd.lock_wait_ms", "ms"},
    {"support.cpu_per_wall", "ratio"}, {"process.sys_cpu_ms", "ms"},
    {"service.queue_wait_ms", "ms"},   {"service.server_ms", "ms"},
    {"service.wire_ms", "ms"},         {"service.coalesced", "count"},
    {"service.rejected", "count"},     {"repair.localize_ms", "ms"},
    {"repair.synthesize_ms", "ms"},    {"repair.screens", "count"},
    {"repair.screen_ms", "ms"},        {"repair.cross_check_ms", "ms"},
    {"trace.overhead_ms", "ms"},       {"trace.latency_p50_ms", "ms"},
};

const std::pair<const char*, std::function<Run(const Args&, Layers&)>>
    kWorkloads[] = {
        {"cold_ladder", cold_ladder},
        {"edit_stream", edit_stream},
        {"daemon_tenants", daemon_tenants},
        {"repair_screen", repair_screen},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "                 [--smoke] [--corrupt-reference] "
               "[--revision REV] [--record PATH]\n"
               "workloads: cold_ladder edit_stream daemon_tenants "
               "repair_screen\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = expresso::cli_uint("perfbench", "--seed", value());
    } else if (arg == "--seconds") {
      a.seconds = static_cast<int>(
          expresso::cli_uint("perfbench", "--seconds", value(), 3600));
    } else if (arg == "--trace") {
      a.trace = expresso::cli_uint("perfbench", "--trace", value(), 1) == 1;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else if (arg == "--revision") {
      a.revision = value();
    } else if (arg == "--record") {
      a.record_path = value();
    } else {
      usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

// Shortest decimal that round-trips: every digit as measured.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string stamp_json(const Args& a, const Run& run) {
  expresso::support::JsonWriter w;
  w.begin_object()
      .key("workload").value(a.workload)
      .key("seed").value(static_cast<std::uint64_t>(a.seed))
      .key("seconds").value(static_cast<std::uint64_t>(a.seconds))
      .key("trace").value(a.trace)
      .key("size").value(a.smoke ? "smoke" : "full")
      .key("nproc").value(static_cast<std::uint64_t>(
          std::thread::hardware_concurrency()))
      .key("cpu_model").value(cpu_model())
      .key("build_type").value(PERFBENCH_BUILD_TYPE)
      .key("compiler").value(PERFBENCH_COMPILER)
      .key("revision").value(a.revision)
      .key("threads").value(static_cast<std::uint64_t>(run.threads))
      .end_object();
  return w.take();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);

  // Timings from unoptimised or instrumented code say nothing about the
  // program users run.
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || PERFBENCH_SANITIZED
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimised or sanitizer "
               "build (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  std::function<Run(const Args&, Layers&)> workload;
  for (const auto& [name, fn] : kWorkloads) {
    if (a.workload == name) workload = fn;
  }
  if (!workload) usage(("unknown workload '" + a.workload + "'").c_str());

  Layers layers(a.trace);
  Run run;
  try {
    run = workload(a, layers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  if (run.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted no operation\n",
                 a.workload.c_str());
    return 1;
  }

  const double timed_ops =
      static_cast<double>(std::max<std::size_t>(run.timed_ops, 1));
  double total = 0;
  for (double s : run.op_seconds) total += s;
  const double p50_ms = median(run.op_seconds) * 1e3;

  std::vector<std::pair<Metric, double>> metrics;
  if (!a.trace) {
    const double values[] = {
        median(run.setup_seconds),
        geomean(run.op_seconds),
        total,
        p50_ms,
        percentile(run.op_seconds, 90) * 1e3,
        run.timed_wall_s > 0 ? timed_ops / run.timed_wall_s : 0,
        (run.timed_cpu.user_s + run.timed_cpu.sys_s) * 1e3 / timed_ops,
        run.peak_rss_mb,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    layers.per_op("process.sys_cpu_ms", run.timed_cpu.sys_s * 1e3);
    layers.per_op("trace.overhead_ms", run.trace_overhead_s * 1e3);
    for (const Metric& m : kPerLayer) {
      const std::string name = m.name;
      metrics.emplace_back(m, name == "trace.latency_p50_ms"
                                  ? p50_ms
                                  : layers.value(name, run.attempted));
    }
  }

  const std::string stamp = stamp_json(a, run);
  std::printf("perfbench %s: %zu operations, %zu failed, %zu setups\n",
              a.workload.c_str(), run.attempted, run.failed,
              run.setup_seconds.size());
  for (const auto& n : run.notes) std::printf("%s\n", n.c_str());
  if (run.op_seconds.size() >= 10) {
    // Drift inside the run: machine noise shows as uneven tenths.
    std::printf("mean ms per tenth of the run:");
    const std::size_t n = run.op_seconds.size();
    for (std::size_t t = 0; t < 10; ++t) {
      double sum = 0;
      const std::size_t lo = t * n / 10, hi = (t + 1) * n / 10;
      for (std::size_t i = lo; i < hi; ++i) sum += run.op_seconds[i];
      std::printf(" %.1f", sum * 1e3 / static_cast<double>(hi - lo));
    }
    std::printf("\n");
  }
  for (const auto& f : run.failures) std::printf("failure: %s\n", f.c_str());
  std::printf("stamp %s\n", stamp.c_str());
  for (const auto& [m, v] : metrics) {
    std::printf("%-26s %16s %s\n", m.name, num(v).c_str(), m.unit);
  }
  std::printf("%-26s %16s ratio\n", "error_rate",
              num(static_cast<double>(run.failed) /
                  static_cast<double>(run.attempted))
                  .c_str());

  expresso::support::JsonWriter w;
  w.begin_object()
      .key("correct").value(run.failed == 0)
      .key("attempted").value(static_cast<std::uint64_t>(run.attempted))
      .key("failed").value(static_cast<std::uint64_t>(run.failed))
      .key("metrics").begin_object();
  for (const auto& [m, v] : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value_raw(num(v));
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object().end_object();
  const std::string result = w.take();

  if (!a.record_path.empty()) {
    std::ofstream out(a.record_path, std::ios::app);
    out << "{\"stamp\":" << stamp << ",\"result\":" << result << "}\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot append to %s\n",
                   a.record_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
