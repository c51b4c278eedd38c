// Shared machinery of the benchmark: the per-run record every workload fills,
// the per-layer accumulators of the traced run, verdict digests, and the
// clocks.  Everything here sits *outside* the library: layer figures are
// taken by timing the benchmark's own calls into each layer's public
// functions, never by reading the library's internal stats views.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "expresso/session.hpp"
#include "properties/analyzer.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Smoke size: a few tiny operations per workload, for the benchmark's own
  // tests.  Never used for measurements.
  bool smoke = false;
  // Test hook: corrupt the first reference digest so the run must count the
  // mismatch as a failed operation.
  bool corrupt_reference = false;
  std::string revision = "unknown";
  std::string record_path;  // append the stamped result here when set
};

// Every Session the benchmark builds runs a serial pipeline (see
// cold_ladder.cpp for why the parallel path is not measured).
inline constexpr expresso::epvp::Options kSerial{.threads = 1};

// Wall and process-CPU clocks.  The CPU clock covers every thread of the
// process, so cpu/wall is the effective parallelism of a call.
double wall_now();
double cpu_now();
struct Rusage {
  double user_s = 0;
  double sys_s = 0;
};
Rusage rusage_now();
double peak_rss_mb();

// Per-layer accumulators of the traced run.  Each metric is one of:
//   per-op  — summed, then divided by the run's operation count;
//   total   — summed over the run;
//   peak    — maximum over the run;
//   ratio   — numerator / denominator, both summed over the run.
class Layers {
 public:
  explicit Layers(bool on) : on_(on) {}
  bool on() const { return on_; }

  void per_op(const std::string& name, double v);
  void total(const std::string& name, double v);
  void peak(const std::string& name, double v);
  void ratio(const std::string& name, double num, double den);

  // Final value of `name` for a run of `ops` operations; 0 when the layer
  // never ran on this workload.
  double value(const std::string& name, std::size_t ops) const;

 private:
  enum class Kind { kPerOp, kTotal, kPeak, kRatio };
  struct Acc {
    Kind kind = Kind::kTotal;
    double a = 0;
    double b = 0;
  };
  Acc& acc(const std::string& name, Kind kind);

  bool on_;
  std::map<std::string, Acc> acc_;
};

// Times one call when tracing; a plain call otherwise.  The benchmark's own
// instrumentation time (clock reads, telemetry snapshots) is charged to
// `overhead_s` so the traced run can state what tracing itself cost.
class Probe {
 public:
  explicit Probe(Layers& layers) : layers_(layers) {}
  Layers& layers() { return layers_; }
  bool on() const { return layers_.on(); }

  // Runs `f`; when tracing, adds its wall milliseconds to per-op `metric`.
  template <class F>
  void time(const char* metric, F&& f) {
    if (!on()) {
      f();
      return;
    }
    const double t0 = wall_now();
    f();
    const double t1 = wall_now();
    layers_.per_op(metric, (t1 - t0) * 1e3);
    overhead_s += wall_now() - t1;
  }
  // As time(), and also charges process CPU to `cpu_metric` and the call to
  // the support.cpu_per_wall ratio.
  template <class F>
  void time_cpu(const char* metric, const char* cpu_metric, F&& f) {
    if (!on()) {
      f();
      return;
    }
    const double c0 = cpu_now();
    const double t0 = wall_now();
    f();
    const double t1 = wall_now();
    const double c1 = cpu_now();
    layers_.per_op(metric, (t1 - t0) * 1e3);
    layers_.per_op(cpu_metric, (c1 - c0) * 1e3);
    layers_.ratio("support.cpu_per_wall", c1 - c0, t1 - t0);
    overhead_s += wall_now() - t1;
  }

  double overhead_s = 0;

 private:
  Layers& layers_;
};

// Which property checks a verification runs.
enum class Battery {
  kCsp,       // route-leak, route-hijack, traffic-hijack, loop
  kInternet2  // BlockToExternal with the Internet2 generator's community
};

struct CheckResult {
  const char* property;
  std::vector<expresso::properties::Violation> violations;
};

// One verification's outcome as the benchmark sees it.
struct Verdicts {
  std::vector<CheckResult> checks;
  bool converged = false;
  bool warm = false;
  std::size_t violations() const;
};

// Drives SRC, SPF (when the battery needs it) and the battery on a loaded
// session, timing each layer through `probe`.
Verdicts run_battery(expresso::Session& session, Battery battery,
                     Probe& probe);

// Order-independent digest of a verification: per violation its property,
// node, path and the log2 density of its condition (the share of all
// assignments satisfying it), sorted, plus the converged flag.  It depends
// neither on BDD node ids nor on the variable order or numbering, nor on how
// verdicts are rendered for the wire.  Density rather than
// bdd::Manager::log2_sat_count: the count ranges over every variable below
// the condition's top level, and a warm manager keeps the data-plane
// variables earlier snapshots allocated.
std::string digest(expresso::Session& session, const Verdicts& v);

// BDD substrate telemetry across one operation (bdd::Manager::telemetry()).
// A Session builds a fresh manager on a cold restart; the universe counter in
// Session::metrics() tells the two cases apart, so deltas never mix
// managers.
class BddWatch {
 public:
  void begin(expresso::Session& session);
  void end(expresso::Session& session, Probe& probe);

 private:
  std::uint64_t universe_misses_ = 0;
  expresso::bdd::Manager::Telemetry before_{};
};

// Nearest-rank percentile (p in [0,100]) of unsorted samples.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);
double geomean(const std::vector<double>& samples);

// What a workload hands back to main().
struct Run {
  std::vector<double> op_seconds;  // time to verdict of each operation
  std::vector<double> setup_seconds;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // one line per failed operation
  std::size_t timed_ops = 0;          // operations behind the two totals
  double timed_wall_s = 0;            // wall of the timed operations
  Rusage timed_cpu;                   // process CPU of the timed operations
  double peak_rss_mb = 0;             // taken when the timed operations end
  std::vector<std::string> notes;     // extra lines for the human reader
  int threads = 1;                    // pipeline threads of the timed path
  double trace_overhead_s = 0;        // instrumentation time (traced run)

  void fail(const std::string& why);
};

// Times one sequential operation: its wall time becomes a sample of
// run.op_seconds, and its wall and process CPU add to the run's timed totals,
// so work the benchmark does between operations is never counted.
class OpTimer {
 public:
  explicit OpTimer(Run& run);
  void stop();

 private:
  Run& run_;
  double t0_;
  Rusage r0_;
};

// Runs fn(0) .. fn(n-1) on min(4, nproc) threads and waits for all of them.
// Reference checks use it off the timed path; each call must touch only its
// own Session.  The first exception is rethrown after every thread ended.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

// Times a concurrent phase as a whole (the daemon's tenants).
class TimedPhase {
 public:
  explicit TimedPhase(Run& run);
  void end();

 private:
  Run& run_;
  double t0_;
  Rusage r0_;
};

}  // namespace perfbench
