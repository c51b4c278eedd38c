#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <cmath>
#include <cstdio>

#include "gen/datasets.hpp"

namespace perfbench {

using expresso::Session;

double wall_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Rusage rusage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Layers ------------------------------------------------------------------

Layers::Acc& Layers::acc(const std::string& name, Kind kind) {
  Acc& a = acc_[name];
  a.kind = kind;
  return a;
}

void Layers::per_op(const std::string& name, double v) {
  if (on_) acc(name, Kind::kPerOp).a += v;
}

void Layers::total(const std::string& name, double v) {
  if (on_) acc(name, Kind::kTotal).a += v;
}

void Layers::peak(const std::string& name, double v) {
  if (!on_) return;
  Acc& a = acc(name, Kind::kPeak);
  a.a = std::max(a.a, v);
}

void Layers::ratio(const std::string& name, double num, double den) {
  if (!on_) return;
  Acc& a = acc(name, Kind::kRatio);
  a.a += num;
  a.b += den;
}

double Layers::value(const std::string& name, std::size_t ops) const {
  const auto it = acc_.find(name);
  if (it == acc_.end()) return 0;
  const Acc& a = it->second;
  switch (a.kind) {
    case Kind::kPerOp:
      return ops > 0 ? a.a / static_cast<double>(ops) : 0;
    case Kind::kRatio:
      return a.b > 0 ? a.a / a.b : 0;
    case Kind::kTotal:
    case Kind::kPeak:
      return a.a;
  }
  return 0;
}

// --- battery and digest ------------------------------------------------------

std::size_t Verdicts::violations() const {
  std::size_t n = 0;
  for (const auto& c : checks) n += c.violations.size();
  return n;
}

Verdicts run_battery(Session& s, Battery battery, Probe& probe) {
  Verdicts v;
  probe.time_cpu("epvp.src_ms", "epvp.src_cpu_ms", [&] { s.run_src(); });
  v.converged = s.metrics().gauge("session.converged").value() > 0;
  v.warm = s.engine().warm_started();
  Layers& L = probe.layers();
  if (L.on()) {
    L.per_op("epvp.iterations", s.engine().iterations());
    L.total("epvp.nonconverged", v.converged ? 0 : 1);
    L.ratio("session.warm_share", v.warm ? 1 : 0, 1);
    L.total("session.cold_updates", v.warm ? 0 : 1);
  }
  if (battery == Battery::kInternet2) {
    probe.time("properties.routing_ms", [&] {
      v.checks.push_back({"block_to_external",
                          s.check_block_to_external(
                              expresso::gen::internet2_bte())});
    });
  } else {
    probe.time_cpu("dataplane.spf_ms", "dataplane.spf_cpu_ms",
                   [&] { s.run_spf(); });
    if (L.on()) L.per_op("dataplane.pecs", static_cast<double>(s.pecs().size()));
    probe.time("properties.routing_ms", [&] {
      v.checks.push_back({"route_leak_free", s.check_route_leak_free()});
      v.checks.push_back({"route_hijack_free", s.check_route_hijack_free()});
    });
    probe.time("properties.forwarding_ms", [&] {
      v.checks.push_back(
          {"traffic_hijack_free", s.check_traffic_hijack_free()});
      v.checks.push_back({"loop_free", s.check_loop_free()});
    });
  }
  L.per_op("properties.violations", static_cast<double>(v.violations()));
  return v;
}

std::string digest(Session& s, const Verdicts& v) {
  auto& mgr = s.engine().encoding().mgr();
  const auto& nodes = s.network().nodes();
  auto name = [&nodes](expresso::net::NodeIndex u) {
    return u < nodes.size() ? nodes[u].name : "#" + std::to_string(u);
  };
  std::vector<std::string> lines;
  for (const auto& c : v.checks) {
    for (const auto& viol : c.violations) {
      std::string line = std::string(c.property) + "|" + name(viol.node) + "|";
      for (std::size_t i = 0; i < viol.path.size(); ++i) {
        if (i > 0) line += ">";
        line += name(viol.path[i]);
      }
      char density[32];
      std::snprintf(density, sizeof density, "%.9g",
                    std::log2(mgr.density(viol.condition)));
      lines.push_back(line + "|" + density);
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out = v.converged ? "converged\n" : "diverged\n";
  for (const auto& l : lines) out += l + "\n";
  return out;
}

// --- BDD telemetry -----------------------------------------------------------

void BddWatch::begin(Session& s) {
  if (!s.loaded()) {
    universe_misses_ = 0;
    before_ = {};
    return;
  }
  universe_misses_ = s.metrics().counter("stage.universe.misses").value();
  before_ = s.engine().encoding().mgr().telemetry();
}

void BddWatch::end(Session& s, Probe& probe) {
  Layers& L = probe.layers();
  if (!L.on()) return;
  const double t0 = wall_now();
  const auto after = s.engine().encoding().mgr().telemetry();
  // A cold restart swapped in a fresh manager: its counters started at zero
  // inside this operation.
  const bool fresh =
      s.metrics().counter("stage.universe.misses").value() != universe_misses_;
  const auto b = fresh ? expresso::bdd::Manager::Telemetry{} : before_;
  const double hits = static_cast<double>(after.ite_hits - b.ite_hits);
  const double misses = static_cast<double>(after.ite_misses - b.ite_misses);
  L.peak("bdd.nodes_peak", static_cast<double>(after.nodes));
  L.per_op("bdd.ite_lookups", hits + misses);
  L.ratio("bdd.ite_hit_rate", hits, hits + misses);
  L.total("bdd.gc_runs", static_cast<double>(after.gc_runs - b.gc_runs));
  L.total("bdd.gc_reclaimed",
          static_cast<double>(after.gc_reclaimed - b.gc_reclaimed));
  L.total("bdd.lock_contended", static_cast<double>(after.stripe_lock_contended -
                                                    b.stripe_lock_contended));
  L.per_op("bdd.lock_wait_ms", (after.stripe_lock_wait_seconds -
                                b.stripe_lock_wait_seconds) * 1e3);
  probe.overhead_s += wall_now() - t0;
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double geomean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double log_sum = 0;
  for (double s : samples) log_sum += std::log(s);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

// --- run record --------------------------------------------------------------

void Run::fail(const std::string& why) {
  failed += 1;
  failures.push_back(why);
}

OpTimer::OpTimer(Run& run) : run_(run), t0_(wall_now()), r0_(rusage_now()) {}

void OpTimer::stop() {
  const double wall = wall_now() - t0_;
  const Rusage r1 = rusage_now();
  run_.op_seconds.push_back(wall);
  run_.timed_ops += 1;
  run_.timed_wall_s += wall;
  run_.timed_cpu.user_s += r1.user_s - r0_.user_s;
  run_.timed_cpu.sys_s += r1.sys_s - r0_.sys_s;
  run_.peak_rss_mb = peak_rss_mb();
}

TimedPhase::TimedPhase(Run& run)
    : run_(run), t0_(wall_now()), r0_(rusage_now()) {}

void TimedPhase::end() {
  const Rusage r1 = rusage_now();
  run_.timed_wall_s = wall_now() - t0_;
  run_.timed_cpu = {r1.user_s - r0_.user_s, r1.sys_s - r0_.sys_s};
  run_.peak_rss_mb = peak_rss_mb();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t width = std::min<std::size_t>(n, std::clamp(hw, 1u, 4u));
  for (std::size_t t = 0; t < width; ++t) threads.emplace_back(worker);
  for (auto& th : threads) th.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace perfbench
