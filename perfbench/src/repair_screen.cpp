// repair_screen: repair::repair over seeded planted bugs covering all four
// bug classes, under the default spec with the cold cross-check on.  The
// only workload on src/repair: screens are warm updates of tiny networks,
// and every repair builds one cold Session for its cross-check.
#include "repair/plant.hpp"
#include "repair/repair.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace expresso;

Run repair_screen(const Args& a, Layers& layers) {
  Run run;
  run.threads = 1;
  const std::size_t count =
      a.smoke ? 4 : static_cast<std::size_t>(std::max(100, a.seconds * 20));

  std::vector<repair::plant::Scenario> scenarios;
  // Each set-up takes ~15 ms; the median of many spans the host's slow and
  // fast spells of a second or so, which a median of a few does not.
  for (int i = 0; i < 41; ++i) {
    const double t0 = wall_now();
    scenarios.clear();
    for (std::size_t k = 0; k < count; ++k) {
      scenarios.push_back(repair::plant::make_scenario(a.seed, k));
    }
    run.setup_seconds.push_back(wall_now() - t0);
  }
  if (a.corrupt_reference) scenarios[0].truth.router += "-corrupted";

  const repair::RepairSpec spec;
  Probe probe(layers);
  for (std::size_t k = 0; k < count; ++k) {
    const auto& sc = scenarios[k];
    const std::string name = "scenario " + std::to_string(k) + " (" +
                             repair::plant::to_string(sc.bug) + ")";
    if (probe.on()) {
      // Localization and synthesis on their own, over a separate Session so
      // the timed repair below starts from the same cold state.
      Session s(kSerial);
      probe.time("session.load_ms", [&] { s.load(sc.broken); });
      run_battery(s, Battery::kCsp, probe);
      std::vector<repair::Diagnosis> diagnoses;
      probe.time("repair.localize_ms",
                 [&] { diagnoses = repair::diagnose(s, spec); });
      probe.time("repair.synthesize_ms",
                 [&] { (void)repair::synthesize(s, diagnoses, spec); });
    }
    run.attempted += 1;
    try {
      OpTimer op(run);
      Session s(kSerial);
      s.load(sc.broken);
      const repair::RepairOutcome out = repair::repair(s, spec);
      op.stop();
      BddWatch().end(s, probe);

      Layers& L = probe.layers();
      std::size_t warm = 0;
      for (const auto& c : out.screened) warm += c.warm ? 1 : 0;
      L.total("repair.screens", static_cast<double>(out.screened.size()));
      L.ratio("repair.screen_ms", out.warm_screen_seconds * 1e3,
              static_cast<double>(out.screened.size()));
      L.per_op("repair.cross_check_ms", out.cold_verify_seconds * 1e3);
      L.ratio("session.warm_share", static_cast<double>(warm),
              static_cast<double>(out.screened.size()));
      L.total("session.cold_updates",
              static_cast<double>(out.screened.size() - warm));

      // The planted truth is the reference: the bug must show, rank in the
      // top 3 of some diagnosis, and be repaired by a winner that a cold
      // Session confirms.
      bool localized = false;
      for (const auto& d : out.diagnoses) {
        localized = localized || repair::plant::truth_in_top(d.terms, sc.truth, 3);
      }
      if (out.baseline_violations == 0) {
        run.fail(name + ": planted bug shows no violation");
      } else if (!localized) {
        run.fail(name + ": planted term not in the top 3");
      } else if (!out.winner || !out.clean) {
        run.fail(name + ": no clean repair");
      } else if (!out.cold_check_ran || !out.cold_check_passed) {
        run.fail(name + ": cold cross-check did not confirm the repair");
      }
    } catch (const std::exception& e) {
      run.fail(name + ": " + e.what());
    }
  }
  run.trace_overhead_s = probe.overhead_s;
  return run;
}

}  // namespace perfbench
