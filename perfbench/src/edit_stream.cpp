// edit_stream: the warm path.  full(old) is loaded cold during set-up; a
// seeded chain of single-router edits is then pushed as IR through
// Session::update, each followed by the battery.
#include "fuzz/edits.hpp"
#include "gen/datasets.hpp"
#include "ir/frontend.hpp"
#include "support/util.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace expresso;

namespace {
constexpr std::uint64_t kChainStream = 0xed175ULL << 20;
}  // namespace

Run edit_stream(const Args& a, Layers& layers) {
  Run run;
  run.threads = 1;
  Layers off(false);
  Probe quiet(off);  // set-up work is never traced

  const std::string text =
      a.smoke ? gen::make_region(gen::csp_region_specs(gen::Snapshot::kOld)[0],
                                 0, a.seed)
                    .config_text
              : gen::make_csp_wan(gen::Snapshot::kOld, a.seed, 10).config_text;
  const std::vector<ir::RouterConfig> initial = ir::parse_configs(text);

  std::unique_ptr<Session> session;
  for (int i = 0; i < 3; ++i) {
    const double t0 = wall_now();
    session = std::make_unique<Session>(kSerial);
    session->load(initial);
    run_battery(*session, Battery::kCsp, quiet);
    run.setup_seconds.push_back(wall_now() - t0);
  }
  Session& s = *session;

  // Verdicts of every cold edit, and of a seeded twentieth of the warm ones,
  // are checked against a serial cold Session after the timed phase.
  const int edits = a.smoke ? 6 : std::max(100, a.seconds * 10);
  SplitMix64 sampler(a.seed ^ 0x5eed5eedULL);
  struct Checked {
    int edit;
    std::vector<ir::RouterConfig> configs;
    std::string digest;
  };
  std::vector<Checked> checked;

  Probe probe(layers);
  std::vector<ir::RouterConfig> base = initial;
  for (int e = 0; e < edits; ++e) {
    const bool sampled = sampler.chance(1, 20) || a.smoke;
    // The edit is derived off the timed path.  Edit e draws its kind from
    // the same random stream in every run (the seed picks the network, so
    // the edited routers and prefixes differ): the mix of cheap, warm and
    // cold edits, which sets the median, stays the same across seeds.  An
    // edit whose run does not converge is timed and checked like any other,
    // but the chain continues from the last snapshot that converged: a
    // dispute wheel would otherwise swallow the rest of the chain.
    fuzz::Edit edit = fuzz::apply_random_edit(
        base, kChainStream + static_cast<std::uint64_t>(e));
    std::vector<ir::RouterConfig> pushed = edit.configs;
    run.attempted += 1;
    try {
      BddWatch watch;
      if (probe.on()) watch.begin(s);
      OpTimer op(run);
      probe.time("session.load_ms", [&] { s.update(std::move(pushed)); });
      const Verdicts v = run_battery(s, Battery::kCsp, probe);
      op.stop();
      watch.end(s, probe);
      if (sampled || !v.warm) checked.push_back({e, edit.configs, digest(s, v)});
      if (v.converged) base = std::move(edit.configs);
    } catch (const std::exception& ex) {
      run.fail("edit " + std::to_string(e) + " (" + edit.description +
               "): " + ex.what());
    }
  }
  run.trace_overhead_s = probe.overhead_s;
  session.reset();

  std::vector<std::string> expected(checked.size());
  parallel_for(checked.size(), [&](std::size_t i) {
    Probe quiet(off);
    Session ref(kSerial);
    ref.load(checked[i].configs);
    expected[i] = digest(ref, run_battery(ref, Battery::kCsp, quiet));
  });
  if (a.corrupt_reference && !expected.empty()) expected[0] += "corrupted\n";
  for (std::size_t i = 0; i < checked.size(); ++i) {
    if (checked[i].digest != expected[i]) {
      run.fail("edit " + std::to_string(checked[i].edit) +
               ": verdicts differ from a serial cold Session");
    }
  }
  return run;
}

}  // namespace perfbench
