// cold_ladder: the paper's cold headline (Fig. 6b, Tables 3-4).  A fresh
// serial Session per rung cold-verifies the CSP WAN ladder and Internet2.
//
// The pipeline runs serially: on a 4-core host the parallel path puts one
// rung anywhere between 1x and 2.3x of its time from run to run at 4
// threads, and Internet2 at 2 threads flips between 4.2 s and 6.8 s, so no
// bound could hold a parallel ladder (perfbench/README.md has the figures).
#include <algorithm>
#include <set>

#include "gen/datasets.hpp"
#include "ir/frontend.hpp"
#include "net/network.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace expresso;

namespace {

struct Rung {
  std::string name;
  std::string text;
  Battery battery = Battery::kCsp;
  // Region rungs only: the generator's plants, each of which must show as a
  // violation of its property with the planted router at its node or on its
  // path.  The full snapshots cap the external neighbours at 10, which drops
  // the neighbours some plants need (see perfbench/README.md), so they are
  // held to the cold reference alone.
  std::vector<gen::PlantedViolation> planted;
  // Internet2 only: the neighbours the generator's reachable BTE plants
  // must leak to.
  std::set<std::string> expected_leaks;
};

// The neighbour named in a BTE plant ("export policy towards peerN lacks
// ..."), or "" for the plant whose session strips communities: that one is
// not reachable end to end.
std::string reachable_bte_neighbour(const gen::PlantedViolation& p) {
  if (p.kind != properties::Property::kBlockToExternal ||
      p.description.find("strips communities") != std::string::npos) {
    return "";
  }
  const std::string head = "towards ";
  const auto from = p.description.find(head);
  if (from == std::string::npos) return "";
  const auto start = from + head.size();
  return p.description.substr(start, p.description.find(' ', start) - start);
}

Rung internet2_rung(std::uint64_t seed, int peers, int prefixes) {
  const gen::Dataset d = gen::make_internet2(seed, peers, prefixes);
  Rung r{"internet2", d.config_text, Battery::kInternet2, {}, {}};
  for (const auto& p : d.planted) {
    const std::string n = reachable_bte_neighbour(p);
    if (!n.empty()) r.expected_leaks.insert(n);
  }
  return r;
}

std::vector<Rung> make_rungs(const Args& a) {
  std::vector<Rung> rungs;
  const auto specs = gen::csp_region_specs(gen::Snapshot::kOld);
  const int regions = a.smoke ? 1 : static_cast<int>(specs.size());
  for (int r = 0; r < regions; ++r) {
    const auto d = gen::make_region(specs[r], r, a.seed);
    rungs.push_back({d.name, d.config_text, Battery::kCsp, d.planted, {}});
  }
  if (!a.smoke) {
    rungs.push_back({"full(old)",
                     gen::make_csp_wan(gen::Snapshot::kOld, a.seed, 10).config_text,
                     Battery::kCsp, {}, {}});
    rungs.push_back({"full(new)",
                     gen::make_csp_wan(gen::Snapshot::kNew, a.seed, 10).config_text,
                     Battery::kCsp, {}, {}});
  }
  // Table 4's query at 80 neighbours; the full battery on Internet2 would
  // spend most of the run in SPF.
  rungs.push_back(a.smoke ? internet2_rung(a.seed, 16, 40)
                          : internet2_rung(a.seed, 80, 1000));
  return rungs;
}

std::set<std::string> leaking_neighbours(const Session& s, const Verdicts& v) {
  std::set<std::string> out;
  for (const auto& c : v.checks) {
    for (const auto& viol : c.violations) {
      out.insert(s.network().nodes()[viol.node].name);
    }
  }
  return out;
}

// The plants no violation of their property passes through.
std::vector<std::string> missing_plants(
    const Session& s, const Verdicts& v,
    const std::vector<gen::PlantedViolation>& planted) {
  const auto& nodes = s.network().nodes();
  std::vector<std::string> missing;
  for (const auto& p : planted) {
    const auto at_plant = [&](net::NodeIndex u) {
      return nodes[u].name == p.node;
    };
    bool found = false;
    for (const auto& c : v.checks) {
      for (const auto& viol : c.violations) {
        found = found || (viol.property == p.kind &&
                          (at_plant(viol.node) ||
                           std::any_of(viol.path.begin(), viol.path.end(),
                                       at_plant)));
      }
    }
    if (!found) {
      missing.push_back(std::string(properties::to_string(p.kind)) + "@" +
                        p.node);
    }
  }
  return missing;
}

}  // namespace

Run cold_ladder(const Args& a, Layers& layers) {
  Run run;
  run.threads = 1;

  // Set-up generates the rungs and cold-verifies the smallest one untimed:
  // the first verify in a process runs against a cold allocator, which
  // would otherwise land on region1 alone.
  Layers off(false);
  std::vector<Rung> rungs;
  for (int i = 0; i < 5; ++i) {
    const double t0 = wall_now();
    rungs = make_rungs(a);
    Probe quiet(off);
    Session warmup(kSerial);
    warmup.load(rungs[0].text);
    run_battery(warmup, rungs[0].battery, quiet);
    run.setup_seconds.push_back(wall_now() - t0);
  }

  Probe probe(layers);
  // Longer runs verify every rung once per pass and report its median.
  const int passes = a.smoke ? 1 : std::max(1, a.seconds / 10);
  struct Outcome {
    std::size_t rung;
    std::string digest;
    std::vector<std::string> missing;  // plants not found
    std::set<std::string> leaks;
  };
  std::vector<Outcome> outcomes;
  std::vector<std::vector<double>> rung_seconds(rungs.size());

  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const Rung& rung = rungs[i];
      if (probe.on()) {
        // The parse and topology layers on their own, off the timed path.
        std::vector<ir::RouterConfig> cfgs;
        probe.time("ir.parse_ms", [&] { cfgs = ir::parse_configs(rung.text); });
        probe.time("net.build_ms",
                   [&] { (void)net::Network::build(std::move(cfgs)); });
      }
      run.attempted += 1;
      try {
        OpTimer op(run);
        Session s(kSerial);
        probe.time("session.load_ms", [&] { s.load(rung.text); });
        const Verdicts v = run_battery(s, rung.battery, probe);
        op.stop();
        rung_seconds[i].push_back(run.op_seconds.back());
        BddWatch().end(s, probe);
        outcomes.push_back({i, rung.battery == Battery::kCsp ? digest(s, v) : "",
                            missing_plants(s, v, rung.planted),
                            leaking_neighbours(s, v)});
      } catch (const std::exception& e) {
        run.fail(rung.name + ": " + e.what());
      }
    }
  }
  run.trace_overhead_s = probe.overhead_s;
  // Time to verdict per rung: the median over passes.
  run.op_seconds.clear();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (rung_seconds[i].empty()) continue;
    run.op_seconds.push_back(median(rung_seconds[i]));
    std::string note = "rung " + rungs[i].name + ":";
    for (double t : rung_seconds[i]) note += " " + std::to_string(t);
    run.notes.push_back(note + " s");
  }

  // References.  For a CSP rung: a cold Session loading the rung re-emitted
  // in the RPSL dialect, so it goes through the other frontend and never
  // repeats the timed path byte for byte, and on region rungs the
  // generator's plants.  For Internet2: the generator's record of its
  // reachable plants.
  std::vector<std::string> reference(rungs.size());
  parallel_for(rungs.size(), [&](std::size_t i) {
    if (rungs[i].battery != Battery::kCsp) return;
    Probe quiet(off);
    Session s(kSerial);
    s.load(ir::emit(ir::parse_configs(rungs[i].text), ir::Dialect::kRpsl));
    reference[i] = digest(s, run_battery(s, Battery::kCsp, quiet));
  });
  if (a.corrupt_reference) reference[0] += "corrupted\n";
  // A rung fails once, with every reason it failed.
  for (const auto& o : outcomes) {
    const Rung& rung = rungs[o.rung];
    std::string why;
    if (rung.battery == Battery::kCsp) {
      if (o.digest != reference[o.rung]) {
        why += "; verdicts differ from the RPSL cold reference";
      }
      for (const auto& m : o.missing) why += "; planted " + m + " not found";
    } else if (o.leaks != rung.expected_leaks || rung.expected_leaks.size() != 4) {
      why += "; BlockToExternal neighbours differ from the " +
             std::to_string(rung.expected_leaks.size()) + " reachable plants";
    }
    if (!why.empty()) run.fail(rung.name + ": " + why.substr(2));
  }
  return run;
}

}  // namespace perfbench
