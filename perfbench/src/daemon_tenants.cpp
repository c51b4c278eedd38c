// daemon_tenants: an embedded expressod Server with default options
// (2 workers, serial Sessions) on loopback, driven by one closed-loop tenant
// connection per worker.  Each connection pushes rounds: a fresh fuzz
// scenario under a new tenant name, then its seeded edit chain, all as
// config text, alternating the Huawei and RPSL dialects across connections.
// The networks are small, so text parsing, framing, admission and Session
// set-up dominate; past 64 tenants the server evicts the coldest idle one.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "epvp/engine.hpp"
#include "fuzz/edits.hpp"
#include "fuzz/generator.hpp"
#include "ir/frontend.hpp"
#include "net/network.hpp"
#include "obs/trace_check.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/util.hpp"
#include "symbolic/route.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace expresso;

namespace {

// One tenant's life: a scenario, then its edit chain.
struct Round {
  std::string tenant;
  std::vector<std::string> texts;
  std::vector<std::string> blackhole;
  bool checked = false;  // replayed in-process after the timed phase
};

// Per-request figures the traced run splits into layers, taken from the
// done frame and its "profile" stages.
struct Profile {
  double queue_wait = 0, server = 0, load = 0, src = 0, spf = 0;
  double routing = 0, forwarding = 0;
};

struct Reply {
  bool ok = false;
  std::string error;
  double latency_s = 0;
  bool warm = false;
  bool converged = false;
  Profile profile;
  std::vector<std::string> payloads;  // kept for checked rounds only
};

std::vector<std::vector<Round>> make_rounds(const Args& a, int connections,
                                            int rounds, int edits) {
  std::vector<std::vector<Round>> out(static_cast<std::size_t>(connections));
  SplitMix64 sampler(a.seed ^ 0xdae3011ULL);
  for (int c = 0; c < connections; ++c) {
    const ir::Dialect dialect =
        c % 2 == 0 ? ir::Dialect::kHuawei : ir::Dialect::kRpsl;
    for (int k = 0; k < rounds; ++k) {
      const std::uint64_t seed = a.seed * 7919ULL +
                                 static_cast<std::uint64_t>(c) * 1000003ULL +
                                 static_cast<std::uint64_t>(k) * 104729ULL;
      const fuzz::Scenario sc = fuzz::generate_scenario(seed);
      Round round;
      round.tenant = "tenant-" + std::to_string(c) + "-" + std::to_string(k);
      round.checked = a.smoke || sampler.chance(1, 20);
      for (const auto& p : sc.pool) round.blackhole.push_back(p.to_string());
      std::vector<ir::RouterConfig> cfgs = ir::parse_configs(sc.config_text);
      for (int e = 0; e <= edits; ++e) {
        if (e > 0) {
          cfgs = fuzz::apply_random_edit(
                     cfgs, seed * 31 + static_cast<std::uint64_t>(e) * 7 + 13)
                     .configs;
        }
        round.texts.push_back(ir::emit(cfgs, dialect));
      }
      out[static_cast<std::size_t>(c)].push_back(std::move(round));
    }
  }
  return out;
}

double metrics_counter(const obs::JsonValue& doc, const std::string& name) {
  const auto* counters = doc.find("counters");
  const auto* c = counters != nullptr ? counters->find(name) : nullptr;
  return c != nullptr ? c->num : 0;
}

// The stage spans of one verify are sequential (stage.parse ..
// stage.verdicts); the server renders the route-leak and route-hijack
// verdicts first, then loop, traffic-hijack and blackhole.
Profile split_profile(const service::Client::UpdateResult& r) {
  Profile p;
  p.queue_wait = r.queue_wait_ms;
  int verdicts = 0;
  for (const auto& st : r.profile) {
    if (st.name.rfind("stage.", 0) != 0) continue;
    p.server += st.ms;
    if (st.name == "stage.src") {
      p.src += st.ms;
    } else if (st.name == "stage.spf") {
      p.spf += st.ms;
    } else if (st.name == "stage.verdicts") {
      (verdicts++ < 2 ? p.routing : p.forwarding) += st.ms;
    } else {
      p.load += st.ms;  // parse, topology, universe, policies
    }
  }
  return p;
}

std::vector<net::Ipv4Prefix> prefixes(const std::vector<std::string>& text) {
  std::vector<net::Ipv4Prefix> out;
  for (const auto& p : text) out.push_back(*net::Ipv4Prefix::parse(p));
  return out;
}

// Digest of the battery service::verdict_frames renders: the CSP checks,
// plus blackhole-freedom over the tenant's pool when it has one.
std::string battery_digest(Session& s,
                           const std::vector<net::Ipv4Prefix>& blackhole) {
  Layers off(false);
  Probe quiet(off);
  Verdicts v = run_battery(s, Battery::kCsp, quiet);
  if (!blackhole.empty()) {
    v.checks.push_back({"blackhole_free", s.check_blackhole_free(blackhole)});
  }
  return digest(s, v);
}

bool same_ribs(const epvp::Engine& a, const epvp::Engine& b) {
  for (std::size_t u = 0; u < a.all_ribs().size(); ++u) {
    if (!symbolic::same_rib(a.all_ribs()[u], b.all_ribs()[u])) return false;
  }
  return true;
}

// Whether a Session's RIBs are a stable state of its snapshot that a cold
// run does not reach.  One more EPVP round, by an engine seeded with them
// over the same BDD substrate, must leave them as they are, so they are a
// genuine fixed point; an unseeded engine must then end elsewhere or not
// converge.  Such a network has two outcomes, and a warm Session may report
// either (session.hpp, "Warm-start soundness"), so a cold Session is no
// reference for it.
bool other_stable_state(Session& s) {
  s.run_src();
  epvp::Engine& live = s.engine();
  epvp::SharedState shared;
  shared.alphabet = &live.alphabet();
  shared.atomizer = &live.atomizer();
  shared.enc = &live.encoding();
  epvp::Engine seeded(s.network(), live.options(), shared);
  seeded.seed_ribs(live.all_ribs());
  if (!seeded.run() || seeded.iterations() != 0 || !same_ribs(seeded, live)) {
    return false;
  }
  epvp::Engine cold(s.network(), live.options(), shared);
  return !cold.run() || !same_ribs(cold, live);
}

}  // namespace

Run daemon_tenants(const Args& a, Layers& layers) {
  // A 1 MiB ITE cache per BDD manager instead of the 64 MiB default.  With
  // the default every cold Session faults in pages of a fresh 64 MiB table;
  // on these small tenants that kernel work is 85% of the run, and its cost
  // swings by half from one run to the next on a shared host (p50 14-24 ms
  // on one seed), which no bound could hold.  At 1 MiB the p50 is ~1 ms and
  // parsing, framing, queueing and Session set-up dominate, which is what
  // this workload measures; repair_screen keeps the default cache.  Set
  // before the process builds its first manager (the size is read once).
  setenv("EXPRESSO_ITE_CACHE_BYTES", "1048576", 1);
  Run run;
  run.threads = service::ServerOptions{}.session_threads;
  // One connection per worker.  Four connections on the two workers (a
  // queue always waiting) doubled the spread of every timing across runs on
  // a shared 4-core host: eight client and reader threads then compete with
  // the workers for the cores.
  const int connections = service::ServerOptions{}.workers;
  const int edits = a.smoke ? 3 : 24;
  // 3000 requests/s on a 4-core host; the load phase lasts about 2x
  // --seconds, since throughput on a shared host drifts over seconds.
  const int rounds = a.smoke ? 1 : std::max(2, a.seconds * 120);

  // Set-up: start the server, generate the inputs, connect.
  std::unique_ptr<service::Server> server;
  std::vector<std::unique_ptr<service::Client>> clients;
  std::vector<std::vector<Round>> load;
  for (int i = 0; i < 5; ++i) {
    clients.clear();
    server.reset();
    const double t0 = wall_now();
    server = std::make_unique<service::Server>(service::ServerOptions{});
    const std::uint16_t port = server->start();
    load = make_rounds(a, connections, rounds, edits);
    for (int c = 0; c < connections; ++c) {
      clients.push_back(std::make_unique<service::Client>());
      clients.back()->connect("127.0.0.1", port);
    }
    run.setup_seconds.push_back(wall_now() - t0);
  }

  // replies[c][k][e]: connection c, round k, request e (id e + 1).
  std::vector<std::vector<std::vector<Reply>>> replies(load.size());
  TimedPhase phase(run);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < load.size(); ++c) {
      threads.emplace_back([&, c] {
        service::UpdateOptions uo;
        uo.profile = a.trace;
        for (const Round& round : load[c]) {
          auto& mine = replies[c].emplace_back(round.texts.size());
          for (std::size_t e = 0; e < round.texts.size(); ++e) {
            Reply& r = mine[e];
            const double t0 = wall_now();
            try {
              auto res = clients[c]->update(round.tenant, round.texts[e],
                                            round.blackhole, e + 1, uo);
              r.latency_s = wall_now() - t0;
              r.ok = res.ok;
              r.error = res.error;
              r.warm = res.warm;
              r.converged = res.converged;
              r.profile = split_profile(res);
              if (round.checked) r.payloads = std::move(res.verdict_payloads);
            } catch (const std::exception& ex) {
              r.error = ex.what();
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  phase.end();

  Layers& L = layers;
  for (std::size_t c = 0; c < load.size(); ++c) {
    for (std::size_t k = 0; k < load[c].size(); ++k) {
      for (std::size_t e = 0; e < replies[c][k].size(); ++e) {
        const Reply& r = replies[c][k][e];
        run.attempted += 1;
        if (!r.ok) {
          run.fail(load[c][k].tenant + " request " + std::to_string(e + 1) +
                   ": " + r.error);
          continue;
        }
        run.op_seconds.push_back(r.latency_s);
        run.timed_ops += 1;
        const Profile& p = r.profile;
        L.per_op("service.queue_wait_ms", p.queue_wait);
        L.per_op("service.server_ms", p.server);
        L.per_op("service.wire_ms", r.latency_s * 1e3 - p.queue_wait - p.server);
        L.per_op("session.load_ms", p.load);
        L.per_op("epvp.src_ms", p.src);
        L.per_op("dataplane.spf_ms", p.spf);
        L.per_op("properties.routing_ms", p.routing);
        L.per_op("properties.forwarding_ms", p.forwarding);
        L.ratio("session.warm_share", r.warm ? 1 : 0, 1);
        L.total("session.cold_updates", r.warm ? 0 : 1);
        L.total("epvp.nonconverged", r.converged ? 0 : 1);
      }
    }
  }

  // Service-side tallies, fetched over the wire like any client would.
  if (L.on()) {
    obs::JsonValue doc;
    std::string err;
    if (obs::parse_json(clients[0]->metrics(), doc, err)) {
      L.total("service.coalesced", metrics_counter(doc, "service.coalesced"));
      L.total("service.rejected",
              metrics_counter(doc, "service.rejected") +
                  metrics_counter(doc, "service.rejected_overload"));
    } else {
      std::fprintf(stderr, "perfbench: unreadable metrics reply: %s\n",
                   err.c_str());
    }
  }
  clients.clear();
  server.reset();

  // The traced run times the parse and topology layers on every request's
  // text, off the timed path.
  Probe probe(L);
  if (probe.on()) {
    for (const auto& conn : load) {
      for (const auto& round : conn) {
        for (const auto& text : round.texts) {
          std::vector<ir::RouterConfig> cfgs;
          probe.time("ir.parse_ms", [&] { cfgs = ir::parse_configs(text); });
          probe.time("net.build_ms",
                     [&] { (void)net::Network::build(std::move(cfgs)); });
        }
      }
    }
  }

  // References, for a seeded twentieth of the rounds.  An in-process Session
  // replaying the round must render byte-identical verdict frames for every
  // request, so it stands in for the daemon's Session.  Each request is also
  // verified by a cold Session, whose verdicts must match the replay's by
  // digest: a warm Session numbers data-plane variables in the order its
  // history allocated them, so rendered bytes may differ where the verdicts
  // do not.  Where the digests differ, the request passes only if a second
  // replay of the same history reaches the same verdicts and its RIBs prove
  // the network has another stable state than the cold run's.  A request
  // fails once, with every reason it failed.
  struct Checked {
    std::size_t c, k;
    std::vector<std::string> failures;
    std::size_t multi_stable = 0;
  };
  std::vector<Checked> checked;
  for (std::size_t c = 0; c < load.size(); ++c) {
    for (std::size_t k = 0; k < load[c].size(); ++k) {
      if (load[c][k].checked) checked.push_back({c, k, {}});
    }
  }
  parallel_for(checked.size(), [&](std::size_t i) {
    Checked& ck = checked[i];
    const Round& round = load[ck.c][ck.k];
    const std::vector<net::Ipv4Prefix> blackhole = prefixes(round.blackhole);
    Session replay(kSerial);
    for (std::size_t e = 0; e < round.texts.size(); ++e) {
      const Reply& r = replies[ck.c][ck.k][e];
      std::string why;
      try {
        replay.update(round.texts[e]);
        if (r.ok) {
          std::vector<std::string> expected =
              service::verdict_frames(replay, round.tenant, e + 1, blackhole);
          if (a.corrupt_reference && i == 0 && e == 0) expected[0] += " ";
          if (expected != r.payloads) {
            why += "; streamed verdicts differ from an in-process Session";
          }
          Session cold(kSerial);
          cold.load(round.texts[e]);
          const std::string warm_digest = battery_digest(replay, blackhole);
          if (warm_digest != battery_digest(cold, blackhole)) {
            // Checked on a second replay, so the engines built here leave
            // the first one as the daemon's Session was.
            Session again(kSerial);
            std::string again_digest;
            for (std::size_t j = 0; j <= e; ++j) {
              again.update(round.texts[j]);
              again_digest = battery_digest(again, blackhole);
            }
            if (again_digest != warm_digest) {
              why += "; warm verdicts differ from a replay of the same edits";
            } else if (other_stable_state(again)) {
              ck.multi_stable += 1;
            } else {
              why += "; warm verdicts differ from a cold Session";
            }
          }
        }
      } catch (const std::exception& ex) {
        why += std::string("; ") + ex.what();
      }
      // A request the daemon failed is already counted.
      if (r.ok && !why.empty()) {
        ck.failures.push_back(round.tenant + " request " +
                              std::to_string(e + 1) + ": " + why.substr(2));
      }
    }
  });
  std::size_t multi_stable = 0;
  for (const auto& ck : checked) {
    for (const auto& f : ck.failures) run.fail(f);
    multi_stable += ck.multi_stable;
  }
  run.notes.push_back(
      "re-verified requests answered from a stable state a cold run does not "
      "reach: " + std::to_string(multi_stable));
  return run;
}

}  // namespace perfbench
