// The four workloads.  Each generates its inputs from the seed before timing
// starts, runs its operations, checks every verdict against a reference the
// timed path did not produce, and reports through a Run.  Why each workload
// exists is recorded in BENCHMARK.json and perfbench/README.md.
#pragma once

#include "harness.hpp"

namespace perfbench {

// Fresh serial Session per rung, cold verify of CSP WAN region1-4,
// full(old), full(new) and Internet2.
Run cold_ladder(const Args& args, Layers& layers);

// Warm re-verification of a seeded edit chain on full(old).
Run edit_stream(const Args& args, Layers& layers);

// Four closed-loop tenants against an embedded expressod Server.
Run daemon_tenants(const Args& args, Layers& layers);

// repair::repair over planted bugs of all four classes.
Run repair_screen(const Args& args, Layers& layers);

}  // namespace perfbench
