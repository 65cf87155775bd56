// The built-in model-checking scenarios: the three ROADMAP discipline
// invariants plus the wake-token self-test that proves the checker can
// catch a real historical kernel bug.
//
//  * forall-abort          -- a 3-branch forall script where one branch
//                             fails; sibling-abort must leak no process and
//                             the queue accounting must hold through the
//                             kill storm.
//  * try-timeout-resource  -- two clients contend for a capacity-1 Resource,
//                             fd-table entries, and a Store slot under a
//                             try/timeout; every unwind path must release
//                             everything it holds (the end state has the
//                             full capacity free), across stall-fault
//                             branches.
//  * carrier-sense-crash   -- the paper's Ethernet submitter script against
//                             a Schedd that crashes mid-run (plus a
//                             probabilistic submit error); no interleaving
//                             may deadlock the carrier-sense loop or leak a
//                             process.
//  * reservation-grant-kill - two bulk clients negotiate grants from a
//                             one-at-a-time ReservationBook over a fluid
//                             link; a kill fires at the queued grant's
//                             delivery instant.  No interleaving may leak
//                             a booking, orphan a fluid flow, or
//                             oversubscribe the book.
//  * stale-front-window    -- a kill on one shard leaves the earliest
//                             entry of its queue stale at the first instant
//                             past a window boundary, while the other shard
//                             waits one lookahead later; the windows the
//                             sharded kernel opens must be the ones a full
//                             scan of the live entries implies.
//  * wake-token-selftest   -- reintroduces the pre-PR-6 kill/invalidate
//                             accounting bug via KernelOptions and expects
//                             the queue-accounting invariant to catch it;
//                             exists so tests (and users) can watch the
//                             checker produce a replayable counterexample.
//
// make_script_scenario wraps an arbitrary ftsh source (ethergrid_mc
// --script) with the default invariants and the SimExecutor builtins.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mc/explorer.hpp"

namespace ethergrid::mc {

std::vector<std::string> scenario_names();

// nullptr for an unknown name.
std::unique_ptr<Scenario> make_scenario(const std::string& name);

// A scenario that runs `source` through the interpreter on the SimExecutor
// builtins (echo/true/false/sleep/fail/...), checking only the default
// invariants (no leaked processes, queue accounting).
std::unique_ptr<Scenario> make_script_scenario(std::string name,
                                               std::string source);

}  // namespace ethergrid::mc
