// Checkable invariants ("oracles") for randomly generated instances.
//
// Each oracle takes an instance the generators produced and throws
// rlceff::Error with a specific message when the stack violates one of its
// own guarantees.  The oracles only use properties that hold for *every*
// valid input — conservation laws, documented equivalences, and the
// library's own error taxonomy — never golden numbers:
//
//   * cached-vs-naive:     both MNA assembly modes produce identical
//                          waveforms (the factor-once engine's contract),
//   * solver equivalence:  dense, banded and sparse LU backends agree on the
//                          same deck, and the sparse backend keeps the
//                          cached-vs-naive bitwise contract,
//   * charge conservation: the charge a source pushes into a passive net
//                          equals C_total * Vdd once every node settles,
//   * net invariants:      moments' m1 == total capacitance, the compiled
//                          deck carries the net's capacitance, metrics are
//                          consistent with the topology,
//   * engine outcome:      Ceff iterations either converge or surface as a
//                          clean convergence_failure (never internal_error),
//                          and require_convergence only gates — it never
//                          changes converged results,
//   * monotone delay:      growing the receiver load or the route length
//                          never speeds the modeled edge up,
//   * batch invariance:    Engine::run_batch results are bitwise invariant
//                          under thread count and slot permutation,
//   * group invariants:    Miller folding preserves total capacitance and
//                          the one-net group compiles the one-net deck,
//   * one-net identity:    a net and its one-net group give the same
//                          Response, bit for bit, on every slot shape,
//   * Miller envelope:     the decoupled model's far-end delay tracks the
//                          full coupled simulation within a coarse envelope.
//
// The sim-backed oracles run at deliberately low fidelity (few segments,
// coarse dt) — the invariants hold at every fidelity, and low fidelity is
// what lets the harness sweep ~1000 instances in seconds.
#ifndef RLCEFF_TESTKIT_ORACLES_H
#define RLCEFF_TESTKIT_ORACLES_H

#include <cstdint>
#include <vector>

#include "api/engine.h"
#include "net/coupled.h"
#include "net/net.h"
#include "sim/transient.h"
#include "testkit/generate.h"
#include "testkit/rng.h"

namespace rlceff::testkit {

struct OracleOptions {
  std::size_t segments = 8;  // ladder discretization of sim-backed decks
  double dt = 2e-12;         // sim step [s]
  // Linear-solver backend for the sim-backed oracle decks.  `automatic`
  // keeps the engine's own selection; the property harness forces each
  // explicit kind in turn (--solver) so every backend sees the full
  // randomized topology stream.  Oracles that exist to compare backends
  // (check_solver_equivalence) ignore this and pick their own.
  sim::SolverKind solver = sim::SolverKind::automatic;
  // Fault injection (the harness's own self-test): forwarded to
  // sim::TransientOptions::debug_cached_stamp_skew on the *cached* run of
  // the cached-vs-naive oracle.  Any nonzero value must be caught.
  double stamp_skew = 0.0;
};

// Topology/moments/deck consistency of one net.  No simulation.
void check_net_invariants(const net::Net& net, const OracleOptions& options = {});

// Simulates one deck (driver-driven or source-driven, drawn from `rng`)
// with AssemblyMode::cached and AssemblyMode::naive and requires identical
// waveforms.  Also accepts coupled groups (every net driven).
void check_cached_vs_naive(const net::Net& net, Rng rng, const OracleOptions& options);
void check_cached_vs_naive(const net::CoupledGroup& group, Rng rng,
                           const OracleOptions& options);

// Simulates one linear deck under every solver backend (dense reference,
// banded, sparse) and requires agreement to factorization rounding (1e-10 V
// on the 1.8 V swing).  Also re-runs the sparse backend with naive assembly
// and requires the cached path to match it bitwise — the factor-once
// contract extends to the sparse image.
void check_solver_equivalence(const net::Net& net, Rng rng,
                              const OracleOptions& options);

// Drives the net through a series resistor with a saturated ramp and checks
// (a) every leaf settles on the rail and (b) the integrated source charge
// equals C_total * Vdd.
void check_charge_conservation(const net::Net& net, Rng rng,
                               const OracleOptions& options);

// Runs one request through Engine::model twice (require_convergence on and
// off) and checks the outcome taxonomy: success implies converged
// iterations and finite metrics; failure must carry a structured, non
// internal_error code; the opt-out run must reproduce converged results
// bitwise.
void check_engine_outcome(api::Engine& engine, const api::Request& request,
                          const api::BatchOptions& options);

// Models the same net with growing receiver load (x1, x2, x4) and growing
// route length (x1, x1.5, x2.25) and requires non-decreasing delay (small
// slack for model-selection boundaries).  Vacuous when a variant fails to
// converge (check_engine_outcome owns that surface).
void check_monotone_delay(api::Engine& engine, const net::Net& net, double cell_size,
                          double input_slew, const api::BatchOptions& options);

// run_batch determinism: same requests at 1 worker, at several workers, and
// permuted — per-label results must match bitwise (codes for failed slots).
void check_batch_invariance(api::Engine& engine, std::vector<api::Request> requests,
                            const api::BatchOptions& options, Rng rng);

// CoupledGroup consistency: Miller folding preserves capacitance totals and
// the single-net group compiles to the exact single-net deck.
void check_group_invariants(const net::CoupledGroup& group, std::size_t victim,
                            const OracleOptions& options);

// The expensive end-to-end oracle: full coupled simulation vs the
// Miller-decoupled model through core::run_experiment at low
// fidelity; far-end delays must agree within a coarse envelope.
void check_miller_envelope(const tech::Technology& technology,
                           charlib::CellLibrary& library, const GroupRecipe& recipe,
                           Rng rng, const OracleOptions& options);

// One-net group identity: a single-net request and its
// net::CoupledGroup::single twin share one slot path, so they must agree
// bitwise on every numeric Response field, the provenance stamps (tier,
// escalations, degraded, attempt trail) and, on failure, the error.  The
// slot shape is drawn from `rng`: model-only, reference, far_end_replay,
// every tier policy except force_reference, or the degrade floor.
void check_single_net_group_identity(api::Engine& engine, const net::Net& net, Rng rng,
                                     const api::BatchOptions& options);

// Tiered-estimation identity (src/tier/): the default policy resolves to a
// pinned tier, so TierPolicy::force_ceff must reproduce the model-only path
// bitwise — same outcome, same model numbers, Tier B stamps — and
// TierPolicy::force_reference must reproduce reference = true bitwise on
// every Response field, kept waveforms (and the one-ramp column) included,
// and on its provenance.
void check_tier_identity(api::Engine& engine, const api::Request& request,
                         const api::BatchOptions& options);

// Tiered-estimation accuracy: routes the request with TierPolicy::balanced,
// runs the transient reference, and requires the served tier's delay/slew to
// sit inside its checked-in envelope (tier::envelope) of the reference, and
// a Tier A noise bound to not under-state the simulated quiet-victim peak.
// Vacuous when either path fails (check_engine_outcome owns that surface) or
// when the router escalated all the way to Tier C.
void check_tier_envelope(api::Engine& engine, const api::Request& request,
                         const api::BatchOptions& options);

// Validation fuzz: plants one defect at a known location in an otherwise
// valid net / group / request and requires construction to throw an Error
// whose message names the planted location (branch path, section index, net
// label).  This is the oracle that hunts wrong-index validation messages.
void check_validation_reporting(Rng rng);

// Chaos batch (testkit/faults.h): builds `slots` random requests, runs the
// clean batch as a baseline, then runs the fault-injected batch serially and
// wide and requires the hardened engine's full contract:
//   * healthy slots are bitwise identical to the baseline at any thread
//     count — faulty neighbors leak nothing;
//   * every injected fault surfaces exactly its expected ErrorCode (and
//     message fragment), or — for deadline faults under a degrade policy —
//     a successful Response flagged degraded with its attempt trail;
//   * deadline slots exit within one checkpoint interval plus slack
//     (ErrorInfo::elapsed_s), never riding out a stalled worker;
//   * verdicts and degraded values agree between the serial and wide runs.
void check_chaos_batch(api::Engine& engine, std::uint64_t seed,
                       const api::BatchOptions& options, std::size_t slots = 6);

// Shared-factorization replay equivalence: builds a seeded fleet of
// far_end_replay requests — a few equal-topology groups whose members differ
// only in input slew, plus a singleton — and requires run_batch with
// batch_scenarios on and off to agree bitwise per slot (near- and far-end
// metrics, solver, the full far-end waveform; error codes for failed slots)
// at independently drawn thread counts.  `solver` pins every replay deck to
// one backend, so forcing each explicit kind in turn marches the whole
// random-topology family through all three blocked substitution paths.
void check_batched_replay_equivalence(api::Engine& engine, std::uint64_t seed,
                                      const api::BatchOptions& options,
                                      sim::SolverKind solver);

// Adversarial grouping: compiles a random net's source deck, rebuilds it
// element-for-element (must group: scenario_group_equal, same hash), then
// perturbs one seeded element value by one ULP and separately grounds one
// extra resistor at a seeded node — either near-identical deck must never
// share a factorization, and the cheap hash key alone must already separate
// it (a hash collision would demote every lookup to the exhaustive compare).
void check_adversarial_grouping(std::uint64_t seed, const OracleOptions& options);

// N-1 isolation under grouping — the chaos lane's batched-replay variant:
// builds one shared-factorization replay group, injects a seeded fault
// (worker_throw, instant_deadline, or step_budget) into one member, and
// requires the faulted batch to fail exactly that slot with the fault's
// contractual ErrorCode while every group-mate stays bitwise identical to
// the clean batched baseline, serial and wide.  worker_throw and
// instant_deadline kill the victim before its replay is enqueued (the group
// runs as N-1 lanes); step_budget lets the victim join the block and die
// inside it (its lane is retired mid-block) — both shapes must leave the
// mates' waveforms untouched.
void check_chaos_replay_group(api::Engine& engine, std::uint64_t seed,
                              const api::BatchOptions& options,
                              std::size_t slots = 4);

// Fault-injection self-test of the simulator's non-finite-solution guard:
// poisons the cached-path stamp of the net's first capacitor
// (sim::TransientOptions::debug_cached_stamp_nan) on a source-driven linear
// deck — the path with no Newton loop to fail first — and requires the run
// to raise SingularMatrixError instead of returning silently poisoned
// waveforms.  The unpoisoned deck must simulate cleanly first.
void check_nan_stamp_fault(const net::Net& net, Rng rng,
                           const OracleOptions& options);

}  // namespace rlceff::testkit

#endif  // RLCEFF_TESTKIT_ORACLES_H
