// api::Engine — the batch-first, failure-isolating facade over the stack,
// and the one supported way into the library.
//
// The Engine owns a tech::Technology and a thread-safe charlib::CellLibrary
// and exposes the paper's flow as a service: Request in, Outcome<Response>
// out.  model() evaluates one net; run_batch() pre-characterizes the batch's
// distinct cell sizes once, then fans the scenarios out across the sweep
// pool with per-slot exception capture, so a non-convergent Ceff iteration
// (or an invalid net) marks one slot failed instead of aborting the batch.
//
// The boundary contract: everything below the Engine throws (util/error.h);
// everything above it branches on Outcome.  model()/run_batch() never throw
// for per-scenario failures.  run_batch() itself only throws for batch-level
// breakage (e.g. the characterization grid itself is unusable — and even
// then the error is re-raised per affected slot, see engine.cpp).
#ifndef RLCEFF_API_ENGINE_H
#define RLCEFF_API_ENGINE_H

#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/outcome.h"
#include "api/request.h"
#include "charlib/library.h"
#include "tech/technology.h"

namespace rlceff::tier {
struct AnalyticalEstimate;
}

namespace rlceff::api {

// Deferred-replay staging area for one run_batch call (defined in
// engine.cpp): far_end_replay slots enqueue their replay job here instead
// of simulating inline; finalize_deferred() then groups equal-topology jobs
// and runs each group as one shared-factorization multi-RHS block
// (sim/scenario_block.h).
struct ReplayCollector;
struct ReplayJob;
// The solver controls of one ladder pass, and the rung in progress (defined
// in engine.cpp).
struct RungOptions;
struct Rung;

class Engine {
public:
  explicit Engine(tech::Technology technology = tech::Technology::cmos180());

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const tech::Technology& technology() const { return technology_; }

  // The engine's cell cache.  Thread-safe; driver references obtained from
  // it stay valid for the engine's lifetime.
  charlib::CellLibrary& library() { return library_; }
  const charlib::CellLibrary& library() const { return library_; }

  // Evaluates one request.  Per-scenario failures come back as failed
  // Outcomes, never as exceptions.
  Outcome<Response> model(const Request& request, const BatchOptions& options = {});

  // Evaluates a batch; results[i] always corresponds to requests[i].
  std::vector<Outcome<Response>> run_batch(std::span<const Request> requests,
                                           const BatchOptions& options = {});

  // Characterizes any missing cell sizes up front (different sizes in
  // parallel) so later model()/run_batch() calls are pure table lookups.
  void warm_cache(std::span<const double> cell_sizes,
                  const charlib::CharacterizationGrid& grid =
                      charlib::CharacterizationGrid::standard(),
                  unsigned n_threads = 0);
  void warm_cache(std::initializer_list<double> cell_sizes,
                  const charlib::CharacterizationGrid& grid =
                      charlib::CharacterizationGrid::standard(),
                  unsigned n_threads = 0);

  // Cache persistence: merge a saved library into this engine (returns
  // false when the file does not exist) / write the current cache out, so
  // repeated invocations skip re-characterization.
  bool load_library(const std::string& path);
  void save_library(const std::string& path) const;

private:
  // The only per-slot driver.  Resolves the request's policy (the default
  // policy is the reference flag: force_reference or force_ceff), runs the
  // preamble once (validation, lint, budget checkpoint, test-only fault
  // hook), then walks one rung sequence until a rung answers:
  //   1. the policy's cascade (see cascade below) under the slot's budget;
  //   2. with Request::degrade, on a convergence failure: the same cascade
  //      with the damped fixed point, opening with a budget checkpoint;
  //   3. on a degradable failure, only when the policy pinned Tier C: the
  //      Tier-B Ceff rung, unbudgeted;
  //   4. the moments-only floor (DegradePolicy::moments_floor).
  // Response::fidelity, tier and tier_escalations are stamped from the rung
  // that answered, and each abandoned rung leaves an Attempt naming it.
  // `collector` (nullable) lets a far_end_replay slot hand its replay job
  // over for group batching instead of running it; without it the replay
  // runs inline (same results, bitwise).  Never throws for per-scenario
  // failures.
  Outcome<Response> run_slot(const Request& request, const BatchOptions& options,
                             std::size_t slot,
                             ReplayCollector* collector = nullptr);
  // One pass of the policy's cascade with one set of rung controls: a
  // routing policy tries Tier A when tier/router.h admits it, escalating to
  // Tier B on refusal, and under balanced to Tier C when the Tier B fixed
  // point fails to converge; a forced policy runs its one tier.  `rung`
  // tracks the rung in progress, so a failure names the rung that failed.
  Response cascade(const Request& request, tier::TierPolicy policy,
                   const BatchOptions& options, const RungOptions& opt, Rung& rung,
                   std::optional<ReplayJob>* deferred);
  // Runs the collector's deferred replays as shared-factorization blocks
  // (one factor per equal-topology group and step size) and patches the
  // affected slots of `results` — model_far and friends on success, a failed
  // Outcome for lanes whose replay faulted.  When a block refuses or fails
  // as a whole, each member reruns alone through sim::simulate (the inline
  // replay's call) before anything is failed.
  void finalize_deferred(ReplayCollector& collector, const BatchOptions& options,
                         std::vector<Outcome<Response>>& results);
  // The rungs.  Each computes the numbers of one estimator from the request
  // and the rung controls; provenance is stamped by run_slot.
  //
  // Tier A: the closed-form analytical screen (tier/analytical.h) — table
  // lookups only, no fixed point, no transient.  `estimate_out` (nullable)
  // receives the raw estimate so the router can score admission without
  // recomputing it.  Its model.waveform is moved into the returned Response
  // (left empty in the estimate); every scalar admission input (criteria,
  // ceff1/ceff2, kind, shielding) stays valid.
  Response analytical_rung(const Request& request, const BatchOptions& options,
                           tier::AnalyticalEstimate* estimate_out);
  // Tier B: the paper's Ceff flow on the request's (possibly
  // Miller-decoupled) net, plus the model-only far-end replay when asked;
  // `deferred` (nullable) receives the replay job instead of running it.
  Response ceff_rung(const Request& request, const BatchOptions& options,
                     const RungOptions& opt, std::optional<ReplayJob>* deferred);
  // Tier C: the transient reference experiment (core::run_experiment).
  Response reference_rung(const Request& request, const BatchOptions& options,
                          const RungOptions& opt);
  // The floor: core::estimate_driver_output_moments_only on the request's
  // (possibly Miller-decoupled) net.
  Response moments_floor(const Request& request, const BatchOptions& options);
  // Distinct cell sizes from `sizes` not yet in the library.
  std::vector<double> collect_missing(std::span<const double> sizes) const;

  tech::Technology technology_;
  charlib::CellLibrary library_;
};

}  // namespace rlceff::api

#endif  // RLCEFF_API_ENGINE_H
