#include "api/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/experiment.h"
#include "sim/scenario_block.h"
#include "sim/sweep.h"
#include "tier/analytical.h"
#include "tier/router.h"
#include "waveform/waveform.h"

namespace rlceff::api {

// The solver controls every rung of one ladder pass runs with: the request's
// model options and the batch's deck, with the pass's budget (nullable)
// threaded into the Ceff fixed points and the transient loops, and the
// request's solver backend pinned.
struct RungOptions {
  core::DriverModelOptions model;
  tech::DeckOptions deck;
};

// The rung in progress on a slot's ladder: the tier it serves, the
// escalations the cascade took to reach it, and whether it is the
// moments-only floor (which reports Tier B).
struct Rung {
  tier::Tier tier = tier::Tier::ceff;
  std::size_t escalations = 0;
  bool floor = false;

  Fidelity fidelity() const {
    if (floor) return Fidelity::moments_only;
    switch (tier) {
      case tier::Tier::analytical: return Fidelity::analytical;
      case tier::Tier::ceff: return Fidelity::ceff_model;
      case tier::Tier::reference: return Fidelity::reference;
    }
    return Fidelity::ceff_model;
  }
};

// One deferred far-end replay: everything needed to compile and run the
// replay transient after its slot's model already answered.  The job owns a
// copy of the net (a coupled victim's flow net is a temporary) and shares
// ownership of the slot's ExecTracker so a budget armed at slot start keeps
// charging the deferred work.
struct ReplayJob {
  std::size_t slot = 0;
  std::string label;
  net::Net net;
  wave::Pwl source;             // modeled PWL in absolute deck time
  tech::DeckOptions deck;       // t_stop sized; sim.solver set; budget unset
  std::size_t dominant_leaf = 0;
  double input_time_50 = 0.0;
  bool keep_waveforms = false;
  std::shared_ptr<util::ExecTracker> tracker;
};

// Jobs are enqueued by run_slot once the slot's primary attempt succeeded,
// with the slot's tracker already attached, so a failed slot never leaves a
// job behind to patch.
struct ReplayCollector {
  std::mutex mutex;
  std::vector<ReplayJob> jobs;

  void add(ReplayJob job) {
    const std::lock_guard<std::mutex> lock(mutex);
    jobs.push_back(std::move(job));
  }
};

namespace {

// A size or slew the flow can use: NaN and +inf fail here, not deep inside
// characterization or the breakpoint solve.
bool positive_finite(double x) { return std::isfinite(x) && x > 0.0; }

// The policy a request resolves to: the default policy is the legacy flag,
// which pins Tier C (reference = true) or Tier B.
tier::TierPolicy resolved_policy(const Request& r) {
  if (r.tier != tier::TierPolicy::reference) return r.tier;
  return r.reference ? tier::TierPolicy::force_reference : tier::TierPolicy::force_ceff;
}

// Checks the request against its resolved policy, so both spellings of a
// pinned tier accept the same extras.
void validate(const Request& r, tier::TierPolicy policy) {
  auto reject = [&](const std::string& why) {
    throw InvalidRequestError("api::Engine: request '" + r.label + "': " + why);
  };
  if (!positive_finite(r.cell_size)) reject("cell size must be positive and finite");
  if (!positive_finite(r.input_slew)) reject("input slew must be positive and finite");
  if (r.coupled()) {
    if (!r.net.empty()) reject("both net and coupled group set");
    if (r.victim >= r.group.size()) {
      reject("victim index " + std::to_string(r.victim) + " out of range (group has " +
             std::to_string(r.group.size()) + " nets)");
    }
    std::vector<bool> seen(r.group.size(), false);
    for (const Aggressor& a : r.aggressors) {
      if (a.net >= r.group.size()) {
        reject("aggressor net index " + std::to_string(a.net) + " out of range");
      }
      if (a.net == r.victim) reject("the victim cannot be its own aggressor");
      if (seen[a.net]) {
        reject("duplicate aggressor for net '" + r.group.label_at(a.net) + "'");
      }
      seen[a.net] = true;
      if (!positive_finite(a.cell_size)) {
        reject("aggressor cell size must be positive and finite");
      }
      if (!positive_finite(a.input_slew)) {
        reject("aggressor input slew must be positive and finite");
      }
    }
  } else {
    if (!r.aggressors.empty()) reject("aggressors without a coupled group");
    if (r.net.empty()) reject("net is empty");
  }
  const bool reference = policy == tier::TierPolicy::force_reference;
  if (!reference && r.one_ramp_baseline) {
    reject("one_ramp_baseline needs the reference simulation");
  }
  if (!reference && !r.far_end_replay && r.keep_waveforms) {
    reject("keep_waveforms needs the reference simulation or far_end_replay");
  }
  if (r.far_end_replay) {
    if (reference) {
      reject("far_end_replay is redundant with the reference simulation "
             "(which already replays the far end)");
    }
    if (policy != tier::TierPolicy::force_ceff) {
      reject("far_end_replay is incompatible with a routing tier policy");
    }
  }
  if (r.coupled() && r.one_ramp_baseline) {
    reject("the one-ramp baseline is a single-net comparison column");
  }
  if (r.tier != tier::TierPolicy::reference && r.reference) {
    reject("the reference flag is incompatible with a tier policy; use "
           "TierPolicy::force_reference to pin Tier C");
  }
}

// Runs the request's static-diagnostics pass (Request::lint) and returns the
// findings to report.  The Eq 9 driver context defaults from the request
// itself: a static Thevenin Rs from the cell size and the input slew standing
// in for the converged first-ramp time.  Lint sees the request's own policy,
// not the resolved one, so a default request gets no tier advisory.
//
// Admission screen: statically-broken work is rejected here, before any
// characterization lookup or solve.  lint_rejected is deliberately not a
// degradable code: a screened-out request is wrong input, and retrying or
// degrading it would just re-lint the same net.
std::vector<lint::Diagnostic> run_lint(const Request& request,
                                       const tech::Technology& technology) {
  if (!request.lint.screen && !request.lint.report) return {};
  lint::Options checks = request.lint.checks;
  if (!(checks.driver_resistance > 0.0)) {
    checks.driver_resistance =
        lint::estimate_driver_resistance(technology, request.cell_size);
  }
  if (!(checks.input_slew > 0.0)) checks.input_slew = request.input_slew;
  if (checks.tier_policy == tier::TierPolicy::reference) {
    checks.tier_policy = request.tier;
  }
  lint::Report report = request.coupled() ? lint::lint_group(request.group, checks)
                                          : lint::lint_net(request.net, checks);
  if (request.lint.screen && !report.diagnostics.empty() &&
      report.worst() >= request.lint.fail_at) {
    std::size_t gating = 0;
    std::string first;
    for (const lint::Diagnostic& d : report.diagnostics) {
      if (d.severity < request.lint.fail_at) continue;
      if (gating++ == 0) first = lint::format(d);
    }
    throw LintRejectedError(
        "api::Engine: request '" + request.label + "': rejected by the lint "
        "screen (" + std::to_string(gating) + " finding(s) at or above " +
        lint::to_string(request.lint.fail_at) + "): " + first,
        std::move(report.diagnostics));
  }
  if (!request.lint.report) return {};
  return std::move(report.diagnostics);
}

RungOptions rung_options(const Request& r, const BatchOptions& options,
                         util::ExecTracker* budget) {
  RungOptions out{r.model, options.deck};
  out.model.iteration.budget = budget;
  out.deck.sim.budget = budget;
  out.deck.sim.solver = r.solver;
  return out;
}

// Maps a request onto the core experiment case: a single net becomes the
// one-net group, and the aggressor list (indexed by group net, victim slot
// ignored) defaults every unnamed net to a quiet neighbor.
core::ExperimentCase experiment_case(const Request& r) {
  core::ExperimentCase scenario;
  scenario.driver_size = r.cell_size;
  scenario.input_slew = r.input_slew;
  if (!r.coupled()) {
    scenario.group = net::CoupledGroup::single(r.net);
    return scenario;
  }
  scenario.group = r.group;
  scenario.victim = r.victim;
  scenario.aggressors.assign(r.group.size(), core::AggressorDrive{});
  for (const Aggressor& a : r.aggressors) {
    scenario.aggressors[a.net] = {a.cell_size, a.input_slew, a.switching};
  }
  return scenario;
}

// The net the paper flow runs on.  A single net is borrowed as written (the
// fast tiers never copy it); a group contributes its Miller-decoupled victim
// and, when any aggressor switches, the quiet (1x) victim net that anchors
// the pushout estimate.
struct FlowNets {
  const net::Net* single = nullptr;
  net::Net miller;
  std::optional<net::Net> quiet;

  const net::Net& net() const { return single != nullptr ? *single : miller; }
};

FlowNets flow_nets(const Request& r) {
  FlowNets nets;
  if (!r.coupled()) {
    nets.single = &r.net;
    return nets;
  }
  std::vector<double> factors(r.group.size(), 1.0);
  for (const Aggressor& a : r.aggressors) {
    factors[a.net] = core::miller_factor(a.switching);
  }
  nets.miller = r.group.decoupled_net(r.victim, factors);
  // With all-quiet aggressors the Miller net is the quiet net: the pushout
  // is exactly zero, no second estimate needed.
  if (!std::all_of(factors.begin(), factors.end(), [](double f) { return f == 1.0; })) {
    nets.quiet = r.group.decoupled_net(r.victim);
  }
  return nets;
}

// The Ceff iterations report non-convergence via their converged flags; the
// service boundary promotes that to a failure so a silently-unconverged
// model cannot masquerade as a timing number.
void check_convergence(const Request& request, const core::DriverOutputModel& m) {
  if (!request.require_convergence) return;
  auto require = [&](const core::CeffIteration& it, const char* which) {
    if (!it.converged) {
      throw ConvergenceError("api::Engine: request '" + request.label + "': " +
                             which + " iteration did not converge within " +
                             std::to_string(it.iterations) + " iterations");
    }
  };
  require(m.ceff1, "Ceff1");
  if (m.kind != core::ModelKind::one_ramp) require(m.ceff2, "Ceff2");
  if (m.kind == core::ModelKind::three_ramp) require(m.ceff3, "Ceff3");
}

// Measures the modeled PWL alone (no deck): the emitted waveform always ends
// on the rail, so extending it by one step covers every crossing.
core::EdgeMetrics measure_model(const core::DriverOutputModel& m, double vdd) {
  const wave::Waveform w = m.waveform.to_waveform(m.waveform.end_time() + 1e-12);
  const wave::EdgeTiming e = wave::measure_rising_edge(w, 0.0, vdd);
  return {e.t50, e.transition_10_90()};
}

// The paper's estimator on the flow net — the model every Ceff rung serves
// — plus, for a coupled victim whose aggressors switch, the same estimator
// on the quiet net for the pushout estimate.  Fills model, model_near and
// delay_pushout_model; returns the quiet-net model (none when the flow net
// is the quiet net) so the caller decides when its convergence gates.
template <class Estimator>
std::optional<core::DriverOutputModel> model_flow(const FlowNets& nets, double vdd,
                                                  const Estimator& estimate,
                                                  Response& response) {
  response.model = estimate(nets.net());
  response.model_near = measure_model(response.model, vdd);
  if (!nets.quiet) return std::nullopt;
  core::DriverOutputModel base = estimate(*nets.quiet);
  response.delay_pushout_model =
      response.model_near.delay - measure_model(base, vdd).delay;
  return base;
}

// The replay deck a far-end replay runs through its flow net: the modeled
// PWL shifted into absolute deck time (the model's t = 0 is the input 50 %
// crossing, analytically t_start + slew/2 for a saturated ramp input, as in
// the reference deck), a horizon auto-sized like the reference harness, and
// the dominant-path leaf to measure.  A Tier-C slot swaps in its reference
// deck's horizon and sink.
struct ReplayPlan {
  wave::Pwl source;
  tech::DeckOptions deck;
  std::size_t dominant_leaf = 0;
  double input_time_50 = 0.0;
};

ReplayPlan plan_far_end_replay(const Request& request, const net::Net& net,
                               const tech::DeckOptions& deck,
                               const core::DriverOutputModel& model) {
  const net::NetMetrics metrics = net.metrics();
  ReplayPlan plan;
  plan.input_time_50 = deck.t_start + 0.5 * request.input_slew;
  plan.deck = deck;
  plan.deck.t_stop = deck.t_start + request.input_slew +
                     std::max(1e-9, core::settle_time(request.cell_size, metrics));
  plan.deck.sim.budget = nullptr;
  plan.dominant_leaf = metrics.dominant_leaf;
  std::vector<std::pair<double, double>> pts = model.waveform.points();
  for (auto& [t, v] : pts) t += plan.input_time_50;
  plan.source = wave::Pwl(std::move(pts));
  return plan;
}

// The far-end measurement of a finished replay, shared by the inline and
// the batched path so BatchOptions::batch_scenarios on/off is a bitwise
// no-op on the numbers.  Reports the replay deck's backend as the slot's.
void measure_replay(const tech::SourceNetDeck& deck, const sim::TransientResult& run,
                    std::size_t dominant_leaf, double input_time_50,
                    bool keep_waveforms, double vdd, Response& response) {
  const wave::Waveform& far = run.at(deck.nodes.leaves.at(dominant_leaf));
  response.model_far = core::measure_edge(far, vdd, input_time_50);
  response.has_model_far = true;
  response.input_time_50 = input_time_50;
  response.has_solver = true;
  response.solver = run.solver();
  if (keep_waveforms) response.model_far_wave = far;
}

// The per-slot replay path (no collector, degrade enabled, or wall-clock
// limited): the same deck the batched path compiles, run alone.
void run_replay_inline(const tech::Technology& technology, const Request& request,
                       const net::Net& net, const ReplayPlan& plan,
                       util::ExecTracker* budget, Response& response) {
  const tech::SourceNetDeck deck = tech::compile_source_net(plan.source, net, plan.deck);
  sim::TransientOptions so = tech::sim_options(plan.deck);
  so.budget = budget;
  const sim::TransientResult run = sim::simulate(deck.netlist, so, deck.probes);
  measure_replay(deck, run, plan.dominant_leaf, plan.input_time_50,
                 request.keep_waveforms, technology.vdd, response);
}

}  // namespace

Engine::Engine(tech::Technology technology) : technology_(technology) {}

Response Engine::reference_rung(const Request& request, const BatchOptions& options,
                                const RungOptions& rung) {
  // The simulated views first, then Tier B's own model on the same flow net:
  // Tier C adds a simulation, never a second model.
  core::ExperimentOptions opt;
  opt.deck = rung.deck;
  opt.include_noise = request.noise;
  opt.keep_waveforms = request.keep_waveforms;
  core::ExperimentResult views =
      core::simulate_reference(technology_, experiment_case(request), opt);

  const FlowNets nets = flow_nets(request);
  const charlib::CharacterizedDriver& driver =
      library_.ensure_driver(technology_, request.cell_size, options.grid);
  Response response;
  const std::optional<core::DriverOutputModel> base = model_flow(
      nets, technology_.vdd,
      [&](const net::Net& net) {
        return core::model_driver_output(driver, request.input_slew, net, rung.model);
      },
      response);
  response.input_time_50 = views.input_time_50;
  if (request.far_end) {
    // Tier B's replay, run inline under the slot's budget to the reference
    // deck's horizon and measured at the sink ref_far was measured at.
    ReplayPlan plan = plan_far_end_replay(request, nets.net(), rung.deck, response.model);
    plan.deck.t_stop = views.t_stop;
    plan.dominant_leaf = views.far_leaf;
    run_replay_inline(technology_, request, nets.net(), plan, rung.deck.sim.budget,
                      response);
  }
  if (request.one_ramp_baseline) {
    // The paper's Table-1/Fig-7 baseline is a *pure* single ramp; keep the
    // ref-[11] tail out of the comparison column.
    core::DriverModelOptions one = rung.model;
    one.selection = core::ModelSelection::force_one_ramp;
    one.shielding_tail = false;
    response.one_ramp =
        core::model_driver_output(driver, request.input_slew, nets.net(), one);
    response.one_near = measure_model(response.one_ramp, technology_.vdd);
  }
  // The pushout estimate leans on the quiet-net model too; a non-converged
  // quiet model must fail the slot like the primary model.
  check_convergence(request, base ? *base : response.model);
  response.has_reference = true;
  response.ref_near = views.ref_near;
  response.ref_far = views.ref_far;
  response.base_near = views.base_near;
  response.base_far = views.base_far;
  response.delay_pushout = views.delay_pushout;
  response.peak_noise = views.peak_noise;
  response.ref_near_wave = std::move(views.ref_near_wave);
  response.ref_far_wave = std::move(views.ref_far_wave);
  // The replay deck has its own backend; the slot reports the reference's.
  response.has_solver = true;
  response.solver = views.solver;
  check_convergence(request, response.model);
  return response;
}

Response Engine::ceff_rung(const Request& request, const BatchOptions& options,
                           const RungOptions& rung, std::optional<ReplayJob>* deferred) {
  const FlowNets nets = flow_nets(request);
  const charlib::CharacterizedDriver& driver =
      library_.ensure_driver(technology_, request.cell_size, options.grid);
  Response response;
  const std::optional<core::DriverOutputModel> base = model_flow(
      nets, technology_.vdd,
      [&](const net::Net& net) {
        return core::model_driver_output(driver, request.input_slew, net, rung.model);
      },
      response);
  if (base) check_convergence(request, *base);
  if (request.far_end_replay) {
    // Fail a non-converged model *before* planning or enqueueing its
    // replay, so a slot that fails here leaves nothing behind to patch.
    check_convergence(request, response.model);
    ReplayPlan plan = plan_far_end_replay(request, nets.net(), rung.deck, response.model);
    if (deferred != nullptr) {
      ReplayJob& job = deferred->emplace();
      job.net = nets.net();
      job.source = std::move(plan.source);
      job.deck = plan.deck;
      job.dominant_leaf = plan.dominant_leaf;
      job.input_time_50 = plan.input_time_50;
      job.keep_waveforms = request.keep_waveforms;
      response.input_time_50 = plan.input_time_50;
    } else {
      run_replay_inline(technology_, request, nets.net(), plan, rung.deck.sim.budget,
                        response);
    }
  }
  check_convergence(request, response.model);
  return response;
}

Response Engine::moments_floor(const Request& request, const BatchOptions& options) {
  const charlib::CharacterizedDriver& driver =
      library_.ensure_driver(technology_, request.cell_size, options.grid);
  Response response;
  model_flow(flow_nets(request), technology_.vdd,
             [&](const net::Net& net) {
               return core::estimate_driver_output_moments_only(driver, request.input_slew,
                                                                net);
             },
             response);
  return response;
}

Response Engine::analytical_rung(const Request& request, const BatchOptions& options,
                                 tier::AnalyticalEstimate* estimate_out) {
  const charlib::CharacterizedDriver& driver =
      library_.ensure_driver(technology_, request.cell_size, options.grid);
  const FlowNets nets = flow_nets(request);
  Response response;
  tier::AnalyticalEstimate estimate =
      tier::analytical_estimate(driver, request.input_slew, nets.net());
  response.model_near = {estimate.delay, estimate.slew_10_90};
  if (nets.quiet) {
    const tier::AnalyticalEstimate base =
        tier::analytical_estimate(driver, request.input_slew, *nets.quiet);
    response.delay_pushout_model = estimate.delay - base.delay;
  }
  if (request.coupled()) {
    response.has_noise_bound = true;
    response.noise_bound =
        tier::noise_bound(request.group, request.victim, technology_.vdd);
  }
  // Move, not copy: the waveform's points are the only allocation in the
  // model and the admission screen only reads the scalar fields.
  response.model = std::move(estimate.model);
  if (estimate_out) *estimate_out = std::move(estimate);
  return response;
}

Response Engine::cascade(const Request& request, tier::TierPolicy policy,
                         const BatchOptions& options, const RungOptions& opt,
                         Rung& rung, std::optional<ReplayJob>* deferred) {
  using tier::Tier;
  using tier::TierPolicy;

  // Tier A candidacy under the routing policies: the cheap topology screen
  // first (coupled groups), the estimate-based screen once the estimate
  // exists.  Forced Tier A skips admission entirely — that is what
  // calibration wants.
  const bool screened = policy == TierPolicy::balanced || policy == TierPolicy::fastest;
  tier::Admission admission;
  if (screened && request.coupled()) {
    admission = tier::admit_group_analytical(request.group, request.victim);
  }
  rung = {tier::route(policy, admission)};
  if (rung.tier == Tier::analytical) {
    if (!screened) return analytical_rung(request, options, nullptr);
    // A closed form that throws (degenerate fit, stalled table fixed point)
    // is just another refusal: the denser tiers own that net.  Budget and
    // cancellation faults are not — they abort the slot like anywhere else.
    try {
      tier::AnalyticalEstimate estimate;
      Response a = analytical_rung(request, options, &estimate);
      admission = tier::admit_analytical(estimate);
      if (admission.ok) return a;
    } catch (const DeadlineError&) {
      throw;
    } catch (const BudgetError&) {
      throw;
    } catch (const Error&) {
      admission = {false, "estimate_failed"};
    }
    rung.tier = tier::route(policy, admission);
  }
  // A routing policy that got here escalated past a refused Tier A.
  if (screened) rung.escalations = 1;

  if (rung.tier == Tier::ceff) {
    if (policy != TierPolicy::balanced) return ceff_rung(request, options, opt, deferred);
    try {
      return ceff_rung(request, options, opt, deferred);
    } catch (const ConvergenceError&) {
      // Balanced: a Tier B fixed point that cannot agree with itself
      // escalates once more, to the transient reference.
    }
    rung = {Tier::reference, rung.escalations + 1};
  }
  return reference_rung(request, options, opt);
}

Outcome<Response> Engine::run_slot(const Request& request, const BatchOptions& options,
                                   std::size_t slot, ReplayCollector* collector) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  const tier::TierPolicy policy = resolved_policy(request);
  // Heap-owned tracker: a deferred replay charges this slot's budget after
  // run_slot returns, so the collector shares ownership with the job.
  const auto owned_tracker = std::make_shared<util::ExecTracker>(request.budget);
  util::ExecTracker& tracker = *owned_tracker;
  // The rung in progress: failures are recorded against it, and the rung that
  // answers stamps the Response's provenance.
  Rung rung{tier::route(policy, {})};
  std::vector<Attempt> attempts;
  std::vector<lint::Diagnostic> diagnostics;

  auto finish = [&](Response r, bool degraded) {
    r.label = request.label;
    r.has_coupling = request.coupled();
    r.fidelity = rung.fidelity();
    r.tier = rung.tier;
    r.tier_escalations = rung.escalations;
    r.degraded = degraded;
    r.attempts = std::move(attempts);
    r.diagnostics = std::move(diagnostics);
    r.elapsed_s = elapsed();
    return Outcome<Response>(std::move(r));
  };
  auto abandon = [&](const std::string& prefix) {
    const ErrorInfo info = describe_failure(std::current_exception(), request.label);
    attempts.push_back({rung.fidelity(), info.code, prefix + info.message});
  };
  auto fail = [&](std::exception_ptr e) {
    ErrorInfo info = describe_failure(std::move(e), request.label);
    info.elapsed_s = elapsed();
    return Outcome<Response>(std::move(info));
  };

  // The preamble (validation, lint, budget checkpoint, fault hook) runs once,
  // as part of the primary attempt; the ladder's later rungs skip it.
  std::exception_ptr first_error;
  try {
    validate(request, policy);
    diagnostics = run_lint(request, technology_);
    tracker.check("api::Engine slot");
    if (options.debug_slot_fault) options.debug_slot_fault(slot, tracker);
    // Slots with a wall-clock limit or an enabled degrade policy never
    // defer: the deadline/ladder semantics are tied to the slot's own
    // attempt sequence, and deferral would move work past both.
    std::optional<ReplayJob> job;
    const bool defer = collector != nullptr && !request.degrade.enabled &&
                       request.budget.wall_limit_s <= 0.0;
    Response r = cascade(request, policy, options, rung_options(request, options, &tracker),
                         rung, defer ? &job : nullptr);
    if (job) {
      job->slot = slot;
      job->label = request.label;
      job->tracker = owned_tracker;
      collector->add(std::move(*job));
    }
    return finish(std::move(r), false);
  } catch (...) {
    first_error = std::current_exception();
    abandon("");
  }

  // Cancellation aborts outright — degrading a cancelled slot spends more
  // work on an answer nobody is waiting for.
  if (!request.degrade.enabled || request.budget.cancel.cancel_requested()) {
    return fail(first_error);
  }

  // Damped retry of the whole cascade: a converged retry is an exact answer.
  if (attempts.back().code == ErrorCode::convergence_failure &&
      request.degrade.retry_damping > 0.0) {
    RungOptions damped = rung_options(request, options, &tracker);
    damped.model.iteration.damping = request.degrade.retry_damping;
    rung = {tier::route(policy, {})};
    try {
      tracker.check("api::Engine slot");
      return finish(cascade(request, policy, options, damped, rung, nullptr), false);
    } catch (...) {
      abandon("damped retry: ");
    }
  }

  const ErrorCode last = attempts.back().code;
  const bool degradable = last == ErrorCode::deadline_exceeded ||
                          last == ErrorCode::resource_exhausted ||
                          last == ErrorCode::convergence_failure;
  if (!degradable) return fail(first_error);

  // Tier-B fallback, only when the policy pinned Tier C (balanced reaches C
  // only after B failed).  The exhausted budget is deliberately not re-armed:
  // the fallback is iteration-capped table math with bounded cost, and
  // raising the same DeadlineError again would make degradation unreachable.
  if (policy == tier::TierPolicy::force_reference) {
    rung = {tier::Tier::ceff};
    try {
      return finish(ceff_rung(request, options, rung_options(request, options, nullptr),
                              nullptr),
                    true);
    } catch (...) {
      abandon("");
    }
  }

  // The floor: the moments-only estimate (cell table at Ctotal) — no
  // iteration, cannot fail to converge.
  if (request.degrade.moments_floor) {
    rung = {tier::Tier::ceff, 0, true};
    try {
      return finish(moments_floor(request, options), true);
    } catch (...) {
      // Fall through to report the original failure; the floor itself only
      // throws for requests broken enough that degradation is meaningless.
    }
  }
  return fail(first_error);
}

Outcome<Response> Engine::model(const Request& request, const BatchOptions& options) {
  return run_slot(request, options, 0);
}

std::vector<Outcome<Response>> Engine::run_batch(std::span<const Request> requests,
                                                 const BatchOptions& options) {
  // Pre-characterize the batch's distinct cell sizes once, so the fan-out
  // below hits a warm, read-mostly library.  A size whose characterization
  // failed is remembered and its error re-raised directly for every slot
  // using that size — without this, each such slot would re-run the full
  // characterization grid just to hit the same exception again.
  std::vector<double> sizes;
  for (const Request& r : requests) {
    if (!positive_finite(r.cell_size)) continue;  // validate() rejects the slot
    const bool seen = std::any_of(sizes.begin(), sizes.end(), [&](double s) {
      return std::abs(s - r.cell_size) < 1e-9;
    });
    if (!seen) sizes.push_back(r.cell_size);
  }
  const std::vector<double> missing = collect_missing(sizes);
  const std::vector<std::exception_ptr> errors = sim::run_indexed_sweep_collect(
      missing.size(),
      [&](std::size_t i) {
        library_.ensure_driver(technology_, missing[i], options.grid);
      },
      options.n_threads);
  auto characterization_failure = [&](double size) -> std::exception_ptr {
    for (std::size_t i = 0; i < missing.size(); ++i) {
      if (errors[i] && std::abs(missing[i] - size) < 1e-9) return errors[i];
    }
    return nullptr;
  };

  // Fan the slots out with the full per-slot policy (budget arming, retry,
  // degradation).  The workers write straight into the pre-sized results
  // vector — an Outcome<Response> is ~1 KB, and routing it through a second
  // staging container costs a full copy round per slot at Tier A rates.
  // run_slot never throws for per-scenario failures; the collect is
  // belt-and-braces against anything escaping the policy itself.
  std::vector<Outcome<Response>> results(requests.size(),
                                         Outcome<Response>(ErrorInfo{}));
  ReplayCollector collector;
  ReplayCollector* collect = options.batch_scenarios ? &collector : nullptr;
  const std::vector<std::exception_ptr> escapes = sim::run_indexed_sweep_collect(
      requests.size(),
      [&](std::size_t i) {
        const Request& r = requests[i];
        if (std::exception_ptr e = characterization_failure(r.cell_size)) {
          results[i] = Outcome<Response>(describe_failure(e, r.label));
          return;
        }
        results[i] = run_slot(r, options, i, collect);
      },
      options.n_threads);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (escapes[i]) {
      results[i] = Outcome<Response>(describe_failure(escapes[i], requests[i].label));
    }
  }
  // Deferred far_end_replay transients: group equal-topology decks and run
  // each group as one shared-factorization multi-RHS block, then patch the
  // affected slots.  (No-op when nothing deferred.)
  if (collect) finalize_deferred(collector, options, results);
  return results;
}

void Engine::finalize_deferred(ReplayCollector& collector, const BatchOptions& options,
                               std::vector<Outcome<Response>>& results) {
  std::vector<ReplayJob>& jobs = collector.jobs;  // workers are done: no lock
  // Belt-and-braces: never patch a slot that is no longer a success (e.g. a
  // sweep escape overwrote it after the job was enqueued).
  std::erase_if(jobs, [&](const ReplayJob& j) { return !results[j.slot].ok(); });
  if (jobs.empty()) return;

  // Compile every deck up front (in parallel — netlist building is cheap but
  // hundreds of thousand-node ladders add up).  A compile failure fails just
  // its own slot.
  std::vector<tech::SourceNetDeck> decks(jobs.size());
  std::vector<sim::TransientOptions> sim_opts(jobs.size());
  const std::vector<std::exception_ptr> compile_errors =
      sim::run_indexed_sweep_collect(
          jobs.size(),
          [&](std::size_t i) {
            decks[i] = tech::compile_source_net(jobs[i].source, jobs[i].net,
                                                jobs[i].deck);
            sim_opts[i] = tech::sim_options(jobs[i].deck);
            sim_opts[i].budget = nullptr;  // per-lane trackers instead
          },
          options.n_threads);

  // Group by structural hash, confirmed by the exhaustive bit-compare —
  // near-identical decks (one ULP, one extra edge) never share a matrix.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (compile_errors[i]) {
      results[jobs[i].slot] =
          Outcome<Response>(describe_failure(compile_errors[i], jobs[i].label));
      continue;
    }
    const std::uint64_t hash =
        sim::scenario_group_hash(decks[i].netlist, sim_opts[i]);
    bool placed = false;
    for (std::vector<std::size_t>& group : groups) {
      const std::size_t head = group.front();
      if (sim::scenario_group_hash(decks[head].netlist, sim_opts[head]) != hash) {
        continue;
      }
      if (!sim::scenario_group_equal(decks[head].netlist, decks[i].netlist)) continue;
      if (!sim::scenario_options_equal(sim_opts[head], sim_opts[i])) continue;
      if (decks[head].probes != decks[i].probes) continue;
      group.push_back(i);
      placed = true;
      break;
    }
    if (!placed) groups.push_back({i});
  }

  // Every group, singletons included, runs as one block; groups run in
  // parallel across the sweep pool (they touch disjoint slots).  When the
  // block refuses or fails as a whole, each member runs alone through
  // sim::simulate -- exactly run_replay_inline's call -- so a group-level
  // fault can never fail a scenario that would have succeeded alone, and a
  // deck the block cannot take (naive assembly) gets the inline answer.
  const auto run_group = [&](std::size_t g) {
    const std::vector<std::size_t>& members = groups[g];
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t head = members.front();
    const sim::TransientOptions& so = sim_opts[head];
    const std::vector<ckt::NodeId>& probes = decks[head].probes;

    std::vector<sim::BlockScenario> lanes;
    lanes.reserve(members.size());
    for (std::size_t i : members) {
      lanes.push_back({&decks[i].netlist, jobs[i].deck.t_stop, jobs[i].tracker.get()});
    }
    std::vector<sim::BlockOutcome> outcomes;
    try {
      outcomes = sim::simulate_block(lanes, so, probes);
    } catch (...) {
      outcomes.assign(members.size(), {});
      for (std::size_t k = 0; k < members.size(); ++k) {
        const std::size_t i = members[k];
        try {
          sim::TransientOptions lane_opt = so;
          lane_opt.t_stop = jobs[i].deck.t_stop;
          lane_opt.budget = jobs[i].tracker.get();
          outcomes[k].result = sim::simulate(decks[i].netlist, lane_opt, probes);
        } catch (...) {
          outcomes[k].error = std::current_exception();
        }
      }
    }

    const double elapsed_share =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::size_t i = members[k];
      const ReplayJob& job = jobs[i];
      if (!outcomes[k].result.has_value()) {
        ErrorInfo info = describe_failure(outcomes[k].error, job.label);
        info.elapsed_s = results[job.slot].value().elapsed_s + elapsed_share;
        results[job.slot] = Outcome<Response>(std::move(info));
        continue;
      }
      Response& response = results[job.slot].value();
      measure_replay(decks[i], *outcomes[k].result, job.dominant_leaf,
                     job.input_time_50, job.keep_waveforms, technology_.vdd,
                     response);
      response.elapsed_s += elapsed_share;
    }
  };
  const std::vector<std::exception_ptr> group_escapes =
      sim::run_indexed_sweep_collect(groups.size(), run_group, options.n_threads);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!group_escapes[g]) continue;
    for (std::size_t i : groups[g]) {
      results[jobs[i].slot] =
          Outcome<Response>(describe_failure(group_escapes[g], jobs[i].label));
    }
  }
}

std::vector<double> Engine::collect_missing(std::span<const double> sizes) const {
  std::vector<double> missing;
  for (double size : sizes) {
    if (library_.find(size) != nullptr) continue;
    const bool seen = std::any_of(missing.begin(), missing.end(), [&](double s) {
      return std::abs(s - size) < 1e-9;
    });
    if (!seen) missing.push_back(size);
  }
  return missing;
}

void Engine::warm_cache(std::span<const double> cell_sizes,
                        const charlib::CharacterizationGrid& grid,
                        unsigned n_threads) {
  const std::vector<double> missing = collect_missing(cell_sizes);
  sim::run_indexed_sweep(
      missing.size(),
      [&](std::size_t i) { library_.ensure_driver(technology_, missing[i], grid); },
      n_threads);
}

void Engine::warm_cache(std::initializer_list<double> cell_sizes,
                        const charlib::CharacterizationGrid& grid,
                        unsigned n_threads) {
  warm_cache(std::span<const double>(cell_sizes.begin(), cell_sizes.size()), grid,
             n_threads);
}

bool Engine::load_library(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return false;
  library_.load(in);
  return true;
}

void Engine::save_library(const std::string& path) const {
  library_.save_file(path);
}

}  // namespace rlceff::api
