#include "trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/experiment.h"
#include "lint/lint.h"
#include "moments/admittance.h"
#include "sim/scenario_block.h"
#include "tech/testbench.h"
#include "tier/analytical.h"
#include "tier/router.h"
#include "util/budget.h"
#include "util/error.h"

namespace perfbench {

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), origin_(clock::now()) {}

std::int32_t SpanRecorder::reserve(const char* name, std::size_t slot,
                                   std::int32_t parent) {
  SpanRecord s;
  s.name = name;
  s.slot = slot;
  s.parent = parent;
  s.start_s = -1.0;
  spans_.push_back(s);
  running_.emplace_back();
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::start(std::int32_t id) {
  const clock::time_point now = clock::now();
  running_[static_cast<std::size_t>(id)] = now;
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  if (s.start_s < 0.0) s.start_s = std::chrono::duration<double>(now - origin_).count();
}

void SpanRecorder::stop(std::int32_t id) {
  const clock::time_point now = clock::now();
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.busy_s += std::chrono::duration<double>(now - running_[static_cast<std::size_t>(id)]).count();
  s.end_s = std::chrono::duration<double>(now - origin_).count();
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "workload\tslot\tspan\tparent\tname\tstart_us\tend_us\tbusy_us\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "%s\t%zu\t%zu\t%d\t%s\t%.3f\t%.3f\t%.3f\n", workload_.c_str(),
                 s.slot, i, s.parent, s.name, 1e6 * s.start_s, 1e6 * s.end_s,
                 1e6 * s.busy_s);
  }
  return std::fclose(f) == 0;
}

namespace {

// Layer-by-layer replays per traced run (see traced_run).
constexpr std::size_t kReplays = 3;

// A budget that counts accepted transient steps (ExecTracker only counts
// when armed with a limit) without ever binding.
constexpr std::int64_t kNonBindingSteps = std::int64_t{1} << 50;

util::ExecBudget counting_budget(const util::ExecBudget& budget) {
  util::ExecBudget out = budget;
  if (!out.limited()) out.max_transient_steps = kNonBindingSteps;
  return out;
}

// Runs a reserved span's clock for one scope (stops on throw too).
class Timed {
public:
  Timed(SpanRecorder& recorder, std::int32_t id) : recorder_(recorder), id_(id) {
    recorder_.start(id_);
  }
  ~Timed() { recorder_.stop(id_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

private:
  SpanRecorder& recorder_;
  std::int32_t id_;
};

// Adds the steps a tracker accepted during one scope to a counter.
class StepDelta {
public:
  StepDelta(const util::ExecTracker& tracker, std::int64_t& total)
      : tracker_(tracker), total_(total), before_(tracker.steps_used()) {}
  ~StepDelta() { total_ += tracker_.steps_used() - before_; }
  StepDelta(const StepDelta&) = delete;
  StepDelta& operator=(const StepDelta&) = delete;

private:
  const util::ExecTracker& tracker_;
  std::int64_t& total_;
  std::int64_t before_;
};

struct Route {
  bool ok = false;
  api::ErrorCode code = api::ErrorCode::internal_error;
  tier::Tier tier = tier::Tier::ceff;
  std::size_t escalations = 0;   // of the answering attempt
  std::size_t escalations_taken = 0;  // every escalation, failed attempts too
  bool degraded = false;
  std::size_t abandoned = 0;     // attempt-trail length
  bool reached_c = false;
  bool served_tiered = false;
};

struct Served {
  tier::Tier tier = tier::Tier::ceff;
  std::size_t escalations = 0;
};

struct Counters {
  std::size_t lint_rejected = 0;
  std::size_t core_calls = 0, core_converged = 0;
  std::int64_t core_iterations = 0;
  std::int64_t driver_steps = 0, scalar_steps = 0, block_lane_steps = 0;
  std::size_t block_groups = 0;
};

struct Deferred {
  std::size_t slot = 0;
  wave::Pwl source;
  tech::DeckOptions deck;
  std::size_t dominant_leaf = 0;
  double input_time_50 = 0.0;
};

bool converged(const core::DriverOutputModel& m) {
  if (!m.ceff1.converged) return false;
  if (m.kind != core::ModelKind::one_ramp && !m.ceff2.converged) return false;
  if (m.kind == core::ModelKind::three_ramp && !m.ceff3.converged) return false;
  return true;
}

// The modeled PWL shifted into absolute deck time (the model's t = 0 is the
// input's 50 % crossing), as the engine's far-end replays drive it.
wave::Pwl absolute_source(const core::DriverOutputModel& m, double input_time_50) {
  std::vector<std::pair<double, double>> pts = m.waveform.points();
  for (auto& [t, v] : pts) t += input_time_50;
  return wave::Pwl(std::move(pts));
}

// Mirrors api::Engine's per-slot policy with one span per layer call.
class Prober {
public:
  Prober(api::Engine& engine, const Workload& workload, SpanRecorder& recorder)
      : engine_(engine), w_(workload), rec_(recorder), tech_(engine.technology()) {}

  Route run_slot(std::size_t slot);
  // Runs the far-end replays the slots deferred, as equal-topology blocks;
  // returns the number of lanes whose result differs in any bit from the
  // untraced response.
  std::size_t run_deferred(const std::vector<api::Outcome<api::Response>>& untraced);

  Counters counters;

private:
  Served attempt(const api::Request& r, std::size_t slot, std::int32_t parent,
                 util::ExecTracker& tracker, Route& route);
  void lint_screen(const api::Request& r, std::size_t slot, std::int32_t parent);
  Served tiered(const api::Request& r, std::size_t slot, std::int32_t parent,
                util::ExecTracker& tracker, Route& route);
  bool tier_a(const api::Request& r, std::size_t slot, std::int32_t parent);
  void fast_walk(const net::Net& net, std::size_t slot, std::int32_t parent);
  core::DriverOutputModel ceff(const api::Request& r, const net::Net& net,
                               std::size_t slot, std::int32_t parent,
                               util::ExecTracker& tracker);
  void model_only(const api::Request& r, std::size_t slot, std::int32_t parent,
                  util::ExecTracker& tracker);
  void reference(const api::Request& r, std::size_t slot, std::int32_t parent,
                 util::ExecTracker& tracker);
  void moments_floor(const api::Request& r, std::size_t slot, std::int32_t parent);
  void require_converged(const api::Request& r, const core::DriverOutputModel& m);
  tech::DeckOptions reference_deck(const api::Request& r, util::ExecTracker* tracker) const;
  const charlib::CharacterizedDriver& driver(const api::Request& r) {
    return engine_.library().ensure_driver(tech_, r.cell_size, w_.options.grid);
  }

  api::Engine& engine_;
  const Workload& w_;
  SpanRecorder& rec_;
  const tech::Technology& tech_;
  std::vector<Deferred> deferred_;
};

Route Prober::run_slot(std::size_t slot) {
  const api::Request& request = w_.requests[slot];
  if (request.coupled()) {
    throw std::logic_error("perfbench: no workload carries coupled groups");
  }
  const std::int32_t root = rec_.reserve("api.slot", slot, -1);
  Timed timed(rec_, root);
  Route route;
  route.served_tiered = request.tier != tier::TierPolicy::reference;
  util::ExecTracker tracker(counting_budget(request.budget));
  const auto classify = [&](std::exception_ptr e) {
    return api::describe_failure(std::move(e), request.label).code;
  };

  api::ErrorCode first;
  try {
    const Served s = attempt(request, slot, root, tracker, route);
    route.ok = true;
    route.tier = s.tier;
    route.escalations = s.escalations;
    return route;
  } catch (...) {
    first = classify(std::current_exception());
  }
  route.code = first;
  if (first == api::ErrorCode::lint_rejected) ++counters.lint_rejected;
  if (!request.degrade.enabled || request.budget.cancel.cancel_requested()) return route;
  route.abandoned = 1;

  api::ErrorCode last = first;
  if (first == api::ErrorCode::convergence_failure && request.degrade.retry_damping > 0.0) {
    api::Request damped = request;
    damped.model.iteration.damping = request.degrade.retry_damping;
    try {
      const Served s = attempt(damped, slot, root, tracker, route);
      route.ok = true;
      route.tier = s.tier;
      route.escalations = s.escalations;
      return route;
    } catch (...) {
      last = classify(std::current_exception());
      route.abandoned = 2;
    }
  }
  const bool degradable = last == api::ErrorCode::deadline_exceeded ||
                          last == api::ErrorCode::resource_exhausted ||
                          last == api::ErrorCode::convergence_failure;
  // No workload degrades a reference request (the engine's ceff_model
  // fallback tier), so the ladder here is the moments-only floor alone.
  if (!degradable || request.reference || !request.degrade.moments_floor) return route;
  try {
    moments_floor(request, slot, root);
  } catch (...) {
    return route;
  }
  route.ok = true;
  route.degraded = true;
  route.tier = tier::Tier::ceff;
  route.escalations = 0;
  return route;
}

Served Prober::attempt(const api::Request& r, std::size_t slot, std::int32_t parent,
                       util::ExecTracker& tracker, Route& route) {
  if (r.lint.screen) lint_screen(r, slot, parent);
  if (r.tier != tier::TierPolicy::reference) return tiered(r, slot, parent, tracker, route);
  if (r.reference) {
    reference(r, slot, parent, tracker);
    return {tier::Tier::reference, 0};
  }
  model_only(r, slot, parent, tracker);
  return {tier::Tier::ceff, 0};
}

void Prober::lint_screen(const api::Request& r, std::size_t slot, std::int32_t parent) {
  const std::int32_t id = rec_.reserve("lint.screen", slot, parent);
  lint::Report report;
  {
    Timed timed(rec_, id);
    lint::Options checks = r.lint.checks;
    if (!(checks.driver_resistance > 0.0)) {
      checks.driver_resistance = lint::estimate_driver_resistance(tech_, r.cell_size);
    }
    if (!(checks.input_slew > 0.0)) checks.input_slew = r.input_slew;
    if (checks.tier_policy == tier::TierPolicy::reference) checks.tier_policy = r.tier;
    report = lint::lint_net(r.net, checks);
  }
  if (!report.diagnostics.empty() && report.worst() >= r.lint.fail_at) {
    throw api::LintRejectedError("perfbench: lint screen rejected " + r.label, {});
  }
}

Served Prober::tiered(const api::Request& r, std::size_t slot, std::int32_t parent,
                      util::ExecTracker& tracker, Route& route) {
  if (r.tier != tier::TierPolicy::balanced) {
    throw std::logic_error("perfbench: only the balanced cascade is traced");
  }
  if (tier_a(r, slot, parent)) return {tier::Tier::analytical, 0};
  ++route.escalations_taken;
  try {
    model_only(r, slot, parent, tracker);
    return {tier::Tier::ceff, 1};
  } catch (const ConvergenceError&) {
    // Balanced escalates a Tier-B fixed point that cannot agree with itself.
    ++route.escalations_taken;
    route.reached_c = true;
    reference(r, slot, parent, tracker);
    return {tier::Tier::reference, 2};
  }
}

void Prober::fast_walk(const net::Net& net, std::size_t slot, std::int32_t parent) {
  const std::int32_t id = rec_.reserve("moments.fast_walk", slot, parent);
  Timed timed(rec_, id);
  (void)moments::fast_net_admittance(net);
}

bool Prober::tier_a(const api::Request& r, std::size_t slot, std::int32_t parent) {
  const std::int32_t id = rec_.reserve("tier.analytical", slot, parent);
  const charlib::CharacterizedDriver& drv = driver(r);
  fast_walk(r.net, slot, id);
  Timed timed(rec_, id);
  try {
    return tier::admit_analytical(tier::analytical_estimate(drv, r.input_slew, r.net)).ok;
  } catch (const DeadlineError&) {
    throw;
  } catch (const BudgetError&) {
    throw;
  } catch (const Error&) {
    return false;  // "estimate_failed": a refusal like any other
  }
}

core::DriverOutputModel Prober::ceff(const api::Request& r, const net::Net& net,
                                     std::size_t slot, std::int32_t parent,
                                     util::ExecTracker& tracker) {
  const charlib::CharacterizedDriver& drv = driver(r);
  const std::int32_t id = rec_.reserve("core.ceff", slot, parent);
  {
    const std::int32_t child = rec_.reserve("moments.cascade", slot, id);
    Timed timed(rec_, child);
    (void)moments::net_admittance(net);
  }
  core::DriverModelOptions options = r.model;
  options.iteration.budget = &tracker;
  core::DriverOutputModel m;
  {
    Timed timed(rec_, id);
    m = core::model_driver_output(drv, r.input_slew, net, options);
  }
  ++counters.core_calls;
  counters.core_iterations += m.ceff1.iterations;
  if (m.kind != core::ModelKind::one_ramp) counters.core_iterations += m.ceff2.iterations;
  if (m.kind == core::ModelKind::three_ramp) counters.core_iterations += m.ceff3.iterations;
  if (converged(m)) ++counters.core_converged;
  return m;
}

void Prober::require_converged(const api::Request& r, const core::DriverOutputModel& m) {
  if (r.require_convergence && !converged(m)) {
    throw ConvergenceError("perfbench: Ceff fixed point did not converge for " + r.label);
  }
}

void Prober::model_only(const api::Request& r, std::size_t slot, std::int32_t parent,
                        util::ExecTracker& tracker) {
  const core::DriverOutputModel m = ceff(r, r.net, slot, parent, tracker);
  if (r.far_end_replay) {
    require_converged(r, m);
    // The engine's replay plan: the modeled PWL in absolute deck time, the
    // reference harness's horizon, and the dominant-path leaf.
    const net::NetMetrics metrics = r.net.metrics();
    Deferred job;
    job.slot = slot;
    job.input_time_50 = w_.options.deck.t_start + 0.5 * r.input_slew;
    job.deck = w_.options.deck;
    job.deck.t_stop = w_.options.deck.t_start + r.input_slew +
                      std::max(1e-9, core::settle_time(r.cell_size, metrics));
    job.deck.sim.budget = nullptr;
    job.deck.sim.solver = r.solver;
    job.dominant_leaf = metrics.dominant_leaf;
    job.source = absolute_source(m, job.input_time_50);
    deferred_.push_back(std::move(job));
  }
  require_converged(r, m);
}

tech::DeckOptions Prober::reference_deck(const api::Request& r,
                                         util::ExecTracker* tracker) const {
  tech::DeckOptions deck = w_.options.deck;
  deck.sim.budget = tracker;
  deck.sim.solver = r.solver;
  deck.t_stop = deck.t_start + r.input_slew +
                std::max(1e-9, core::settle_time(r.cell_size, r.net.metrics()));
  return deck;
}

void Prober::reference(const api::Request& r, std::size_t slot, std::int32_t parent,
                       util::ExecTracker& tracker) {
  const tech::DeckOptions deck = reference_deck(r, &tracker);
  tech::NetSimResult ref;
  {
    const std::int32_t id = rec_.reserve("tech.driver_sim", slot, parent);
    StepDelta steps(tracker, counters.driver_steps);
    Timed timed(rec_, id);
    ref = tech::simulate_driver_net(tech_, tech::Inverter{r.cell_size}, r.input_slew,
                                    r.net, deck);
  }
  const core::DriverOutputModel m = ceff(r, r.net, slot, parent, tracker);
  if (r.far_end) {
    const wave::Pwl absolute = absolute_source(m, ref.input_time_50);
    const std::int32_t id = rec_.reserve("sim.scalar_replay", slot, parent);
    StepDelta steps(tracker, counters.scalar_steps);
    Timed timed(rec_, id);
    (void)tech::simulate_source_net(absolute, r.net, deck);
  }
  require_converged(r, m);
}

void Prober::moments_floor(const api::Request& r, std::size_t slot, std::int32_t parent) {
  const charlib::CharacterizedDriver& drv = driver(r);
  const std::int32_t id = rec_.reserve("core.moments_only", slot, parent);
  Timed timed(rec_, id);
  (void)core::estimate_driver_output_moments_only(drv, r.input_slew, r.net);
}

std::size_t Prober::run_deferred(const std::vector<api::Outcome<api::Response>>& untraced) {
  std::erase_if(deferred_, [&](const Deferred& d) { return !untraced[d.slot].ok(); });
  std::vector<tech::SourceNetDeck> decks(deferred_.size());
  std::vector<sim::TransientOptions> options(deferred_.size());
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    const Deferred& job = deferred_[i];
    const std::int32_t id = rec_.reserve("tech.replay_deck", job.slot, -1);
    Timed timed(rec_, id);
    decks[i] = tech::compile_source_net(job.source, w_.requests[job.slot].net, job.deck);
    options[i] = tech::sim_options(job.deck);
    options[i].budget = nullptr;
  }
  // The engine's grouping: structural hash confirmed by the bit-compares.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    const std::uint64_t hash = sim::scenario_group_hash(decks[i].netlist, options[i]);
    bool placed = false;
    for (std::vector<std::size_t>& group : groups) {
      const std::size_t head = group.front();
      if (sim::scenario_group_hash(decks[head].netlist, options[head]) != hash ||
          !sim::scenario_group_equal(decks[head].netlist, decks[i].netlist) ||
          !sim::scenario_options_equal(options[head], options[i]) ||
          decks[head].probes != decks[i].probes) {
        continue;
      }
      group.push_back(i);
      placed = true;
      break;
    }
    if (!placed) groups.push_back({i});
  }

  std::size_t mismatches = 0;
  for (const std::vector<std::size_t>& members : groups) {
    const std::size_t head = members.front();
    std::vector<std::unique_ptr<util::ExecTracker>> trackers;
    std::vector<sim::BlockScenario> lanes;
    for (std::size_t i : members) {
      trackers.push_back(std::make_unique<util::ExecTracker>(counting_budget({})));
      lanes.push_back({&decks[i].netlist, deferred_[i].deck.t_stop, trackers.back().get()});
    }
    std::vector<sim::BlockOutcome> outcomes;
    if (members.size() > 1) {
      const std::int32_t id = rec_.reserve("sim.block", deferred_[head].slot, -1);
      Timed timed(rec_, id);
      outcomes = sim::simulate_block(lanes, options[head], decks[head].probes);
      ++counters.block_groups;
    } else {
      const std::int32_t id = rec_.reserve("sim.scalar_replay", deferred_[head].slot, -1);
      Timed timed(rec_, id);
      sim::TransientOptions lane = options[head];
      lane.t_stop = deferred_[head].deck.t_stop;
      lane.budget = trackers.front().get();
      sim::BlockOutcome o;
      o.result = sim::simulate(decks[head].netlist, lane, decks[head].probes);
      outcomes.push_back(std::move(o));
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      const Deferred& job = deferred_[members[k]];
      (members.size() > 1 ? counters.block_lane_steps : counters.scalar_steps) +=
          trackers[k]->steps_used();
      const std::int32_t id = rec_.reserve("tech.replay_measure", job.slot, -1);
      core::EdgeMetrics far;
      {
        Timed timed(rec_, id);
        if (!outcomes[k].result) {
          ++mismatches;
          continue;
        }
        far = core::measure_edge(
            outcomes[k].result->at(decks[members[k]].nodes.leaves.at(job.dominant_leaf)),
            tech_.vdd, job.input_time_50);
      }
      const api::Response& served = untraced[job.slot].value();
      if (std::bit_cast<std::uint64_t>(far.delay) !=
              std::bit_cast<std::uint64_t>(served.model_far.delay) ||
          std::bit_cast<std::uint64_t>(far.slew) !=
              std::bit_cast<std::uint64_t>(served.model_far.slew)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// ---- metric derivation -----------------------------------------------------

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

// One layer-by-layer replay of every slot.
struct Replay {
  Counters counters;
  std::size_t served_a = 0, served_b = 0, reached_c = 0, degraded = 0;
  std::size_t escalations = 0, attempts = 0;
  std::vector<bool> c_slot;
  std::size_t route_mismatches = 0;
  std::string first_mismatch;
  double wall_s = 0.0;
  // Self time (busy minus children) and busy time by span name, self time
  // by layer, and self time by span name within the slots that reached C.
  std::map<std::string, double> self_by_name, busy_by_name, layer_self, tail_self;
};

Replay replay(api::Engine& engine, const Workload& workload,
              const std::vector<api::Outcome<api::Response>>& untraced,
              SpanRecorder& recorder) {
  Replay out;
  Prober prober(engine, workload, recorder);
  const std::size_t n = workload.requests.size();
  out.c_slot.assign(n, false);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t slot = 0; slot < n; ++slot) {
    const Route route = prober.run_slot(slot);
    const api::Outcome<api::Response>& o = untraced[slot];
    bool same = route.ok == o.ok();
    if (same && o.ok()) {
      const api::Response& r = o.value();
      same = route.tier == r.tier && route.escalations == r.tier_escalations &&
             route.degraded == r.degraded && route.abandoned == r.attempts.size();
    } else if (same) {
      same = route.code == o.error().code;
    }
    if (!same && out.route_mismatches++ == 0) {
      out.first_mismatch = "slot " + std::to_string(slot) + " (" +
                           workload.requests[slot].label + ")";
    }
    if (route.ok && route.served_tiered && !route.degraded) {
      if (route.tier == tier::Tier::analytical) ++out.served_a;
      if (route.tier == tier::Tier::ceff) ++out.served_b;
    }
    if (route.reached_c) {
      ++out.reached_c;
      out.c_slot[slot] = true;
    }
    if (route.degraded) ++out.degraded;
    out.escalations += route.escalations_taken;
    out.attempts += 1 + route.abandoned;
  }
  const std::size_t replay_mismatches = prober.run_deferred(untraced);
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (replay_mismatches != 0) {
    out.route_mismatches += replay_mismatches;
    if (out.first_mismatch.empty()) out.first_mismatch = "a deferred far-end replay";
  }
  out.counters = prober.counters;

  const std::vector<SpanRecord>& spans = recorder.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].busy_s;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.busy_s;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (out.c_slot[s.slot]) out.tail_self[s.name] += self[i];
    out.self_by_name[s.name] += self[i];
    out.busy_by_name[s.name] += s.busy_s;
    // api.slot roots hold only the replay's own bookkeeping.
    if (std::string(s.name) != "api.slot") out.layer_self[layer_of(s.name)] += self[i];
  }
  return out;
}

// Per-key median over the replays (a key missing from a replay counts as 0).
std::map<std::string, double> median_by_key(
    const std::vector<Replay>& replays,
    std::map<std::string, double> Replay::*field) {
  std::map<std::string, std::vector<double>> values;
  for (const Replay& r : replays) {
    for (const auto& [key, v] : r.*field) values[key];
  }
  for (const Replay& r : replays) {
    for (auto& [key, v] : values) {
      const auto it = (r.*field).find(key);
      v.push_back(it == (r.*field).end() ? 0.0 : it->second);
    }
  }
  std::map<std::string, double> out;
  for (auto& [key, v] : values) out[key] = median(std::move(v));
  return out;
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TraceReport traced_run(api::Engine& engine, const Workload& workload,
                       const std::vector<api::Outcome<api::Response>>& untraced,
                       const CharlibStats& charlib, SpanRecorder& recorder) {
  TraceReport report;
  const std::size_t n = workload.requests.size();
  const double nd = static_cast<double>(n);

  // The replay runs kReplays times, each right after a timed run_batch
  // pass, so that the pass wall time it is held against was taken in the
  // same minute; every time is the median over the kReplays.  The
  // counts come from the first replay (every replay checks its route), and
  // only its spans are kept.
  std::vector<Replay> replays;
  std::vector<double> pass_walls;
  while (replays.size() < kReplays) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)engine.run_batch(workload.requests, workload.options);
    pass_walls.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    if (replays.empty()) {
      replays.push_back(replay(engine, workload, untraced, recorder));
    } else {
      SpanRecorder scratch(recorder.workload());
      replays.push_back(replay(engine, workload, untraced, scratch));
    }
  }
  const double pass_wall_s = median(pass_walls);
  for (const Replay& r : replays) {
    report.route_mismatches += r.route_mismatches;
    if (report.first_mismatch.empty()) report.first_mismatch = r.first_mismatch;
  }
  const Replay& first = replays.front();
  const std::size_t served_a = first.served_a, served_b = first.served_b;
  const std::size_t reached_c = first.reached_c, degraded = first.degraded;
  const std::size_t escalations = first.escalations, attempts = first.attempts;
  const std::vector<bool>& c_slot = first.c_slot;
  std::vector<double> walls;
  for (const Replay& r : replays) walls.push_back(r.wall_s);
  const double traced_wall_s = median(walls);
  std::map<std::string, double> self_by_name = median_by_key(replays, &Replay::self_by_name);
  std::map<std::string, double> busy_by_name = median_by_key(replays, &Replay::busy_by_name);
  const std::map<std::string, double> layer_self = median_by_key(replays, &Replay::layer_self);
  const std::map<std::string, double> tail_self = median_by_key(replays, &Replay::tail_self);
  double tail_replayed = 0.0;
  for (const auto& [name, t] : tail_self) tail_replayed += t;

  // A layer the workload's route never calls reports 0, like the tier
  // fractions, so every figure is per workload net.
  const auto time_per_net = [&](const char* name, double scale) {
    return scale * self_by_name[name] / nd;
  };
  const auto rate = [](double seconds, std::int64_t steps) {
    return steps > 0 ? 1e9 * seconds / static_cast<double>(steps) : 0.0;
  };

  const Counters& c = first.counters;
  double attributed = 0.0;
  for (const auto& [layer, s] : layer_self) attributed += s;

  // Share of the slots' wall time spent in slots that reached Tier C.
  double slot_time = 0.0, tail_time = 0.0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    const api::Outcome<api::Response>& o = untraced[slot];
    const double e = o.ok() ? o.value().elapsed_s : o.error().elapsed_s;
    slot_time += e;
    if (c_slot[slot]) tail_time += e;
  }

  const bool tiered = workload.requests.front().tier != tier::TierPolicy::reference;
  const double driver_busy = busy_by_name["tech.driver_sim"];

  report.metrics = {
      {"charlib.cold_cell_s", charlib.cold_cell_s, "s"},
      {"charlib.cells", static_cast<double>(charlib.cells), "count"},
      {"lint.screen_ns_per_net", time_per_net("lint.screen", 1e9), "ns"},
      {"lint.rejected_fraction", static_cast<double>(c.lint_rejected) / nd, "fraction"},
      {"moments.fast_walk_ns_per_net", time_per_net("moments.fast_walk", 1e9), "ns"},
      {"moments.cascade_ns_per_net", time_per_net("moments.cascade", 1e9), "ns"},
      {"tier.analytical_ns_per_net", time_per_net("tier.analytical", 1e9), "ns"},
      {"tier.a_fraction", tiered ? static_cast<double>(served_a) / nd : 0.0, "fraction"},
      {"tier.b_fraction", tiered ? static_cast<double>(served_b) / nd : 0.0, "fraction"},
      {"tier.c_fraction", tiered ? static_cast<double>(reached_c) / nd : 0.0, "fraction"},
      {"tier.escalations_per_net", static_cast<double>(escalations) / nd, "count"},
      {"tier.c_time_share_pct",
       tiered && slot_time > 0.0 ? 100.0 * tail_time / slot_time : 0.0, "%"},
      {"core.ceff_us_per_net", time_per_net("core.ceff", 1e6), "us"},
      {"core.ceff_iterations_per_net", static_cast<double>(c.core_iterations) / nd,
       "count"},
      {"core.ceff_converged_fraction",
       c.core_calls ? static_cast<double>(c.core_converged) / static_cast<double>(c.core_calls)
                    : 0.0,
       "fraction"},
      {"tech.driver_sim_ms_per_net", 1e3 * driver_busy / nd, "ms"},
      {"tech.steps_per_net", static_cast<double>(c.driver_steps) / nd, "count"},
      {"sim.driver_ns_per_step", rate(driver_busy, c.driver_steps), "ns"},
      {"sim.block_ns_per_lane_step", rate(busy_by_name["sim.block"], c.block_lane_steps), "ns"},
      {"sim.scalar_replay_ns_per_step",
       rate(busy_by_name["sim.scalar_replay"], c.scalar_steps), "ns"},
      {"sim.replay_groups", static_cast<double>(c.block_groups), "count"},
      {"api.unattributed_us_per_net", 1e6 * (pass_wall_s - attributed) / nd, "us"},
      {"api.attempts_per_net", static_cast<double>(attempts) / nd, "count"},
      {"api.degraded_fraction", static_cast<double>(degraded) / nd, "fraction"},
      {"api.trace_overhead_pct", 100.0 * (traced_wall_s - pass_wall_s) / pass_wall_s, "%"},
  };

  char line[160];
  std::string coverage;
  for (const auto& [layer, s] : layer_self) {
    std::snprintf(line, sizeof line, "  %-8s %10.3f ms  %6.2f %% of the pass\n", layer.c_str(),
                  1e3 * s, 100.0 * s / pass_wall_s);
    coverage += line;
  }
  std::snprintf(line, sizeof line, "  %-8s %10.3f ms  %6.2f %% of the pass (unattributed)\n",
                "api", 1e3 * (pass_wall_s - attributed),
                100.0 * (pass_wall_s - attributed) / pass_wall_s);
  coverage += line;
  if (tail_replayed > 0.0) {
    std::snprintf(line, sizeof line, "replayed time of the slots that reached Tier C: %.3f ms\n",
                  1e3 * tail_replayed);
    coverage += line;
    for (const auto& [name, t] : tail_self) {
      std::snprintf(line, sizeof line, "  %-20s %10.3f ms  %6.2f %%\n", name.c_str(), 1e3 * t,
                    100.0 * t / tail_replayed);
      coverage += line;
    }
  }
  report.coverage = coverage;
  return report;
}

}  // namespace perfbench
