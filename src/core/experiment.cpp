#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/stats.h"

namespace rlceff::core {

namespace {

AggressorDrive aggressor_at(const ExperimentCase& c, std::size_t k) {
  return k < c.aggressors.size() ? c.aggressors[k] : AggressorDrive{};
}

// Sizes the horizon so even the slowest (weak driver, long line) net fully
// completes its 90 % crossing with margin: the settle_time heuristic per
// net, with its attached coupling capacitance added to the charge it must
// move.  The whole deck shares the longest net's horizon.
double auto_t_stop(const ExperimentCase& c, const ExperimentOptions& o) {
  double t_stop = 0.0;
  for (std::size_t k = 0; k < c.group.size(); ++k) {
    const net::NetMetrics metrics = c.group.net_at(k).metrics();
    double driver_size = c.driver_size;
    double slew = c.input_slew;
    if (k != c.victim) {
      const AggressorDrive aggressor = aggressor_at(c, k);
      driver_size = aggressor.driver_size;
      slew = aggressor.input_slew;
    }
    const double settle = settle_time(driver_size, metrics,
                                      c.group.coupling_capacitance_at(k));
    t_stop = std::max(t_stop, o.deck.t_start + slew + std::max(1e-9, settle));
  }
  return t_stop;
}

tech::DriveEdge edge_for(AggressorSwitching switching) {
  switch (switching) {
    case AggressorSwitching::same_direction:
      return tech::DriveEdge::rise;
    case AggressorSwitching::opposite:
      return tech::DriveEdge::fall;
    case AggressorSwitching::quiet:
      break;
  }
  return tech::DriveEdge::hold_low;
}

std::vector<tech::NetDrive> build_drives(const ExperimentCase& c,
                                         bool victim_switches) {
  std::vector<tech::NetDrive> drives(c.group.size());
  for (std::size_t k = 0; k < c.group.size(); ++k) {
    tech::NetDrive& d = drives[k];
    if (k == c.victim) {
      d.cell = tech::Inverter{c.driver_size};
      d.input_slew = c.input_slew;
      d.edge = victim_switches ? tech::DriveEdge::rise : tech::DriveEdge::hold_low;
      continue;
    }
    const AggressorDrive aggressor = aggressor_at(c, k);
    d.cell = tech::Inverter{aggressor.driver_size};
    d.input_slew = aggressor.input_slew;
    d.edge = edge_for(aggressor.switching);
  }
  return drives;
}

}  // namespace

double settle_time(double driver_size, const net::NetMetrics& metrics,
                   double extra_cap) {
  const double rs_estimate = 3.7e3 / driver_size;
  const double c_total =
      metrics.wire_capacitance + metrics.load_capacitance + extra_cap;
  return 6.0 * (rs_estimate + metrics.path_resistance) * c_total +
         4.0 * metrics.time_of_flight;
}

double pct_error(double model, double reference) {
  return 100.0 * util::relative_error(model, reference);
}

EdgeMetrics measure_edge(const wave::Waveform& w, double vdd, double t_reference) {
  const wave::EdgeTiming e = wave::measure_rising_edge(w, 0.0, vdd);
  return {e.t50 - t_reference, e.transition_10_90()};
}

double miller_factor(AggressorSwitching switching) {
  switch (switching) {
    case AggressorSwitching::same_direction:
      return 0.0;
    case AggressorSwitching::quiet:
      return 1.0;
    case AggressorSwitching::opposite:
      break;
  }
  return 2.0;
}

ExperimentResult simulate_reference(const tech::Technology& technology,
                                    const ExperimentCase& scenario,
                                    const ExperimentOptions& options) {
  ensure(!scenario.group.empty(), "simulate_reference: empty group");
  ensure(scenario.victim < scenario.group.size(),
         "simulate_reference: victim index out of range");
  // A one-net group has no environment: its quiet baseline is the reference
  // deck itself and its noise view is flat, so neither is simulated.
  const bool alone = scenario.group.size() == 1;

  ExperimentResult out;
  const net::NetMetrics victim_metrics =
      scenario.group.net_at(scenario.victim).metrics();
  tech::DeckOptions deck = options.deck;
  deck.t_stop = auto_t_stop(scenario, options);
  out.t_stop = deck.t_stop;
  out.far_leaf = victim_metrics.dominant_leaf;

  // Reference: the full coupled system, every net driven.
  {
    const std::vector<tech::NetDrive> drives = build_drives(scenario, true);
    tech::CoupledSimResult ref =
        tech::simulate_coupled_group(technology, drives, scenario.group, deck);
    tech::NetSimResult& victim = ref.nets[scenario.victim];
    out.input_time_50 = victim.input_time_50;
    out.solver = victim.solver;
    const wave::Waveform& far = victim.leaves.at(victim_metrics.dominant_leaf);
    out.ref_near = measure_edge(victim.near_end, technology.vdd, victim.input_time_50);
    out.ref_far = measure_edge(far, technology.vdd, victim.input_time_50);
    if (options.keep_waveforms) {
      out.ref_near_wave = std::move(victim.near_end);
      out.ref_far_wave = victim.leaves.at(victim_metrics.dominant_leaf);
    }
  }

  // Quiet-environment baseline: the victim alone with every coupling cap
  // grounded at 1x — the delay-pushout anchor.
  if (alone) {
    out.base_near = out.ref_near;
    out.base_far = out.ref_far;
  } else {
    const net::Net quiet_net = scenario.group.decoupled_net(scenario.victim);
    const tech::Inverter cell{scenario.driver_size};
    const tech::NetSimResult base = tech::simulate_driver_net(
        technology, cell, scenario.input_slew, quiet_net, deck);
    const wave::Waveform& far = base.leaves.at(victim_metrics.dominant_leaf);
    out.base_near = measure_edge(base.near_end, technology.vdd, base.input_time_50);
    out.base_far = measure_edge(far, technology.vdd, base.input_time_50);
  }
  out.delay_pushout = out.ref_far.delay - out.base_far.delay;

  // Noise view: victim held quiet, aggressors switching.
  if (options.include_noise && !alone) {
    const std::vector<tech::NetDrive> drives = build_drives(scenario, false);
    tech::CoupledSimResult noisy =
        tech::simulate_coupled_group(technology, drives, scenario.group, deck);
    const wave::Waveform& far =
        noisy.nets[scenario.victim].leaves.at(victim_metrics.dominant_leaf);
    ensure(far.size() > 0, "simulate_reference: empty noise waveform");
    const double rest = far.value(0);
    double peak = 0.0;
    for (std::size_t k = 0; k < far.size(); ++k) {
      peak = std::max(peak, std::abs(far.value(k) - rest));
    }
    out.peak_noise = peak;
    if (options.keep_waveforms) out.noise_wave = far;
  }

  return out;
}

}  // namespace rlceff::core
