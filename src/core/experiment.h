// The reference side of the experiment harness: one paper test case = one
// driver + interconnect configuration, simulated (the "HSPICE" column) with
// uniformly measured delay/slew.  The model it scores is not run here:
// api::Engine's Tier C is its Tier-B model plus these views.
//
// The interconnect is a net::CoupledGroup with a victim: a plain net is the
// one-net group (net::CoupledGroup::single), so uniform lines, multi-section
// routes, branched trees and coupled aggressor/victim bundles all run through
// this one harness.  It simulates these views of the victim:
//   * reference — the full (coupled) system simulated at once: every net
//     gets its inverter, coupling caps and mutual inductors stamped as-is,
//   * baseline — the victim alone in its quiet environment (all coupling
//     caps grounded at 1x), which anchors the delay-pushout measurement,
//   * noise — the victim held quiet while the aggressors switch: the peak
//     victim-noise bump, the classic crosstalk noise number.
// A one-net group needs neither the baseline nor the noise transient: its
// quiet environment is the reference deck itself and its noise view is flat,
// so it pays for the reference only.
//
// The "far end" columns are measured at the victim's dominant-path leaf
// (net::NetMetrics::dominant_leaf).  All delays are 50 %-to-50 % from the
// input edge; slew is the raw 10-90 % transition at the probe.  measure_edge
// is the one measurement convention, shared with the engine's modeled
// waveforms, so model-vs-reference errors are apples to apples.
#ifndef RLCEFF_CORE_EXPERIMENT_H
#define RLCEFF_CORE_EXPERIMENT_H

#include <vector>

#include "net/coupled.h"
#include "net/net.h"
#include "tech/testbench.h"

namespace rlceff::core {

// Aggressor activity relative to the victim's rising output edge.
enum class AggressorSwitching {
  same_direction,  // aggressor output rises with the victim -> 0x Miller
  quiet,           // aggressor holds                        -> 1x Miller
  opposite,        // aggressor output falls                 -> 2x Miller
};

double miller_factor(AggressorSwitching switching);

// Defaults to a quiet neighbor, so a group net beyond a scenario's aggressor
// list is simulated as the 1x neighbor the engine's Miller model assumes.
struct AggressorDrive {
  double driver_size = 75.0;
  double input_slew = 100e-12;
  AggressorSwitching switching = AggressorSwitching::quiet;
};

struct ExperimentCase {
  net::CoupledGroup group;      // a plain net: net::CoupledGroup::single(net)
  std::size_t victim = 0;
  double driver_size = 75.0;    // victim driver
  double input_slew = 100e-12;  // victim input ramp
  // One entry per group net (the victim's entry is ignored).  When shorter
  // than the group, the remaining nets default to quiet 75X aggressors.
  std::vector<AggressorDrive> aggressors;
};

struct EdgeMetrics {
  double delay = 0.0;  // input 50 % -> probe 50 % [s]
  double slew = 0.0;   // probe 10 % -> 90 % [s]
};

// The one edge-measurement convention (rising edge, delay vs t_reference,
// raw 10-90 % slew) shared by every view of the harness and the engine.
EdgeMetrics measure_edge(const wave::Waveform& w, double vdd, double t_reference);

struct ExperimentOptions {
  tech::DeckOptions deck;        // simulator fidelity (t_stop auto-sized)
  bool include_noise = true;     // quiet-victim noise simulation
  bool keep_waveforms = false;   // retain sampled waveforms (figure benches)
};

struct ExperimentResult {
  EdgeMetrics ref_near;   // victim driver output in the reference simulation
  EdgeMetrics ref_far;    // victim dominant-path leaf in the reference
  EdgeMetrics base_near;  // quiet-environment (1x) simulated baseline
  EdgeMetrics base_far;

  double delay_pushout = 0.0;  // ref_far - base_far [s]
  double peak_noise = 0.0;     // quiet-victim peak |bump| at the far end [V]
  double input_time_50 = 0.0;  // victim input 50 % crossing [s]

  // The reference deck's auto-sized horizon and the victim leaf its far-end
  // columns were measured at, so a replay of the model can run to the same
  // horizon and be measured at the same sink.
  double t_stop = 0.0;
  std::size_t far_leaf = 0;

  // Populated when keep_waveforms is set; times are absolute deck time.
  wave::Waveform ref_near_wave;
  wave::Waveform ref_far_wave;
  wave::Waveform noise_wave;  // quiet-victim far end (empty for one net)

  // Backend that factored the reference deck (never `automatic`).
  sim::SolverKind solver = sim::SolverKind::automatic;
};

// Simulates the reference, the quiet baseline and the noise view of one case
// (baseline and noise only for groups of two or more nets).  Every transient
// runs under options.deck.sim (budget and solver included).
ExperimentResult simulate_reference(const tech::Technology& technology,
                                    const ExperimentCase& scenario,
                                    const ExperimentOptions& options = {});

// Relative error helper used in the paper's tables: (model - ref) / ref.
double pct_error(double model, double reference);

// Settle-horizon heuristic of the harness (and the engine's replay decks):
// six time constants of the estimated driver resistance plus the dominant
// path into the net's total charge, plus four times of flight.  extra_cap is
// charge beyond the net's own (e.g. attached coupling capacitance).
double settle_time(double driver_size, const net::NetMetrics& metrics,
                   double extra_cap = 0.0);

}  // namespace rlceff::core

#endif  // RLCEFF_CORE_EXPERIMENT_H
