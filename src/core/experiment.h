// The experiment harness: one paper test case = one driver + interconnect
// configuration, simulated ("HSPICE" column) and modeled (two-ramp and
// one-ramp columns), with uniformly measured delay/slew.
//
// The interconnect is a net::CoupledGroup with a victim: a plain net is the
// one-net group (net::CoupledGroup::single), so uniform lines, multi-section
// routes, branched trees and coupled aggressor/victim bundles all run through
// this one harness.  It computes these views of the victim side by side:
//   * reference — the full (coupled) system simulated at once: every net
//     gets its inverter, coupling caps and mutual inductors stamped as-is,
//   * baseline — the victim alone in its quiet environment (all coupling
//     caps grounded at 1x), which anchors the delay-pushout measurement,
//   * model — the paper's Ceff flow run on the Miller-decoupled victim net:
//     each coupling cap is switched to ground scaled by its aggressor's
//     Miller factor (0x when the aggressor switches with the victim, 1x when
//     quiet, 2x when it switches against it),
//   * noise — the victim held quiet while the aggressors switch: the peak
//     victim-noise bump, the classic crosstalk noise number,
//   * one-ramp — the paper's single-ramp baseline on the same net.
// A one-net group needs neither the baseline nor the noise transient: its
// quiet environment is the reference deck itself and its noise view is flat,
// so it pays for the reference (and the far-end replay) only.
//
// The "far end" columns are measured at the victim's dominant-path leaf
// (net::NetMetrics::dominant_leaf).  All delays are 50 %-to-50 % from the
// input edge; slew is the raw 10-90 % transition at the probe.  The same
// measurement code runs on simulated and modeled waveforms, so
// model-vs-reference errors are apples to apples.
#ifndef RLCEFF_CORE_EXPERIMENT_H
#define RLCEFF_CORE_EXPERIMENT_H

#include <string>
#include <vector>

#include "charlib/library.h"
#include "core/driver_model.h"
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

// Defaults to a quiet neighbor so a scenario whose aggressor list is shorter
// than the group simulates exactly what miller_factors assumes (1x).
struct AggressorDrive {
  double driver_size = 75.0;
  double input_slew = 100e-12;
  AggressorSwitching switching = AggressorSwitching::quiet;
};

struct ExperimentCase {
  std::string label;
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
  DriverModelOptions model;      // paper flow controls
  bool include_one_ramp = true;  // also run the one-ramp baseline model
  bool include_far_end = true;   // replay the model through the decoupled net
  bool include_noise = true;     // quiet-victim noise simulation
  bool keep_waveforms = false;   // retain sampled waveforms (figure benches)
  // Grid used when a driver has to be characterized (tests shrink this).
  charlib::CharacterizationGrid grid = charlib::CharacterizationGrid::standard();
};

struct ExperimentResult {
  EdgeMetrics ref_near;   // victim driver output in the reference simulation
  EdgeMetrics ref_far;    // victim dominant-path leaf in the reference
  EdgeMetrics base_near;  // quiet-environment (1x) simulated baseline
  EdgeMetrics base_far;
  EdgeMetrics model_near;       // Ceff model on the Miller-decoupled net
  EdgeMetrics model_far;        // model PWL replayed through the decoupled net
  EdgeMetrics model_base_near;  // model in the quiet (1x) environment
  EdgeMetrics one_near;         // one-ramp baseline at the driver output

  DriverOutputModel model;       // Miller-decoupled model diagnostics
  DriverOutputModel model_base;  // quiet (1x) environment model (equals
                                 // `model` when every Miller factor is 1)
  DriverOutputModel one_ramp;

  double delay_pushout = 0.0;        // ref_far - base_far [s] (simulated)
  double delay_pushout_model = 0.0;  // model_near - model_base_near [s]
  double peak_noise = 0.0;           // quiet-victim peak |bump| at the far end [V]
  double input_time_50 = 0.0;        // victim input 50 % crossing [s]

  // Populated when keep_waveforms is set; times are absolute deck time.
  wave::Waveform ref_near_wave;
  wave::Waveform ref_far_wave;
  wave::Waveform model_far_wave;
  wave::Waveform noise_wave;  // quiet-victim far end (empty for one net)

  // Backend that factored the reference deck (never `automatic`).
  sim::SolverKind solver = sim::SolverKind::automatic;
};

// Per-net Miller factors for a case (1.0 for the victim and for nets beyond
// the aggressor list).
std::vector<double> miller_factors(const ExperimentCase& scenario);

// Runs the reference, the quiet baseline, the noise view, the
// Miller-decoupled model and the one-ramp baseline for one case (baseline and
// noise only for groups of two or more nets).  The library caches driver
// characterizations across calls (only the victim's driver needs one; the
// aggressor inverters are simulated directly).
ExperimentResult run_experiment(const tech::Technology& technology,
                                charlib::CellLibrary& library,
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
