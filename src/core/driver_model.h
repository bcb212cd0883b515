// The paper's driver output modeling flow (Sec. 5).
//
// Given a pre-characterized driver, an input slew, and the RLC line it
// drives:
//   1. expand the driving-point admittance moments and fit Eq 3,
//   2. extract the driver's Thevenin resistance at the total capacitance and
//      compute the voltage breakpoint f = Z0/(Z0+Rs)  (Eq 1),
//   3. iterate Ceff1 (Eq 4/5) against the cell table to get Tr1,
//   4. evaluate the inductance criteria (Eq 9),
//   5. if significant: iterate Ceff2 (Eq 6/7) for Tr2, stretch it for the
//      plateau (Eq 8), and emit the two-ramp waveform (Eq 2);
//      otherwise: iterate a single Ceff with f = 1 and emit one ramp.
//
// The emitted waveform lives in net time: t = 0 is the input's 50 %
// crossing, and the waveform's own 50 % crossing sits at the cell table's
// delay for load Ceff1 — i.e. the model is exactly what a library-based
// static timing engine can compute without any SPICE run.
#ifndef RLCEFF_CORE_DRIVER_MODEL_H
#define RLCEFF_CORE_DRIVER_MODEL_H

#include "charlib/characterize.h"
#include "core/ceff.h"
#include "core/criteria.h"
#include "moments/admittance.h"
#include "moments/rational.h"
#include "net/net.h"
#include "tech/wire.h"
#include "waveform/pwl.h"

namespace rlceff::core {

// How the plateau between the two ramps is absorbed (Sec. 4.2).
enum class PlateauHandling {
  modified_second_ramp,  // Eq 8: stretch Tr2 by the plateau (paper's default)
  flat_step,             // explicit flat piece between the ramps
  none,                  // ignore the plateau (ablation baseline)
};

enum class ModelSelection {
  automatic,       // Eq 9 decides (paper flow)
  force_one_ramp,  // baseline used in Table 1 / Fig 7 comparisons
  force_two_ramp,
};

struct DriverModelOptions {
  PlateauHandling plateau = PlateauHandling::modified_second_ramp;
  ModelSelection selection = ModelSelection::automatic;
  CeffIterationOptions iteration;
  // Sec. 5: Rs is extracted at the total capacitance; the ablation flips
  // this to re-extract at the converged Ceff1.
  bool rs_at_total_cap = true;
  // Ablation A3: add a third ramp modeling the second reflection.
  bool three_ramp_extension = false;
  // Sec. 5 / ref [11]: append an exponential tail (the "gate resistor"
  // model) to one-ramp outputs whenever the slowest natural mode of the
  // Rs-plus-load system is slower than the table edge (and the single Ceff
  // shows any shielding at all, Ceff < Ctotal).
  bool shielding_tail = true;
};

enum class ModelKind { one_ramp, two_ramp, three_ramp };

struct DriverOutputModel {
  ModelKind kind = ModelKind::one_ramp;
  double vdd = 0.0;

  // Line/driver quantities feeding the model.
  double rs = 0.0;  // Thevenin driver resistance [ohm]
  double z0 = 0.0;
  double tf = 0.0;  // time of flight [s]
  double f = 0.0;   // breakpoint fraction (Eq 1); 1 for one-ramp models
  moments::RationalAdmittance admittance{0.0, 0.0, 0.0, 0.0, 0.0};

  CeffIteration ceff1;  // two-ramp: first ramp; one-ramp: the single Ceff
  CeffIteration ceff2;  // two-ramp only
  CeffIteration ceff3;  // three-ramp extension only
  double f2 = 0.0;            // second breakpoint (three-ramp extension)
  double plateau_time = 0.0;  // 2*tf - Tr1, clamped at 0 [s]
  double tr2_new = 0.0;       // Eq 8 stretched second ramp [s]

  InductanceCriteria criteria;

  // One-ramp models only: the ref-[11] exponential tail, when applied.
  bool has_shielding_tail = false;
  double tail_tau = 0.0;  // time constant of the slowest natural mode [s]

  // Modeled driver output, anchored so t = 0 is the input 50 % crossing.
  wave::Pwl waveform;
  double t50 = 0.0;  // the waveform's 50 % crossing (the modeled gate delay)
};

// Runs the full flow for any net::Net (uniform lines, multi-section routes,
// branched trees).  The breakpoint, plateau and criteria use the dominant
// root-to-leaf path (net::Net::metrics); the admittance moments use the whole
// net (moments::net_admittance).
DriverOutputModel model_driver_output(const charlib::CharacterizedDriver& driver,
                                      double input_slew, const net::Net& net,
                                      const DriverModelOptions& options = {});

// Uniform line with a far-end load: adapter over the net::Net flow.
DriverOutputModel model_driver_output(const charlib::CharacterizedDriver& driver,
                                      double input_slew,
                                      const tech::WireParasitics& wire,
                                      double c_load_far,
                                      const DriverModelOptions& options = {});

// RLC tree (receiver capacitances folded into the leaf branches): adapter
// over the net::Net flow via net::Net::from_tree.
DriverOutputModel model_driver_output(const charlib::CharacterizedDriver& driver,
                                      double input_slew,
                                      const moments::RlcBranch& net,
                                      const DriverModelOptions& options = {});

// Degraded floor of the api::Engine fidelity ladder: no moment fit, no
// fixed point, no transient — just the cell table evaluated at the net's
// total capacitance (the first admittance moment m1).  A few table lookups,
// deterministic, cannot fail to converge.  Documented envelope: Ceff <=
// Ctotal and the tables are monotone in load, so the estimate's delay and
// transition upper-bound the converged Ceff model's; concretely the result
// satisfies kind == one_ramp, ceff1 == {Ctotal, transition(Ctotal), 0,
// converged}, and t50 == driver.delay(input_slew, Ctotal) exactly.
DriverOutputModel estimate_driver_output_moments_only(
    const charlib::CharacterizedDriver& driver, double input_slew,
    const net::Net& net);

}  // namespace rlceff::core

#endif  // RLCEFF_CORE_DRIVER_MODEL_H
