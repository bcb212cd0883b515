// Transient circuit simulation (the reproduction's HSPICE substitute).
//
// Fixed-step MNA integration with trapezoidal (default) or backward-Euler
// companion models, Newton-Raphson for the MOSFET driver, and a DC operating
// point with gmin stepping.  The Jacobian is factored by one of three
// interchangeable backends (SolverKind): a banded LU after reverse
// Cuthill-McKee ordering (discretized lines are nearly tridiagonal), a
// compressed-sparse LU with fill-reducing ordering for large trees and wide
// coupled buses, or the dense LU for small/pathological systems — selected
// automatically per netlist (selected_solver) unless overridden.
//
// There is one linear stepping loop: a MOSFET-free deck under cached
// assembly runs as a one-lane block of the shared-factorization engine
// (sim/scenario_block.h).  The scalar Newton engine in transient.cpp serves
// MOSFET decks, DC operating points, and the `naive` reference.
#ifndef RLCEFF_SIM_TRANSIENT_H
#define RLCEFF_SIM_TRANSIENT_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/netlist.h"
#include "util/budget.h"
#include "waveform/waveform.h"

namespace rlceff::sim {

enum class Integrator { trapezoidal, backward_euler };

// The linear-solver backend behind the MNA factorization.  `automatic` (the
// default everywhere) resolves per netlist via selected_solver(): banded when
// RCM leaves a narrow band, sparse when the system is large and its
// fill-reducing LU is estimated cheaper than a dense factor, dense otherwise.
// All three backends implement the same factor-once static-image contract,
// agree to LU roundoff (~1e-10 on waveforms), and are individually
// deterministic.
enum class SolverKind { automatic, dense, banded, sparse };

const char* to_string(SolverKind kind);

// Parses "auto" / "dense" / "banded" / "sparse"; throws Error otherwise.
SolverKind solver_kind_from_string(std::string_view name);

// MNA assembly strategy.
//
// `cached` splits assembly into a static image (topology, linear device
// stamps, and companion conductances — functions of the step size only) and
// per-step dynamics (RHS sources, companion currents, MOSFET linearization).
// Linear circuits run as a one-lane block (sim/scenario_block.h), which
// factors the static matrix once per step size and does a pure substitution
// per step; nonlinear circuits restore the static image by memcpy each
// Newton iteration and restamp only the MOSFET entries.  Both paths produce
// bitwise-identical stamp sequences to `naive`, which rebuilds and refactors
// the full Jacobian every iteration in the scalar engine and is kept as the
// independent reference for equivalence tests and the factor-once speedup
// benchmark.
enum class AssemblyMode { cached, naive };

struct TransientOptions {
  double t_stop = 1e-9;     // simulation end time [s]
  double dt = 0.1e-12;      // fixed time step [s]
  Integrator integrator = Integrator::trapezoidal;
  // Cooperative execution budget (see util/budget.h): when set, the step
  // loop charges every accepted time step against max_transient_steps and
  // every step/Newton iteration checkpoints the deadline and cancel token,
  // raising DeadlineError/BudgetError promptly instead of running the
  // horizon out.  Newton runs at most capped_iterations(iter_defaults::
  // newton, max_newton_iter) iterations and raises BudgetError (instead of
  // ConvergenceError) when the budget was the binding cap.  Null (default)
  // costs one branch per checkpoint.
  util::ExecTracker* budget = nullptr;
  AssemblyMode assembly = AssemblyMode::cached;
  // Linear-solver override: `automatic` applies the selection heuristic (see
  // selected_solver); any other value forces that backend.
  SolverKind solver = SolverKind::automatic;
  // Fault-injection hooks for the property/chaos harnesses (testkit/faults.h
  // generalizes these into keyed per-slot fault plans).  Never set outside
  // tests.
  //   debug_cached_stamp_skew scales every capacitor's companion conductance
  //   by (1 + skew) in the *cached* assembly path only, so any nonzero value
  //   breaks the cached==naive contract and must be caught by the
  //   equivalence oracles.
  //   debug_cached_stamp_nan poisons the first capacitor's cached-path stamp
  //   with NaN; the chaos oracles prove the simulator surfaces this as a
  //   classified failure (the non-finite solution guard below) instead of a
  //   hang or a silently-NaN waveform.
  double debug_cached_stamp_skew = 0.0;
  bool debug_cached_stamp_nan = false;
};

// Simulation output: one sampled waveform per probed node, plus the backend
// that factored the deck (never `automatic`).
class TransientResult {
public:
  TransientResult(std::vector<ckt::NodeId> probes, std::size_t reserve_steps,
                  SolverKind solver);

  const std::vector<ckt::NodeId>& probes() const { return probes_; }
  const wave::Waveform& at(ckt::NodeId node) const;
  SolverKind solver() const { return solver_; }

  // Appends one sample per probe; `per_probe` is in probes() order.
  void record_probe_values(double time, std::span<const double> per_probe);

private:
  std::vector<ckt::NodeId> probes_;
  std::vector<wave::Waveform> waves_;
  SolverKind solver_;
};

// DC operating point: node voltages indexed by NodeId (ground included as 0)
// plus inductor branch currents in netlist order.
struct OperatingPoint {
  std::vector<double> node_voltage;
  std::vector<double> inductor_current;
  std::vector<double> vsource_current;
};

// The backend simulate() will factor this netlist with: the explicit
// override when `options.solver` is not automatic, otherwise the heuristic —
// banded while RCM keeps the band narrow, else sparse when the unknown count
// is large enough that the estimated sparse LU work beats the dense factor,
// else dense.  Never returns SolverKind::automatic.
SolverKind selected_solver(const ckt::Netlist& netlist,
                           const TransientOptions& options = {});

// Solves the DC operating point at t = 0 (sources at their t = 0 values,
// capacitors open, inductors shorted).
OperatingPoint dc_operating_point(const ckt::Netlist& netlist,
                                  const TransientOptions& options = {});

// Runs a transient from the DC operating point, recording the probed nodes.
// Throws the typed error of whatever stopped the run (BudgetError,
// DeadlineError, SingularMatrixError for a non-finite solution, ...).
TransientResult simulate(const ckt::Netlist& netlist, const TransientOptions& options,
                         std::span<const ckt::NodeId> probes);

}  // namespace rlceff::sim

#endif  // RLCEFF_SIM_TRANSIENT_H
