#include "sim/transient.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "circuit/mna.h"
#include "sim/scenario_block.h"
#include "sim/solver_backend.h"
#include "util/error.h"
#include "util/linalg.h"
#include "util/sparse.h"

namespace rlceff::sim {

namespace {

using ckt::ground;
using ckt::MnaStructure;
using ckt::Netlist;
using ckt::NodeId;
using detail::LinearSolver;
constexpr std::size_t npos = detail::DevicePositions::npos;

// Newton controls of the scalar engine.  An iterate is accepted once no
// unknown moves by more than the absolute tolerance plus the relative one
// at a 1 V scale; larger updates are damped to newton_damping_v.
constexpr double newton_v_abstol = 1e-6;  // [V]
constexpr double newton_rel_tol = 1e-6;
constexpr double newton_damping_v = 0.6;  // max voltage change per iteration [V]
constexpr int newton_max_iter = 100;

// Dynamic state carried between time steps.
struct CapacitorState {
  double v = 0.0;  // voltage across the device at the last accepted step
  double i = 0.0;  // current through the device at the last accepted step
};

struct InductorState {
  double i = 0.0;  // branch current at the last accepted step
  double v = 0.0;  // branch voltage at the last accepted step
};

struct DynamicState {
  std::vector<CapacitorState> caps;
  std::vector<InductorState> inds;
};

// The scalar Newton engine: MOSFET decks, DC operating points, and the
// `naive` reference.  Linear cached transients never come here (simulate()
// runs them as a one-lane block).
class Engine {
public:
  Engine(const Netlist& netlist, const TransientOptions& options)
      : nl_(netlist),
        opt_(options),
        structure_(netlist),
        m_(structure_.unknown_count()),
        linear_(netlist.mosfets().empty()),
        cached_(options.assembly == AssemblyMode::cached),
        kind_(detail::resolve_solver_kind(structure_, options)),
        solver_(detail::make_solver(structure_, kind_, options.budget)),
        pos_(netlist, structure_),
        rhs_(m_, 0.0),
        x_(m_, 0.0),
        x_new_(m_, 0.0) {
    mos_pos_.reserve(nl_.mosfets().size());
    for (const ckt::Mosfet& mos : nl_.mosfets()) {
      mos_pos_.push_back(
          {pos_.node(mos.drain), pos_.node(mos.gate), pos_.node(mos.source)});
    }
  }

  const MnaStructure& structure() const { return structure_; }

  SolverKind solver_kind() const { return kind_; }

  std::span<const double> solution() const { return x_; }

  double voltage(NodeId n) const { return n == ground ? 0.0 : x_[pos_.nodes[n]]; }

  double inductor_current(std::size_t k) const { return x_[pos_.inds[k]]; }

  // Resolves the probe positions once; record() then reads only those.
  void set_probes(std::span<const NodeId> probes) {
    probe_pos_.clear();
    for (NodeId p : probes) probe_pos_.push_back(pos_.node(p));
    probe_vals_.assign(probe_pos_.size(), 0.0);
  }

  void record(double t, TransientResult& result) {
    for (std::size_t p = 0; p < probe_pos_.size(); ++p) {
      probe_vals_[p] = probe_pos_[p] == npos ? 0.0 : x_[probe_pos_[p]];
    }
    result.record_probe_values(t, probe_vals_);
  }

  // Solves one (DC or companion-model) nonlinear system at time `t` with
  // step `h` (h <= 0 selects DC: capacitors open, inductors shorted) and
  // leaves the solution in x_ (also the initial Newton guess).
  void newton(double t, double h, const DynamicState& state, double gmin) {
    if (cached_) ensure_static(h, gmin);
    for (int iter = 0; iter < newton_max_iter; ++iter) {
      if (opt_.budget) opt_.budget->check("transient newton");
      if (cached_) {
        // Restore the linear stamps by memcpy; only the MOSFET entries and
        // the RHS are re-stamped below.
        solver_->load_static();
      } else {
        solver_->clear();
        detail::assemble_static_stamps(*solver_, nl_, structure_, h, gmin, opt_,
                                       cached_);
      }
      assemble_rhs(t, h, state);
      stamp_mosfets();
      solver_->factor();
      std::copy(rhs_.begin(), rhs_.end(), x_new_.begin());
      solver_->solve_into(x_new_);
      if (linear_) {
        std::swap(x_, x_new_);
        return;
      }

      double max_dv = 0.0;
      for (std::size_t k = 0; k < m_; ++k) {
        max_dv = std::max(max_dv, std::abs(x_new_[k] - x_[k]));
      }
      if (max_dv < newton_v_abstol + newton_rel_tol * 1.0) {
        std::swap(x_, x_new_);
        return;
      }

      // Damped update keeps the MOSFET linearization inside its trust region.
      const double scale = std::min(1.0, newton_damping_v / max_dv);
      for (std::size_t k = 0; k < m_; ++k) x_[k] += scale * (x_new_[k] - x_[k]);
    }
    throw ConvergenceError("transient: Newton failed to converge");
  }

  // Non-finite solution guard: a NaN/Inf stamp (or a numerically destroyed
  // factorization) propagates through the whole solution vector; surface it
  // as a singular-system failure instead of letting NaN waveforms escape.
  bool solution_finite() const {
    for (double v : x_) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  }

private:
  // Re-assembles the static image only when the step size or gmin changed:
  // once per gmin for DC, once for the regular step, and once more for a
  // shortened final step.
  void ensure_static(double h, double gmin) {
    if (static_valid_ && h == static_h_ && gmin == static_gmin_) return;
    solver_->clear();
    detail::assemble_static_stamps(*solver_, nl_, structure_, h, gmin, opt_,
                                   cached_);
    solver_->save_static();
    static_valid_ = true;
    static_h_ = h;
    static_gmin_ = gmin;
  }

  // Right-hand side: companion currents and source values.  Changes every
  // step, never touches the matrix.
  void assemble_rhs(double t, double h, const DynamicState& state) {
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    const bool dc = h <= 0.0;
    const bool trap = opt_.integrator == Integrator::trapezoidal;

    if (!dc) {
      for (std::size_t k = 0; k < nl_.capacitors().size(); ++k) {
        const CapacitorState& s = state.caps[k];
        const double geq = (trap ? 2.0 : 1.0) * nl_.capacitors()[k].capacitance / h;
        const double ieq = geq * s.v + (trap ? s.i : 0.0);
        // Norton companion: device current = geq * v - ieq, flowing b -> a.
        const auto [ia, ib] = pos_.caps[k];
        if (ib != npos) rhs_[ib] -= ieq;
        if (ia != npos) rhs_[ia] += ieq;
      }
    }

    for (std::size_t k = 0; k < nl_.inductors().size(); ++k) {
      const InductorState& s = state.inds[k];
      const double req = dc ? 0.0 : (trap ? 2.0 : 1.0) * nl_.inductors()[k].inductance / h;
      rhs_[pos_.inds[k]] = dc ? 0.0 : (trap ? -s.v - req * s.i : -req * s.i);
    }

    if (!dc) {
      // History term of the mutual coupling, mirroring the matrix stamp.
      for (const ckt::MutualInductor& m : nl_.mutual_inductors()) {
        const double req = (trap ? 2.0 : 1.0) * m.mutual / h;
        rhs_[pos_.inds[m.la]] -= req * state.inds[m.lb].i;
        rhs_[pos_.inds[m.lb]] -= req * state.inds[m.la].i;
      }
    }

    for (std::size_t k = 0; k < nl_.vsources().size(); ++k) {
      rhs_[pos_.vsrcs[k]] = nl_.vsources()[k].voltage.value_at(t);
    }
  }

  // MOSFET linearization around the current Newton iterate: the only stamps
  // that change between iterations (matrix and RHS).
  void stamp_mosfets() {
    for (std::size_t k = 0; k < nl_.mosfets().size(); ++k) {
      const ckt::Mosfet& mos = nl_.mosfets()[k];
      const auto [pd, pg, ps] = mos_pos_[k];
      const double vd = pd == npos ? 0.0 : x_[pd];
      const double vg = pg == npos ? 0.0 : x_[pg];
      const double vs = ps == npos ? 0.0 : x_[ps];
      const ckt::MosfetEval e =
          mos.is_pmos ? ckt::eval_pmos(mos.params, mos.width, vg - vs, vd - vs)
                      : ckt::eval_nmos(mos.params, mos.width, vg - vs, vd - vs);
      // Linearized channel current (drain -> source):
      //   i = ieq + gm * vgs + gds * vds.
      const double ieq = e.id - e.gm * (vg - vs) - e.gds * (vd - vs);
      if (pd != npos) {
        solver_->add(pd, pd, e.gds);
        if (pg != npos) solver_->add(pd, pg, e.gm);
        if (ps != npos) solver_->add(pd, ps, -(e.gm + e.gds));
      }
      if (ps != npos) {
        solver_->add(ps, ps, e.gm + e.gds);
        if (pg != npos) solver_->add(ps, pg, -e.gm);
        if (pd != npos) solver_->add(ps, pd, -e.gds);
      }
      // Companion current flows drain -> source.
      if (pd != npos) rhs_[pd] -= ieq;
      if (ps != npos) rhs_[ps] += ieq;
    }
  }

  struct MosPos {
    std::size_t drain;
    std::size_t gate;
    std::size_t source;
  };

  const Netlist& nl_;
  const TransientOptions& opt_;
  MnaStructure structure_;
  std::size_t m_;
  bool linear_;
  bool cached_;
  SolverKind kind_;
  std::unique_ptr<LinearSolver> solver_;

  // Unknown indices resolved once at construction (npos = ground).
  detail::DevicePositions pos_;
  std::vector<MosPos> mos_pos_;
  std::vector<std::size_t> probe_pos_;
  std::vector<double> probe_vals_;

  // Preallocated workspaces: the time-step loop never allocates.
  std::vector<double> rhs_;
  std::vector<double> x_;
  std::vector<double> x_new_;

  // Cache key of the static assembly currently held by the solver.
  double static_h_ = std::numeric_limits<double>::quiet_NaN();
  double static_gmin_ = std::numeric_limits<double>::quiet_NaN();
  bool static_valid_ = false;  // solver holds the static image for the key
};

void solve_dc(Engine& engine, const DynamicState& state) {
  try {
    engine.newton(0.0, 0.0, state, detail::gmin);
  } catch (const ConvergenceError&) {
    // gmin stepping: solve a heavily damped system first and walk gmin down.
    for (double gmin = 1e-3; gmin >= detail::gmin; gmin *= 1e-2) {
      engine.newton(0.0, 0.0, state, gmin);
    }
    engine.newton(0.0, 0.0, state, detail::gmin);
  }
}

}  // namespace

const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::automatic:
      return "auto";
    case SolverKind::dense:
      return "dense";
    case SolverKind::banded:
      return "banded";
    case SolverKind::sparse:
      return "sparse";
  }
  return "unknown";
}

SolverKind solver_kind_from_string(std::string_view name) {
  if (name == "auto") return SolverKind::automatic;
  if (name == "dense") return SolverKind::dense;
  if (name == "banded") return SolverKind::banded;
  if (name == "sparse") return SolverKind::sparse;
  throw Error("unknown solver kind '" + std::string(name) +
              "' (expected auto, dense, banded, or sparse)");
}

SolverKind selected_solver(const ckt::Netlist& netlist,
                           const TransientOptions& options) {
  return detail::resolve_solver_kind(MnaStructure(netlist), options);
}

TransientResult::TransientResult(std::vector<ckt::NodeId> probes,
                                 std::size_t reserve_steps, SolverKind solver)
    : probes_(std::move(probes)), waves_(probes_.size()), solver_(solver) {
  for (wave::Waveform& w : waves_) w.reserve(reserve_steps);
}

const wave::Waveform& TransientResult::at(ckt::NodeId node) const {
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    if (probes_[k] == node) return waves_[k];
  }
  throw Error("TransientResult: node was not probed");
}

void TransientResult::record_probe_values(double time,
                                          std::span<const double> per_probe) {
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    waves_[k].append(time, per_probe[k]);
  }
}

OperatingPoint dc_operating_point(const ckt::Netlist& netlist,
                                  const TransientOptions& options) {
  Engine engine(netlist, options);
  DynamicState state{std::vector<CapacitorState>(netlist.capacitors().size()),
                     std::vector<InductorState>(netlist.inductors().size())};
  solve_dc(engine, state);
  const std::span<const double> x = engine.solution();

  OperatingPoint op;
  op.node_voltage.resize(netlist.node_count(), 0.0);
  for (ckt::NodeId n = 1; n < netlist.node_count(); ++n) {
    op.node_voltage[n] = x[engine.structure().node_index(n)];
  }
  op.inductor_current.resize(netlist.inductors().size());
  for (std::size_t k = 0; k < netlist.inductors().size(); ++k) {
    op.inductor_current[k] = x[engine.structure().inductor_index(k)];
  }
  op.vsource_current.resize(netlist.vsources().size());
  for (std::size_t k = 0; k < netlist.vsources().size(); ++k) {
    op.vsource_current[k] = x[engine.structure().vsource_index(k)];
  }
  return op;
}

TransientResult simulate(const ckt::Netlist& netlist, const TransientOptions& options,
                         std::span<const ckt::NodeId> probes) {
  ensure(options.t_stop > 0.0 && options.dt > 0.0, "simulate: bad time range");
  if (netlist.mosfets().empty() && options.assembly == AssemblyMode::cached) {
    // One linear stepping loop: the deck is a one-lane block carrying the
    // caller's budget as its lane tracker.
    TransientOptions block_options = options;
    block_options.budget = nullptr;
    const BlockScenario lane{&netlist, options.t_stop, options.budget};
    BlockOutcome out = std::move(simulate_block({&lane, 1}, block_options, probes)[0]);
    if (out.error) std::rethrow_exception(out.error);
    return std::move(*out.result);
  }

  Engine engine(netlist, options);
  DynamicState state{std::vector<CapacitorState>(netlist.capacitors().size()),
                     std::vector<InductorState>(netlist.inductors().size())};
  solve_dc(engine, state);

  // Seed device state from the operating point (capacitor currents and
  // inductor voltages are zero in steady state).
  for (std::size_t k = 0; k < netlist.capacitors().size(); ++k) {
    const ckt::Capacitor& c = netlist.capacitors()[k];
    state.caps[k].v = engine.voltage(c.a) - engine.voltage(c.b);
    state.caps[k].i = 0.0;
  }
  for (std::size_t k = 0; k < netlist.inductors().size(); ++k) {
    state.inds[k].i = engine.inductor_current(k);
    state.inds[k].v = 0.0;
  }

  TransientResult result(std::vector<ckt::NodeId>(probes.begin(), probes.end()),
                         static_cast<std::size_t>(options.t_stop / options.dt) + 2,
                         engine.solver_kind());
  engine.set_probes(probes);
  engine.record(0.0, result);

  const bool trap = options.integrator == Integrator::trapezoidal;
  double t = 0.0;
  std::int64_t step = 0;
  while (t < options.t_stop - 1e-21) {
    if (options.budget) options.budget->charge_transient_steps(1, "transient");
    const double h = std::min(options.dt, options.t_stop - t);
    const double t_next = t + h;
    engine.newton(t_next, h, state, detail::gmin);
    // Periodic (cheap, amortized) non-finite guard; see solution_finite().
    if ((++step & 63) == 0 && !engine.solution_finite()) {
      throw SingularMatrixError("transient: non-finite solution (singular or "
                                "NaN-stamped system)");
    }

    // Advance companion-model state.
    for (std::size_t k = 0; k < netlist.capacitors().size(); ++k) {
      const ckt::Capacitor& c = netlist.capacitors()[k];
      CapacitorState& s = state.caps[k];
      const double v_new = engine.voltage(c.a) - engine.voltage(c.b);
      const double geq = (trap ? 2.0 : 1.0) * c.capacitance / h;
      const double i_new = trap ? geq * (v_new - s.v) - s.i : geq * (v_new - s.v);
      s.v = v_new;
      s.i = i_new;
    }
    for (std::size_t k = 0; k < netlist.inductors().size(); ++k) {
      const ckt::Inductor& l = netlist.inductors()[k];
      InductorState& s = state.inds[k];
      s.i = engine.inductor_current(k);
      s.v = engine.voltage(l.a) - engine.voltage(l.b);
    }

    t = t_next;
    engine.record(t, result);
  }
  if (!engine.solution_finite()) {
    throw SingularMatrixError("transient: non-finite solution (singular or "
                              "NaN-stamped system)");
  }
  return result;
}

}  // namespace rlceff::sim
