#include "sim/scenario_block.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "circuit/mna.h"
#include "sim/solver_backend.h"
#include "util/error.h"

namespace rlceff::sim {

namespace {

using ckt::MnaStructure;
using ckt::Netlist;
using ckt::NodeId;

constexpr std::size_t npos = detail::DevicePositions::npos;

// --------------------------------------------------------------- grouping ---

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_bits(double a, double b) { return bits(a) == bits(b); }

// FNV-1a over 64-bit words, bytewise.  Collisions are harmless (the
// exhaustive confirms decide), so this only needs to spread well enough
// that unrelated topologies rarely share a bucket.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(bits(v)); }
};

}  // namespace

std::uint64_t scenario_group_hash(const Netlist& netlist,
                                  const TransientOptions& options) {
  Fnv64 f;
  f.mix(static_cast<std::uint64_t>(netlist.node_count()));
  f.mix(static_cast<std::uint64_t>(netlist.resistors().size()));
  for (const ckt::Resistor& r : netlist.resistors()) {
    f.mix(static_cast<std::uint64_t>(r.a));
    f.mix(static_cast<std::uint64_t>(r.b));
    f.mix(r.resistance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.capacitors().size()));
  for (const ckt::Capacitor& c : netlist.capacitors()) {
    f.mix(static_cast<std::uint64_t>(c.a));
    f.mix(static_cast<std::uint64_t>(c.b));
    f.mix(c.capacitance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.inductors().size()));
  for (const ckt::Inductor& l : netlist.inductors()) {
    f.mix(static_cast<std::uint64_t>(l.a));
    f.mix(static_cast<std::uint64_t>(l.b));
    f.mix(l.inductance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.mutual_inductors().size()));
  for (const ckt::MutualInductor& m : netlist.mutual_inductors()) {
    f.mix(static_cast<std::uint64_t>(m.la));
    f.mix(static_cast<std::uint64_t>(m.lb));
    f.mix(m.mutual);
  }
  // Source incidence shapes the matrix; the waveform only shapes the RHS.
  f.mix(static_cast<std::uint64_t>(netlist.vsources().size()));
  for (const ckt::VSource& v : netlist.vsources()) {
    f.mix(static_cast<std::uint64_t>(v.pos));
    f.mix(static_cast<std::uint64_t>(v.neg));
  }
  f.mix(static_cast<std::uint64_t>(netlist.mosfets().size()));

  f.mix(options.dt);
  f.mix(static_cast<std::uint64_t>(options.integrator));
  f.mix(static_cast<std::uint64_t>(options.assembly));
  f.mix(static_cast<std::uint64_t>(options.solver));
  f.mix(options.debug_cached_stamp_skew);
  f.mix(static_cast<std::uint64_t>(options.debug_cached_stamp_nan));
  return f.h;
}

bool scenario_group_equal(const Netlist& a, const Netlist& b) {
  // Nonlinear stamps depend on the per-lane Newton iterate: never shared.
  if (!a.mosfets().empty() || !b.mosfets().empty()) return false;
  if (a.node_count() != b.node_count()) return false;
  if (a.resistors().size() != b.resistors().size() ||
      a.capacitors().size() != b.capacitors().size() ||
      a.inductors().size() != b.inductors().size() ||
      a.mutual_inductors().size() != b.mutual_inductors().size() ||
      a.vsources().size() != b.vsources().size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.resistors().size(); ++k) {
    const ckt::Resistor& ra = a.resistors()[k];
    const ckt::Resistor& rb = b.resistors()[k];
    if (ra.a != rb.a || ra.b != rb.b || !same_bits(ra.resistance, rb.resistance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.capacitors().size(); ++k) {
    const ckt::Capacitor& ca = a.capacitors()[k];
    const ckt::Capacitor& cb = b.capacitors()[k];
    if (ca.a != cb.a || ca.b != cb.b || !same_bits(ca.capacitance, cb.capacitance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.inductors().size(); ++k) {
    const ckt::Inductor& la = a.inductors()[k];
    const ckt::Inductor& lb = b.inductors()[k];
    if (la.a != lb.a || la.b != lb.b || !same_bits(la.inductance, lb.inductance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.mutual_inductors().size(); ++k) {
    const ckt::MutualInductor& ma = a.mutual_inductors()[k];
    const ckt::MutualInductor& mb = b.mutual_inductors()[k];
    if (ma.la != mb.la || ma.lb != mb.lb || !same_bits(ma.mutual, mb.mutual)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.vsources().size(); ++k) {
    const ckt::VSource& va = a.vsources()[k];
    const ckt::VSource& vb = b.vsources()[k];
    if (va.pos != vb.pos || va.neg != vb.neg) return false;
  }
  return true;
}

bool scenario_options_equal(const TransientOptions& a, const TransientOptions& b) {
  return same_bits(a.dt, b.dt) && a.integrator == b.integrator &&
         a.assembly == b.assembly && a.solver == b.solver &&
         same_bits(a.debug_cached_stamp_skew, b.debug_cached_stamp_skew) &&
         a.debug_cached_stamp_nan == b.debug_cached_stamp_nan;
}

// ----------------------------------------------------------- block engine ---

namespace {

// Lockstep engine over k lanes.  All per-lane data is SoA with a fixed
// stride W (the initial lane count): value of unknown/device i for lane j
// lives at [i * W + j].  Active lanes occupy columns 0..A-1; lanes retire
// from the tail (scenarios are sorted by descending t_stop, so the shortest
// runs sit at the end) and faulted lanes are removed by a stable left shift
// of the columns behind them (rare, O(n * k)), which preserves the
// descending order the tail scan relies on.
//
// One stepping loop for every lane count.  A one-lane block (W = 1, every
// cached linear sim::simulate) instantiates it with the lane loops' trip
// count and stride fixed at 1, takes the single-RHS solve_into, and
// threads its lane's tracker into the sparse factor/solve; at a trip count
// of 1 the runtime-count lane loops would pay their vectorized prologue on
// every device every step.
class BlockEngine {
public:
  BlockEngine(std::span<const BlockScenario> scenarios,
              const TransientOptions& options, std::span<const NodeId> probes,
              std::span<BlockOutcome> out)
      : opt_(options),
        nl0_(*scenarios[0].netlist),
        structure_(nl0_),
        m_(structure_.unknown_count()),
        kind_(detail::resolve_solver_kind(structure_, options)),
        solver_(detail::make_solver(
            structure_, kind_, scenarios.size() == 1 ? scenarios[0].budget : nullptr)),
        pos_(nl0_, structure_),
        probes_(probes.begin(), probes.end()),
        out_(out) {
    probe_pos_.reserve(probes_.size());
    for (NodeId p : probes_) probe_pos_.push_back(pos_.node(p));

    // Longest-running lanes first, stable so equal t_stops keep input order.
    std::vector<std::size_t> order(scenarios.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scenarios[a].t_stop > scenarios[b].t_stop;
    });
    for (std::size_t slot : order) {
      const BlockScenario& s = scenarios[slot];
      if (!(s.t_stop > 0.0)) {
        // sim::simulate's precondition, confined to this lane.
        out_[slot].error = std::make_exception_ptr(Error("simulate: bad time range"));
        continue;
      }
      lane_slot_.push_back(slot);
      lane_net_.push_back(s.netlist);
      lane_tstop_.push_back(s.t_stop);
      lane_budget_.push_back(s.budget);
      results_.emplace_back(probes_,
                            static_cast<std::size_t>(s.t_stop / opt_.dt) + 2, kind_);
    }

    w_ = lane_slot_.size();
    xb_.assign(m_ * w_, 0.0);
    rhsb_.assign(m_ * w_, 0.0);
    cap_v_.assign(nl0_.capacitors().size() * w_, 0.0);
    cap_i_.assign(nl0_.capacitors().size() * w_, 0.0);
    ind_i_.assign(nl0_.inductors().size() * w_, 0.0);
    ind_v_.assign(nl0_.inductors().size() * w_, 0.0);
    probe_vals_.assign(probes_.size(), 0.0);
    lane_rhs_.assign(m_, 0.0);
  }

  void run() {
    if (w_ == 1) {
      run_lanes<1>();
    } else if (w_ > 1) {
      run_lanes<0>();
    }
  }

private:
  // The stepping loop.  W = 1 fixes the per-step lane loops' trip count and
  // stride at compile time (the loops vanish and the indexing folds); W = 0
  // reads both at run time.
  template <std::size_t W>
  void run_lanes() {
    std::size_t a = w_;

    // Shared DC factor + one blocked solve seeds every lane's operating
    // point (sources at t = 0, capacitors open, inductors shorted).
    refactor(0.0);
    assemble_rhs_block<W>(0.0, 0.0, a);
    solve<W>(a);
    seed_state(a);
    record_active<W>(0.0, a);

    const double dt = opt_.dt;
    double t = 0.0;
    std::int64_t step = 0;
    while (a > 0) {
      // Tail scan: finished lanes retire; lanes within one step of their
      // horizon take their shortened final step.
      while (a > 0) {
        const std::size_t j = a - 1;
        if (t >= lane_tstop_[j] - 1e-21) {
          finalize(j);
          --a;
          pop_lane();
          continue;
        }
        if (lane_tstop_[j] - t < dt) {
          partial_step(j, t);
          --a;
          pop_lane();
          continue;
        }
        break;
      }
      if (a == 0) break;

      // Per-lane step accounting, with failures confined to the lane.
      for (std::size_t j = 0; j < a;) {
        if (lane_budget_[j]) {
          try {
            lane_budget_[j]->charge_transient_steps(1, "transient");
          } catch (...) {
            out_[lane_slot_[j]].error = std::current_exception();
            remove_lane(j, a);
            --a;
            continue;
          }
        }
        ++j;
      }
      if (a == 0) break;

      if (factored_h_ != dt) refactor(dt);
      const double t_next = t + dt;
      assemble_rhs_block<W>(t_next, dt, a);
      solve<W>(a);

      ++step;
      if ((step & 63) == 0) {
        for (std::size_t j = 0; j < a;) {
          if (!lane_finite(j)) {
            fail_nonfinite(j);
            remove_lane(j, a);
            --a;
          } else {
            ++j;
          }
        }
        if (a == 0) break;
      }

      advance_state<W>(dt, a);
      t = t_next;
      record_active<W>(t, a);
    }
  }

  void refactor(double h) {
    // A factor that throws leaves no valid key: the next step refactors.
    factored_h_ = std::numeric_limits<double>::quiet_NaN();
    solver_->clear();
    detail::assemble_static_stamps(*solver_, nl0_, structure_, h, detail::gmin,
                                   opt_, /*cached_path=*/true);
    solver_->factor();
    factored_h_ = h;
  }

  // Solves the assembled RHS block into xb_.  A one-lane block is a plain
  // vector, so it takes the single-RHS sweep (bitwise equal to a block
  // lane, and without the blocked loops' per-row lane bookkeeping).
  template <std::size_t W>
  void solve(std::size_t a) {
    if constexpr (W == 1) {
      solver_->solve_into(rhsb_);
    } else {
      solver_->solve_block(rhsb_, a, w_);
    }
    std::swap(xb_, rhsb_);
  }

  // Blocked RHS assembly.  Device-outer, lane-inner: each lane's column
  // receives exactly the scalar assemble_rhs operation sequence (same
  // expression shapes, same order), so lane values are bitwise-identical to
  // a per-slot run.
  template <std::size_t W>
  void assemble_rhs_block(double t, double h, std::size_t a) {
    const std::size_t n = W == 0 ? a : W;  // active lanes
    const std::size_t w = W == 0 ? w_ : W;  // stride
    std::fill(rhsb_.begin(), rhsb_.end(), 0.0);
    const bool dc = h <= 0.0;
    const bool trap = opt_.integrator == Integrator::trapezoidal;

    if (!dc) {
      for (std::size_t k = 0; k < nl0_.capacitors().size(); ++k) {
        const double geq = (trap ? 2.0 : 1.0) * nl0_.capacitors()[k].capacitance / h;
        const auto [pa, pb] = pos_.caps[k];
        const double* sv = &cap_v_[k * w];
        const double* si = &cap_i_[k * w];
        for (std::size_t j = 0; j < n; ++j) {
          const double ieq = geq * sv[j] + (trap ? si[j] : 0.0);
          if (pb != npos) rhsb_[pb * w + j] -= ieq;
          if (pa != npos) rhsb_[pa * w + j] += ieq;
        }
      }
    }

    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      const double req = dc ? 0.0 : (trap ? 2.0 : 1.0) * nl0_.inductors()[k].inductance / h;
      const double* sv = &ind_v_[k * w];
      const double* si = &ind_i_[k * w];
      double* row = &rhsb_[pos_.inds[k] * w];
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = dc ? 0.0 : (trap ? -sv[j] - req * si[j] : -req * si[j]);
      }
    }

    if (!dc) {
      for (const ckt::MutualInductor& m : nl0_.mutual_inductors()) {
        const double req = (trap ? 2.0 : 1.0) * m.mutual / h;
        double* rowa = &rhsb_[pos_.inds[m.la] * w];
        double* rowb = &rhsb_[pos_.inds[m.lb] * w];
        const double* ia = &ind_i_[m.la * w];
        const double* ib = &ind_i_[m.lb * w];
        for (std::size_t j = 0; j < n; ++j) rowa[j] -= req * ib[j];
        for (std::size_t j = 0; j < n; ++j) rowb[j] -= req * ia[j];
      }
    }

    // The only lane-divergent input: each lane evaluates its own source
    // waveforms (the matrix never sees them).
    for (std::size_t k = 0; k < nl0_.vsources().size(); ++k) {
      double* row = &rhsb_[pos_.vsrcs[k] * w];
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = lane_net_[j]->vsources()[k].voltage.value_at(t);
      }
    }
  }

  // Single-lane RHS for the shortened final step, same scalar sequence.
  void assemble_rhs_lane(double t, double h, std::size_t j) {
    std::fill(lane_rhs_.begin(), lane_rhs_.end(), 0.0);
    const bool dc = h <= 0.0;
    const bool trap = opt_.integrator == Integrator::trapezoidal;

    if (!dc) {
      for (std::size_t k = 0; k < nl0_.capacitors().size(); ++k) {
        const double geq = (trap ? 2.0 : 1.0) * nl0_.capacitors()[k].capacitance / h;
        const double ieq =
            geq * cap_v_[k * w_ + j] + (trap ? cap_i_[k * w_ + j] : 0.0);
        const auto [pa, pb] = pos_.caps[k];
        if (pb != npos) lane_rhs_[pb] -= ieq;
        if (pa != npos) lane_rhs_[pa] += ieq;
      }
    }
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      const double req = dc ? 0.0 : (trap ? 2.0 : 1.0) * nl0_.inductors()[k].inductance / h;
      lane_rhs_[pos_.inds[k]] =
          dc ? 0.0
             : (trap ? -ind_v_[k * w_ + j] - req * ind_i_[k * w_ + j]
                     : -req * ind_i_[k * w_ + j]);
    }
    if (!dc) {
      for (const ckt::MutualInductor& m : nl0_.mutual_inductors()) {
        const double req = (trap ? 2.0 : 1.0) * m.mutual / h;
        lane_rhs_[pos_.inds[m.la]] -= req * ind_i_[m.lb * w_ + j];
        lane_rhs_[pos_.inds[m.lb]] -= req * ind_i_[m.la * w_ + j];
      }
    }
    for (std::size_t k = 0; k < nl0_.vsources().size(); ++k) {
      lane_rhs_[pos_.vsrcs[k]] = lane_net_[j]->vsources()[k].voltage.value_at(t);
    }
  }

  void seed_state(std::size_t a) {
    for (std::size_t k = 0; k < nl0_.capacitors().size(); ++k) {
      const auto [pa, pb] = pos_.caps[k];
      double* sv = &cap_v_[k * w_];
      for (std::size_t j = 0; j < a; ++j) {
        const double va = pa == npos ? 0.0 : xb_[pa * w_ + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w_ + j];
        sv[j] = va - vb;
      }
    }
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      double* si = &ind_i_[k * w_];
      const double* row = &xb_[pos_.inds[k] * w_];
      for (std::size_t j = 0; j < a; ++j) si[j] = row[j];
    }
  }

  template <std::size_t W>
  void advance_state(double h, std::size_t a) {
    const std::size_t n = W == 0 ? a : W;  // active lanes
    const std::size_t w = W == 0 ? w_ : W;  // stride
    const bool trap = opt_.integrator == Integrator::trapezoidal;
    for (std::size_t k = 0; k < nl0_.capacitors().size(); ++k) {
      const double geq = (trap ? 2.0 : 1.0) * nl0_.capacitors()[k].capacitance / h;
      const auto [pa, pb] = pos_.caps[k];
      double* sv = &cap_v_[k * w];
      double* si = &cap_i_[k * w];
      for (std::size_t j = 0; j < n; ++j) {
        const double va = pa == npos ? 0.0 : xb_[pa * w + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w + j];
        const double v_new = va - vb;
        const double i_new =
            trap ? geq * (v_new - sv[j]) - si[j] : geq * (v_new - sv[j]);
        sv[j] = v_new;
        si[j] = i_new;
      }
    }
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      const auto [pa, pb] = pos_.ind_nodes[k];
      double* si = &ind_i_[k * w];
      double* sv = &ind_v_[k * w];
      const double* row = &xb_[pos_.inds[k] * w];
      for (std::size_t j = 0; j < n; ++j) {
        si[j] = row[j];
        const double va = pa == npos ? 0.0 : xb_[pa * w + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w + j];
        sv[j] = va - vb;
      }
    }
  }

  template <std::size_t W>
  void record_active(double t, std::size_t a) {
    const std::size_t n = W == 0 ? a : W;  // active lanes
    const std::size_t w = W == 0 ? w_ : W;  // stride
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < probe_pos_.size(); ++p) {
        probe_vals_[p] = probe_pos_[p] == npos ? 0.0 : xb_[probe_pos_[p] * w + j];
      }
      results_[j].record_probe_values(t, probe_vals_);
    }
  }

  bool lane_finite(std::size_t j) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (!std::isfinite(xb_[i * w_ + j])) return false;
    }
    return true;
  }

  void fail_nonfinite(std::size_t j) {
    out_[lane_slot_[j]].error = std::make_exception_ptr(SingularMatrixError(
        "transient: non-finite solution (singular or NaN-stamped system)"));
  }

  // Lane finished with a full step on the previous iteration: the scalar
  // loop would exit and run its final finiteness guard over the solution.
  void finalize(std::size_t j) {
    if (!lane_finite(j)) {
      fail_nonfinite(j);
      return;
    }
    out_[lane_slot_[j]].result = std::move(results_[j]);
  }

  // Shortened final step (h = t_stop - t < dt), on the main solver
  // refactored in place at h; the next full step refactors it back at dt.
  // Lanes sharing a horizon retire on one refactor.  Identical stamps +
  // identical factorization algorithm give the factor a one-lane run uses,
  // so the last sample is bitwise equal.
  void partial_step(std::size_t j, double t) {
    try {
      if (lane_budget_[j]) lane_budget_[j]->charge_transient_steps(1, "transient");
      const double h = lane_tstop_[j] - t;
      const double t_next = t + h;
      if (factored_h_ != h) refactor(h);
      assemble_rhs_lane(t_next, h, j);
      solver_->solve_into(lane_rhs_);
      // The periodic and the final non-finite guard both judge this last
      // solution, so one check covers them.
      for (double v : lane_rhs_) {
        if (!std::isfinite(v)) {
          fail_nonfinite(j);
          return;
        }
      }
      for (std::size_t p = 0; p < probe_pos_.size(); ++p) {
        probe_vals_[p] =
            probe_pos_[p] == npos ? 0.0 : lane_rhs_[probe_pos_[p]];
      }
      results_[j].record_probe_values(t_next, probe_vals_);
      out_[lane_slot_[j]].result = std::move(results_[j]);
    } catch (...) {
      out_[lane_slot_[j]].error = std::current_exception();
    }
  }

  void pop_lane() {
    lane_slot_.pop_back();
    lane_net_.pop_back();
    lane_tstop_.pop_back();
    lane_budget_.pop_back();
    results_.pop_back();
  }

  // Stable removal of a faulted mid-array lane: shift the columns behind it
  // left so the descending-t_stop order (and every lane's column index)
  // stays consistent.  Rare, so the O(n * k) copy is irrelevant.
  void remove_lane(std::size_t j, std::size_t a) {
    auto shift = [&](std::vector<double>& arr, std::size_t rows) {
      for (std::size_t i = 0; i < rows; ++i) {
        double* row = &arr[i * w_];
        for (std::size_t c = j; c + 1 < a; ++c) row[c] = row[c + 1];
      }
    };
    shift(xb_, m_);
    shift(cap_v_, nl0_.capacitors().size());
    shift(cap_i_, nl0_.capacitors().size());
    shift(ind_i_, nl0_.inductors().size());
    shift(ind_v_, nl0_.inductors().size());
    lane_slot_.erase(lane_slot_.begin() + static_cast<std::ptrdiff_t>(j));
    lane_net_.erase(lane_net_.begin() + static_cast<std::ptrdiff_t>(j));
    lane_tstop_.erase(lane_tstop_.begin() + static_cast<std::ptrdiff_t>(j));
    lane_budget_.erase(lane_budget_.begin() + static_cast<std::ptrdiff_t>(j));
    results_.erase(results_.begin() + static_cast<std::ptrdiff_t>(j));
  }

  const TransientOptions& opt_;
  const Netlist& nl0_;
  MnaStructure structure_;
  std::size_t m_;
  SolverKind kind_;
  std::unique_ptr<detail::LinearSolver> solver_;
  detail::DevicePositions pos_;
  std::vector<NodeId> probes_;
  std::span<BlockOutcome> out_;
  std::vector<std::size_t> probe_pos_;

  // Active-lane bookkeeping, sorted by descending t_stop.
  std::vector<std::size_t> lane_slot_;
  std::vector<const Netlist*> lane_net_;
  std::vector<double> lane_tstop_;
  std::vector<util::ExecTracker*> lane_budget_;
  std::vector<TransientResult> results_;

  // SoA blocks with fixed stride w_ (lane j of row i at [i * w_ + j]).
  std::size_t w_ = 0;
  std::vector<double> xb_;
  std::vector<double> rhsb_;
  std::vector<double> cap_v_;
  std::vector<double> cap_i_;
  std::vector<double> ind_i_;
  std::vector<double> ind_v_;
  std::vector<double> probe_vals_;
  std::vector<double> lane_rhs_;

  double factored_h_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace

std::vector<BlockOutcome> simulate_block(std::span<const BlockScenario> scenarios,
                                         const TransientOptions& options,
                                         std::span<const NodeId> probes) {
  std::vector<BlockOutcome> out(scenarios.size());
  if (scenarios.empty()) return out;
  ensure(options.dt > 0.0, "simulate_block: bad time step");
  ensure(options.budget == nullptr,
         "simulate_block: shared budget not supported (use per-lane budgets)");
  ensure(options.assembly == AssemblyMode::cached,
         "simulate_block: cached assembly only");
  const Netlist& nl0 = *scenarios[0].netlist;
  ensure(nl0.mosfets().empty(), "simulate_block: linear netlists only");
  for (const BlockScenario& s : scenarios) {
    ensure(s.netlist != nullptr, "simulate_block: null netlist");
    ensure(scenario_group_equal(nl0, *s.netlist),
           "simulate_block: scenarios must be group-equal");
  }
  BlockEngine engine(scenarios, options, probes, out);
  engine.run();
  return out;
}

}  // namespace rlceff::sim
