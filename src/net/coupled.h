// Coupled-net intermediate representation.
//
// A net::CoupledGroup generalizes the single-net IR to N nets plus the
// coupling elements between them: distributed coupling capacitance over an
// overlapping span of two sections, and mutual inductance between parallel
// sections.  Like net::Net it is the one description every layer consumes:
//   * ckt::append_coupled_group compiles it into one simulation deck of
//     aligned pi ladders with node-to-node coupling capacitors and
//     per-segment mutual inductors (K elements),
//   * core::simulate_reference simulates the full coupled system as the
//     reference,
//   * api::Engine accepts coupled requests with aggressor descriptors and
//     runs the paper's Ceff flow per victim on the Miller-decoupled
//     equivalent net (decoupled_net).
//
// Sections are addressed by their depth-first index within a net (the order
// ckt::append_net compiles them, root branch first).  Every coupling element
// is validated at construction time and errors name the offending pair of
// nets/sections.  A group holding a single net and no coupling elements is
// guaranteed to compile to the exact deck ckt::append_net produces for that
// net alone, so the single-net flow is the degenerate case, not a parallel
// code path.
#ifndef RLCEFF_NET_COUPLED_H
#define RLCEFF_NET_COUPLED_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "net/net.h"

namespace rlceff::net {

// Addresses one section of one net in the group: `net` indexes the group's
// nets in insertion order, `section` is the depth-first section index within
// that net (the compile order of ckt::append_net).
struct SectionRef {
  std::size_t net = 0;
  std::size_t section = 0;
};

// Total coupling capacitance distributed uniformly over the overlap of two
// (distributed) sections [F].  The deck compiler spreads it across the
// aligned ladder taps with the same 1/2-1-...-1-1/2 pi weighting the section
// ground capacitance uses.
struct CouplingCap {
  SectionRef a;
  SectionRef b;
  double capacitance = 0.0;
};

// Inductive coupling coefficient k = M / sqrt(La * Lb) between two parallel
// (distributed) sections, 0 < k < 1.  The deck compiler stamps one mutual
// inductor per aligned ladder segment.
struct MutualCoupling {
  SectionRef a;
  SectionRef b;
  double k = 0.0;
};

class CoupledGroup {
public:
  // An empty group; invalid for simulation/modeling until nets are added.
  CoupledGroup() = default;

  // The degenerate one-net group (compiles to the exact append_net deck).
  static CoupledGroup single(Net net, std::string label = "");

  // Adds a net and returns its index.  Labels must be unique; an empty label
  // becomes "net<k>".
  std::size_t add_net(Net net, std::string label = "");

  // Adds a coupling capacitor / mutual inductance between two sections of
  // two *different* nets.  Validates immediately; errors name the offending
  // pair (labels and section indices).  Both endpoints must be distributed
  // sections (coupling is a property of overlapping routed spans);
  // couple_inductance additionally requires both sections to carry
  // inductance.
  void couple_capacitance(SectionRef a, SectionRef b, double capacitance);
  void couple_inductance(SectionRef a, SectionRef b, double k);

  bool empty() const { return nets_.empty(); }
  std::size_t size() const { return nets_.size(); }

  const Net& net_at(std::size_t index) const;
  const std::string& label_at(std::size_t index) const;
  // Index of the net with this label; throws when absent.
  std::size_t index_of(const std::string& label) const;

  const std::vector<CouplingCap>& coupling_caps() const { return coupling_caps_; }
  const std::vector<MutualCoupling>& mutual_couplings() const { return mutuals_; }

  // Depth-first section count of one member net.
  std::size_t section_count(std::size_t index) const;

  // Total coupling capacitance attached to one member net [F].
  double coupling_capacitance_at(std::size_t index) const;

  // The victim net with every attached coupling capacitor switched to ground
  // scaled by the far net's Miller factor (0x: aggressor switching with the
  // victim, 1x: quiet, 2x: switching against it): the single-net equivalent
  // the paper's Ceff flow runs on.  `miller_by_net` holds one factor per
  // group net (the victim's own entry is ignored).  Mutual inductance is
  // dropped — the decoupled model keeps only the capacitive crosstalk, which
  // dominates the delay shift in the on-chip regime.  With no coupling
  // elements this returns the victim net unchanged.
  Net decoupled_net(std::size_t victim, std::span<const double> miller_by_net) const;
  // Quiet environment: every Miller factor 1 (grounded coupling caps).
  Net decoupled_net(std::size_t victim) const;

private:
  std::string describe(const SectionRef& r) const;
  void validate_pair(const char* what, const SectionRef& a, const SectionRef& b) const;

  std::vector<Net> nets_;
  std::vector<std::string> labels_;
  std::vector<CouplingCap> coupling_caps_;
  std::vector<MutualCoupling> mutuals_;
};

}  // namespace rlceff::net

#endif  // RLCEFF_NET_COUPLED_H
