#include "tech/testbench.h"

#include <algorithm>
#include <array>

#include "circuit/builders.h"
#include "util/error.h"

namespace rlceff::tech {

namespace {

// Probes for one compiled net: the driving point, every leaf, and every
// named probe (deduplicated — a named leaf is probed once).
void add_net_probes(std::vector<ckt::NodeId>& probes, ckt::NodeId out,
                    const ckt::NetDeckNodes& nodes) {
  auto add_probe = [&probes](ckt::NodeId n) {
    if (std::find(probes.begin(), probes.end(), n) == probes.end()) {
      probes.push_back(n);
    }
  };
  add_probe(out);
  for (ckt::NodeId leaf : nodes.leaves) add_probe(leaf);
  for (const auto& [name, node] : nodes.probes) add_probe(node);
}

NetSimResult collect_net_result(const sim::TransientResult& res, ckt::NodeId out,
                                const ckt::NetDeckNodes& nodes,
                                double input_time_50) {
  NetSimResult result;
  result.near_end = res.at(out);
  result.leaves.reserve(nodes.leaves.size());
  for (ckt::NodeId leaf : nodes.leaves) result.leaves.push_back(res.at(leaf));
  result.probes.reserve(nodes.probes.size());
  for (const auto& [name, node] : nodes.probes) {
    result.probes.emplace_back(name, res.at(node));
  }
  result.input_time_50 = input_time_50;
  result.solver = res.solver();
  return result;
}

}  // namespace

sim::TransientOptions sim_options(const DeckOptions& options) {
  sim::TransientOptions s = options.sim;
  s.t_stop = options.t_stop;
  s.dt = options.dt;
  return s;
}

SourceNetDeck compile_source_net(const wave::Pwl& source, const net::Net& net,
                                 const DeckOptions& options) {
  SourceNetDeck deck;
  deck.out = deck.netlist.node("out");
  deck.netlist.add_vsource(deck.out, ckt::ground, source);
  deck.nodes = ckt::append_net(deck.netlist, deck.out, net, options.segments);
  add_net_probes(deck.probes, deck.out, deck.nodes);
  return deck;
}

const wave::Waveform& NetSimResult::probe(std::string_view name) const {
  for (const auto& [probe_name, waveform] : probes) {
    if (probe_name == name) return waveform;
  }
  throw Error("NetSimResult: no probe named '" + std::string(name) + "'");
}

wave::Pwl falling_input(const Technology& tech, double t_start, double input_slew) {
  ensure(input_slew > 0.0, "falling_input: slew must be positive");
  return wave::Pwl({{t_start, tech.vdd}, {t_start + input_slew, 0.0}});
}

wave::Waveform simulate_driver_cap_load(const Technology& tech, const Inverter& cell,
                                        double input_slew, double c_load,
                                        const DeckOptions& options,
                                        double* input_time_50) {
  ckt::Netlist nl;
  const ckt::NodeId in = nl.node("in");
  const ckt::NodeId out = nl.node("out");
  nl.add_vsource(in, ckt::ground, falling_input(tech, options.t_start, input_slew));
  add_inverter(nl, tech, cell, in, out);
  nl.add_capacitor(out, ckt::ground, c_load);

  if (input_time_50 != nullptr) *input_time_50 = options.t_start + 0.5 * input_slew;
  const std::array<ckt::NodeId, 1> probes{out};
  return sim::simulate(nl, sim_options(options), probes).at(out);
}

NetSimResult simulate_driver_net(const Technology& tech, const Inverter& cell,
                                 double input_slew, const net::Net& net,
                                 const DeckOptions& options) {
  const std::array<NetDrive, 1> drive{NetDrive{cell, input_slew, DriveEdge::rise}};
  return std::move(
      simulate_coupled_group(tech, drive, net::CoupledGroup::single(net), options)
          .nets.front());
}

NetSimResult simulate_source_net(const wave::Pwl& source, const net::Net& net,
                                 const DeckOptions& options) {
  const SourceNetDeck deck = compile_source_net(source, net, options);
  const sim::TransientResult res =
      sim::simulate(deck.netlist, sim_options(options), deck.probes);
  NetSimResult result = collect_net_result(res, deck.out, deck.nodes, 0.0);
  // For an ideal source the "input" and near end coincide; report the source
  // 50 % crossing so sink delays have a reference.
  const double v_final = source.final_value();
  result.input_time_50 =
      result.near_end.first_crossing(0.5 * v_final, v_final > 0.0)
          .value_or(source.start_time());
  return result;
}

CoupledSimResult simulate_coupled_group(const Technology& tech,
                                        std::span<const NetDrive> drives,
                                        const net::CoupledGroup& group,
                                        const DeckOptions& options) {
  ensure(!group.empty(), "simulate_coupled_group: empty group");
  ensure(drives.size() == group.size(),
         "simulate_coupled_group: need one drive per net");

  ckt::Netlist nl;
  std::vector<ckt::NodeId> outs(group.size());
  std::vector<double> input_t50(group.size());
  for (std::size_t k = 0; k < group.size(); ++k) {
    const NetDrive& drive = drives[k];
    const ckt::NodeId in = nl.node("in:" + group.label_at(k));
    const ckt::NodeId out = nl.node("out:" + group.label_at(k));
    wave::Pwl input;
    switch (drive.edge) {
      case DriveEdge::rise:
        input = falling_input(tech, options.t_start, drive.input_slew);
        break;
      case DriveEdge::fall:
        ensure(drive.input_slew > 0.0,
               "simulate_coupled_group: slew must be positive");
        input = wave::Pwl({{options.t_start, 0.0},
                           {options.t_start + drive.input_slew, tech.vdd}});
        break;
      case DriveEdge::hold_low:
        input = wave::Pwl({{0.0, tech.vdd}});
        break;
    }
    nl.add_vsource(in, ckt::ground, std::move(input));
    add_inverter(nl, tech, drive.cell, in, out);
    outs[k] = out;
    input_t50[k] = drive.edge == DriveEdge::hold_low
                       ? options.t_start
                       : options.t_start + 0.5 * drive.input_slew;
  }

  const ckt::CoupledDeckNodes decks =
      ckt::append_coupled_group(nl, outs, group, options.segments);

  std::vector<ckt::NodeId> probes;
  for (std::size_t k = 0; k < group.size(); ++k) {
    add_net_probes(probes, outs[k], decks.nets[k]);
  }
  const sim::TransientResult res = sim::simulate(nl, sim_options(options), probes);

  CoupledSimResult result;
  result.nets.reserve(group.size());
  for (std::size_t k = 0; k < group.size(); ++k) {
    result.nets.push_back(
        collect_net_result(res, outs[k], decks.nets[k], input_t50[k]));
  }
  return result;
}

}  // namespace rlceff::tech
