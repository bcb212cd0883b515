// The benchmark workloads: seeded request batches plus the batch options
// they run under.  Every workload runs closed-loop on one worker
// (one run_batch call per pass, BatchOptions::n_threads = 1), so the
// numbers are per-core by definition.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"

namespace perfbench {

using namespace rlceff;

enum class Kind { fleet_balanced, fig7_reference, fig7_replay };

// Parses a workload name; false when unknown.
bool parse_kind(const std::string& name, Kind& out);
const char* to_string(Kind kind);

// Where a workload's accuracy metrics are measured.
enum class AccuracyProbe {
  driver_output,  // served model_near vs Tier-C ref_near
  far_end,        // served model_far vs Tier-C ref_far
};

struct Workload {
  Kind kind = Kind::fleet_balanced;
  std::vector<api::Request> requests;
  api::BatchOptions options;
  std::vector<double> cell_sizes;  // characterized cold during set-up
  std::size_t warmup_slots = 64;   // untimed warm-up batch, part of set-up
  AccuracyProbe accuracy = AccuracyProbe::driver_output;
  // True when the timed responses already carry their own Tier-C reference
  // (fig7_reference); otherwise accuracy comes from the reference store.
  bool inline_reference = false;
  // fleet_balanced: the fixed accuracy panel, configured like the
  // workload's own requests and served in an untimed batch (see refs.h).
  std::vector<api::Request> panel;
};

// One worker for run_batch and for the characterization grid, and the
// workload's reference-deck fidelity.
api::BatchOptions batch_options(Kind kind);

// The cells a workload's requests use; set-up characterizes them cold.
std::vector<double> cell_sizes(Kind kind);

// Builds the workload's requests from the seed (same seed, same requests).
// fleet_balanced classifies its candidate nets with `engine`, whose library
// must already hold the workload's cells.
Workload make_workload(Kind kind, std::uint64_t seed, api::Engine& engine);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
