// Tier-C accuracy references for the workloads whose timed responses carry
// none.  fleet_balanced is judged on a fixed 512-net panel (workloads.h)
// served under the workload's own configuration; fig7_replay on its own 196
// slots at the run's seed.  References are computed outside every timed region and cached
// in a text file under the benchmark's data directory, keyed by panel or
// (workload, seed); a file whose key or slot labels do not match is
// recomputed.
#ifndef PERFBENCH_REFS_H
#define PERFBENCH_REFS_H

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Reference {
  bool ok = false;  // the Tier-C reference itself completed
  double delay = 0.0;
  double slew = 0.0;
};

// Loads the references of every request from `path` when its key and labels
// match, or computes them with `engine` and writes the file.  `computed`
// reports which.
std::vector<Reference> load_or_compute_references(api::Engine& engine,
                                                  const std::vector<api::Request>& requests,
                                                  const api::BatchOptions& options,
                                                  AccuracyProbe probe,
                                                  const std::string& path,
                                                  const std::string& key, bool& computed);

struct Accuracy {
  std::size_t compared = 0;
  double delay_mean_pct = 0.0, delay_max_pct = 0.0;
  double slew_mean_pct = 0.0, slew_max_pct = 0.0;
};

// |served - reference| / reference over the sampled slots whose served
// slots whose served answer is exact (not degraded) and whose reference
// completed.
Accuracy accuracy_vs_references(AccuracyProbe probe,
                                const std::vector<api::Outcome<api::Response>>& served,
                                const std::vector<Reference>& references);

// fig7_reference: every successful slot carries its own simulated reference.
Accuracy inline_accuracy(const std::vector<api::Outcome<api::Response>>& served);

}  // namespace perfbench

#endif  // PERFBENCH_REFS_H
