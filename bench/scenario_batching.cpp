// Shared-factorization scenario batching: the Fig-7-style sweep grid (4
// wire/load topologies x 49 input slews = 196 scenarios) evaluated through
// api::Engine::run_batch as model-only far-end replays, batched vs per-slot.
//
// With batching on, the engine groups the 49 equal-topology replays of each
// wire case, factors the companion matrix once per group, and advances all
// lanes per step as one blocked multi-RHS solve; with batching off every
// slot runs its own one-lane replay.  Both paths must produce bitwise-
// identical far-end waveforms — the bench verifies that on every slot and
// fails loudly on the first mismatch, so the speedup number can never be
// bought with accuracy.
//
// Pinned to one worker for the same reason as engine_batch_nets_per_s: the
// speedup is an algorithmic claim (shared factorization + blocked
// substitution), not a core-count one.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "tech/wire.h"
#include "util/units.h"

using namespace rlceff;
using namespace rlceff::units;

namespace {

std::uint64_t dbits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct GridSpec {
  double length_mm;
  double width_um;
  double load;
};

std::vector<api::Request> fig7_replay_grid() {
  // Four distinct (wire, load) topologies; within each, 49 slews share the
  // exact companion matrix, so the engine forms 4 groups of 49 lanes.
  const GridSpec specs[] = {{3.0, 1.6, 20 * ff},
                            {4.0, 1.6, 20 * ff},
                            {5.0, 1.6, 20 * ff},
                            {5.0, 1.2, 50 * ff}};
  std::vector<api::Request> requests;
  requests.reserve(196);
  for (const GridSpec& spec : specs) {
    const tech::WireParasitics wire =
        *tech::find_paper_wire_case(spec.length_mm, spec.width_um);
    for (int k = 0; k < 49; ++k) {
      api::Request r;
      r.label = "fig7-" + std::to_string(spec.length_mm) + "mm-" +
                std::to_string(k);
      r.cell_size = 100.0;
      r.input_slew = (20.0 + 5.0 * k) * ps;
      r.net = tech::line_net(wire, spec.load);
      r.far_end_replay = true;
      r.keep_waveforms = true;  // full-waveform bitwise audit below
      // Same last-iterate semantics as fig7_scatter: a stalled Ceff2 fixed
      // point on a borderline grid point must not fail the throughput run.
      r.require_convergence = false;
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

// One side of the comparison: its batch options and last answers.
struct Side {
  api::BatchOptions opt;
  std::vector<api::Response> out;

  // Times one run_batch pass [s], keeping its answers.
  double run(api::Engine& engine, const std::vector<api::Request>& requests) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    auto results = engine.run_batch(requests, opt);
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    out = bench::unwrap(std::move(results));
    return s;
  }
};

// Median of an odd-sized sample.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Counts slots whose far-end answer differs in any bit between the two runs.
std::size_t bitwise_mismatches(const std::vector<api::Response>& batched,
                               const std::vector<api::Response>& per_slot) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < batched.size(); ++i) {
    const api::Response& a = batched[i];
    const api::Response& b = per_slot[i];
    bool same = a.has_model_far && b.has_model_far &&
                dbits(a.model_far.delay) == dbits(b.model_far.delay) &&
                dbits(a.model_far.slew) == dbits(b.model_far.slew) &&
                a.model_far_wave.size() == b.model_far_wave.size();
    if (same) {
      for (std::size_t k = 0; k < a.model_far_wave.size(); ++k) {
        if (dbits(a.model_far_wave.time(k)) != dbits(b.model_far_wave.time(k)) ||
            dbits(a.model_far_wave.value(k)) != dbits(b.model_far_wave.value(k))) {
          same = false;
          break;
        }
      }
    }
    if (!same) {
      std::fprintf(stderr,
                   "scenario_batching: slot %zu not bitwise identical "
                   "(batched delay %.17g vs per-slot %.17g)\n",
                   i, a.model_far.delay, b.model_far.delay);
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::list_metrics_requested(argc, argv)) {
    // Keep in sync with the update_bench_json call below (the key-set smoke
    // diffs this list against the checked-in BENCH_perf.json).
    bench::list_metrics("scenario_batching",
                        {"grid_scenarios", "grid_topologies", "per_slot_s",
                         "batched_s", "fig7_grid_speedup",
                         "bitwise_mismatches"});
    return 0;
  }

  bench::warm_library({100.0});
  api::Engine& engine = bench::engine();
  const std::vector<api::Request> requests = fig7_replay_grid();

  api::BatchOptions opt = bench::sweep_fidelity();
  opt.n_threads = 1;

  // Five repetitions after one warm-up per side, the two sides alternating
  // within each repetition.  The speedup is the median of the
  // per-repetition ratios: machine-speed drift and load bursts land on both
  // sides of a ratio alike, and the median drops the odd disturbed pair.
  Side batched, per_slot;
  batched.opt = opt;
  batched.opt.batch_scenarios = true;
  per_slot.opt = opt;
  per_slot.opt.batch_scenarios = false;
  (void)batched.run(engine, requests);
  (void)per_slot.run(engine, requests);
  std::vector<double> batched_times, per_slot_times, ratios;
  for (int rep = 0; rep < 5; ++rep) {
    batched_times.push_back(batched.run(engine, requests));
    per_slot_times.push_back(per_slot.run(engine, requests));
    ratios.push_back(per_slot_times.back() / batched_times.back());
  }
  const double batched_s = median(batched_times);
  const double per_slot_s = median(per_slot_times);

  const std::size_t mismatches = bitwise_mismatches(batched.out, per_slot.out);
  const double speedup = median(ratios);

  std::printf("== scenario batching (Fig-7 grid, %zu scenarios, 4 groups) ==\n",
              requests.size());
  std::printf("  per-slot replays:             %8.3f s\n", per_slot_s);
  std::printf("  shared-factorization batched: %8.3f s\n", batched_s);
  std::printf("  speedup: %.2fx   bitwise mismatches: %zu\n", speedup, mismatches);

  bench::update_bench_json(
      "BENCH_perf.json", "perf", "scenario_batching",
      {{"grid_scenarios", static_cast<double>(requests.size()), "count"},
       {"grid_topologies", 4.0, "count"},
       {"per_slot_s", per_slot_s, "s"},
       {"batched_s", batched_s, "s"},
       {"fig7_grid_speedup", speedup, "x"},
       {"bitwise_mismatches", static_cast<double>(mismatches), "count"}});
  std::printf("(merged into BENCH_perf.json under \"scenario_batching.\")\n");
  return mismatches == 0 ? 0 : 1;
}
