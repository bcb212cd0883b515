// The traced run: per-layer spans recorded from the benchmark's own files.
//
// The library has no span hooks, so the traced run re-issues, slot by slot,
// the layer calls its untraced response's route implies (lint screen,
// Tier-A estimate, Ceff fixed point, driver transient, far-end replay,
// moments-only floor) on the same inputs, one span per call.  The replay
// re-derives each routing decision from the layer results exactly as
// api::Engine does, then checks that it lands on the route the untraced
// response reports (tier, tier_escalations, degraded, attempt trail, error
// code); a disagreement fails the run.
//
// Spans carry a name, start, end, busy time, parent span and a trace id of
// (workload, slot).  Where a layer call performs another layer's work
// internally (the Ceff flow expands the admittance moments; the Tier-A
// estimate walks the admittance ladder), that inner work is re-issued as a
// separate child span just before its parent, and the parent's self time is
// its busy time minus its children's.  Summed self times therefore count
// each layer's work once, and what the pass wall time holds beyond them is
// the api layer's own envelope (api.unattributed_us_per_net).
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

// Median of a sample (the mean of the middle two for an even count).
double median(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>"
  std::size_t slot = 0;   // trace id is (workload, slot)
  std::int32_t parent = -1;
  double start_s = 0.0;   // first start, from the recorder's origin
  double end_s = 0.0;     // last stop
  double busy_s = 0.0;    // summed start..stop intervals
};

// In-memory span store; written out once, when the run ends.
class SpanRecorder {
public:
  explicit SpanRecorder(std::string workload);

  // Creates a span without starting its clock (so a child can be recorded
  // before its parent runs); start/stop may alternate several times.
  std::int32_t reserve(const char* name, std::size_t slot, std::int32_t parent);
  void start(std::int32_t id);
  void stop(std::int32_t id);

  const std::string& workload() const { return workload_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  // Tab-separated dump, one span per line; false when unwritable.
  bool write(const std::string& path) const;

private:
  using clock = std::chrono::steady_clock;
  std::string workload_;
  clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<clock::time_point> running_;
};

// Set-up facts the charlib metrics report.
struct CharlibStats {
  double cold_cell_s = 0.0;  // median cold characterization time per cell
  std::size_t cells = 0;
};

struct TraceReport {
  std::vector<Metric> metrics;  // every per-layer metric, by name
  std::size_t route_mismatches = 0;
  std::string first_mismatch;
  std::string coverage;         // human-readable layer share of the pass
};

// Replays every slot of `untraced` (one run_batch pass of `workload`) layer
// by layer, three times, each after a timed run_batch pass, and derives the
// per-layer metrics from the median replay times against the median of
// those passes.  The first replay's spans go to `recorder`.
TraceReport traced_run(api::Engine& engine, const Workload& workload,
                       const std::vector<api::Outcome<api::Response>>& untraced,
                       const CharlibStats& charlib, SpanRecorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
