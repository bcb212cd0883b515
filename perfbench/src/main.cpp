// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>]
//
// One workload per process (so peak RSS belongs to it).  Set-up builds a
// fresh api::Engine, characterizes the workload's cells cold on one thread,
// generates the inputs (fleet_balanced classifies its candidate nets with
// the engine) and runs a small untimed warm-up batch; it is
// repeated (see kMinSetups) and reported as the median (setup_s).  Then whole
// run_batch passes are timed back to back for --seconds (at least
// kMinPasses) and every timing is the median over passes.  --trace 0 prints
// the end-to-end metrics; --trace 1 replays one pass layer by layer (see
// trace.h) and prints the per-layer metrics instead.
//
// Correctness, checked in the same run: the pass's counts (ok, exact,
// failures by error code, tiers served, escalations, attempts, Ceff
// iterations) must repeat exactly across passes and across runs of the same
// build at the same seed; every answer must be finite and positive;
// fig7_replay's batched far-end results must equal the per-slot path bit for
// bit; no metric may be non-finite.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is nonzero
// when any check failed.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "refs.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

using clock_type = std::chrono::steady_clock;

// Set-up repeats at least kMinSetups times and until kMinSetupSeconds have
// passed (at most kMaxSetups), so a 0.3 s set-up is a median of nine.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 9;
constexpr double kMinSetupSeconds = 3.0;
constexpr int kMinPasses = 3;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return std::nan("");
}

// FNV-1a of this executable, so cached counts only bind runs of one build.
std::uint64_t build_fingerprint() {
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (exe.read(buf, sizeof buf) || exe.gcount() > 0) {
    for (std::streamsize i = 0; i < exe.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  return h;
}

struct PassSummary {
  std::string counts;  // exact count signature
  std::size_t ok = 0, exact = 0, invalid = 0;
  std::map<std::string, std::size_t> failures;  // by ErrorCode
  double p50_us = 0.0, p95_us = 0.0;
};

bool finite_positive(const core::EdgeMetrics& m) {
  return std::isfinite(m.delay) && std::isfinite(m.slew) && m.delay > 0.0 && m.slew > 0.0;
}

PassSummary summarize(const Workload& w,
                      const std::vector<api::Outcome<api::Response>>& results) {
  PassSummary s;
  std::size_t tiers[3] = {0, 0, 0};
  std::size_t escalations = 0, attempts = 0, far = 0;
  long iterations = 0;
  std::vector<double> slot_s;
  slot_s.reserve(results.size());
  for (const api::Outcome<api::Response>& o : results) {
    if (!o.ok()) {
      ++s.failures[api::to_string(o.error().code)];
      slot_s.push_back(o.error().elapsed_s);
      continue;
    }
    const api::Response& r = o.value();
    ++s.ok;
    if (!r.degraded) ++s.exact;
    ++tiers[static_cast<int>(r.tier)];
    escalations += r.tier_escalations;
    attempts += r.attempts.size();
    iterations += r.model.ceff1.iterations + r.model.ceff2.iterations + r.model.ceff3.iterations;
    slot_s.push_back(r.elapsed_s);
    bool valid = finite_positive(r.model_near);
    if (w.kind == Kind::fig7_replay) valid = valid && r.has_model_far && finite_positive(r.model_far);
    if (w.kind == Kind::fig7_reference) {
      valid = valid && r.has_reference && finite_positive(r.ref_near);
    }
    if (r.has_model_far) ++far;
    if (!valid) ++s.invalid;
  }
  std::ostringstream c;
  c << "ok=" << s.ok << " exact=" << s.exact << " a=" << tiers[0] << " b=" << tiers[1]
    << " c=" << tiers[2] << " esc=" << escalations << " att=" << attempts
    << " iter=" << iterations << " far=" << far << " invalid=" << s.invalid;
  for (const auto& [code, n] : s.failures) c << " " << code << "=" << n;
  s.counts = c.str();
  std::sort(slot_s.begin(), slot_s.end());
  s.p50_us = 1e6 * percentile(slot_s, 50.0);
  s.p95_us = 1e6 * percentile(slot_s, 95.0);
  return s;
}

// Counts must repeat across runs of one build at one seed: the first run
// records them, later runs compare.
bool counts_repeat(const std::string& path, const std::string& counts, std::string& why) {
  const std::string stamp = std::to_string(build_fingerprint());
  std::ifstream in(path);
  std::string old_stamp, old_counts;
  if (in && std::getline(in, old_stamp) && std::getline(in, old_counts) &&
      old_stamp == stamp) {
    if (old_counts == counts) return true;
    why = "counts differ from an earlier run of this build at this seed:\n  was " +
          old_counts + "\n  now " + counts;
    return false;
  }
  std::ofstream out(path);
  out << stamp << "\n" << counts << "\n";
  return true;
}

// fig7_replay: the batched far-end results must equal the per-slot path's
// bit for bit, waveforms included.
std::size_t batched_vs_per_slot_mismatches(api::Engine& engine, const Workload& w) {
  std::vector<api::Request> requests = w.requests;
  for (api::Request& r : requests) r.keep_waveforms = true;
  api::BatchOptions options = w.options;
  options.batch_scenarios = true;
  const auto batched = engine.run_batch(requests, options);
  options.batch_scenarios = false;
  const auto per_slot = engine.run_batch(requests, options);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    bool same = batched[i].ok() && per_slot[i].ok();
    if (same) {
      const api::Response& a = batched[i].value();
      const api::Response& b = per_slot[i].value();
      same = a.has_model_far && b.has_model_far &&
             bits(a.model_far.delay) == bits(b.model_far.delay) &&
             bits(a.model_far.slew) == bits(b.model_far.slew) &&
             a.model_far_wave.size() == b.model_far_wave.size();
      for (std::size_t k = 0; same && k < a.model_far_wave.size(); ++k) {
        same = bits(a.model_far_wave.time(k)) == bits(b.model_far_wave.time(k)) &&
               bits(a.model_far_wave.value(k)) == bits(b.model_far_wave.value(k));
      }
    }
    if (!same) ++mismatches;
  }
  return mismatches;
}

struct Args {
  Kind kind = Kind::fleet_balanced;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "perfbench/data";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string key = argv[k];
    const std::string value = argv[k + 1];
    if (key == "--workload") {
      if (!parse_kind(value, a.kind)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--data-dir") {
      a.data_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0.0;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A non-finite value fails the run; it prints as null to keep the JSON valid.
    char value[32] = "null";
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload fleet_balanced|fig7_reference|fig7_replay"
                 " --seed N --seconds S --trace 0|1 [--data-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  const std::string name = to_string(args.kind);
  bool correct = true;
  const auto fail = [&](const std::string& why) {
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED [%s]: %s\n", name.c_str(), why.c_str());
  };

  // ---- set-up, repeated; the last engine and inputs are kept -------------
  std::unique_ptr<api::Engine> engine;
  Workload workload;
  std::vector<double> setup_s, cell_s;
  const auto t_setup = clock_type::now();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && seconds_since(t_setup) < kMinSetupSeconds)) {
    engine.reset();
    const auto t0 = clock_type::now();
    engine = std::make_unique<api::Engine>();
    const api::BatchOptions options = batch_options(args.kind);
    for (double size : cell_sizes(args.kind)) {
      const auto tc = clock_type::now();
      (void)engine->library().ensure_driver(engine->technology(), size, options.grid);
      cell_s.push_back(seconds_since(tc));
    }
    workload = make_workload(args.kind, args.seed, *engine);
    const std::size_t warm = std::min(workload.warmup_slots, workload.requests.size());
    (void)engine->run_batch(
        std::span<const api::Request>(workload.requests.data(), warm), workload.options);
    setup_s.push_back(seconds_since(t0));
  }
  const std::size_t n = workload.requests.size();
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu slots, set-up %.3f s (median of %zu)\n",
               name.c_str(), static_cast<unsigned long long>(args.seed), n,
               median(setup_s), setup_s.size());

  // ---- timed passes ------------------------------------------------------
  std::vector<double> pass_s, p50, p95;
  std::vector<api::Outcome<api::Response>> first;
  PassSummary summary;
  std::size_t failed_passes = 0;
  const auto t_measure = clock_type::now();
  while (pass_s.size() < kMinPasses || seconds_since(t_measure) < args.seconds) {
    const auto t0 = clock_type::now();
    std::vector<api::Outcome<api::Response>> results =
        engine->run_batch(workload.requests, workload.options);
    pass_s.push_back(seconds_since(t0));
    const PassSummary s = summarize(workload, results);
    p50.push_back(s.p50_us);
    p95.push_back(s.p95_us);
    if (first.empty()) {
      summary = s;
      first = std::move(results);
    } else if (s.counts != summary.counts) {
      ++failed_passes;
      fail("pass " + std::to_string(pass_s.size()) + " counts differ:\n  was " +
           summary.counts + "\n  now " + s.counts);
    }
  }
  const double rss_mb = peak_rss_mb();
  const double pass_median_s = median(pass_s);
  std::fprintf(stderr, "perfbench: %zu passes, median %.4f s; counts: %s\n  pass s:",
               pass_s.size(), pass_median_s, summary.counts.c_str());
  for (double s : pass_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  if (summary.invalid != 0) {
    fail(std::to_string(summary.invalid) + " answers are non-finite or non-positive");
  }
  std::string why;
  if (!counts_repeat(args.data_dir + "/" + name + "-" + std::to_string(args.seed) + ".counts",
                     summary.counts, why)) {
    fail(why);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    if (args.kind == Kind::fig7_replay) {
      const std::size_t mismatches = batched_vs_per_slot_mismatches(*engine, workload);
      if (mismatches != 0) {
        fail(std::to_string(mismatches) + " batched far-end replays differ from the "
             "per-slot path");
      }
    }
    Accuracy acc;
    if (workload.inline_reference) {
      acc = inline_accuracy(first);
    } else {
      // fleet_balanced is judged on its fixed panel (one cache for every
      // seed), fig7_replay on its own slots at this seed.
      const bool panel = !workload.panel.empty();
      const std::vector<api::Request>& judged = panel ? workload.panel : workload.requests;
      const std::string key = panel ? "fleet_panel" : name + "-" + std::to_string(args.seed);
      bool computed = false;
      const auto t0 = clock_type::now();
      const std::vector<Reference> refs =
          load_or_compute_references(*engine, judged, workload.options, workload.accuracy,
                                     args.data_dir + "/" + key + ".refs", key, computed);
      std::size_t usable = 0;
      for (const Reference& r : refs) usable += r.ok ? 1 : 0;
      std::fprintf(stderr, "perfbench: %zu Tier-C references (%zu usable) %s in %.2f s\n",
                   refs.size(), usable, computed ? "computed" : "loaded", seconds_since(t0));
      acc = accuracy_vs_references(workload.accuracy,
                                   panel ? engine->run_batch(judged, workload.options) : first,
                                   refs);
    }
    std::fprintf(stderr, "perfbench: accuracy over %zu slots\n", acc.compared);
    const double nd = static_cast<double>(n);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"nets_per_s", nd / pass_median_s, "nets/s"},
        {"slot_p50_us", median(p50), "us"},
        {"slot_p95_us", median(p95), "us"},
        {"ok_fraction", static_cast<double>(summary.ok) / nd, "fraction"},
        {"exact_fraction", static_cast<double>(summary.exact) / nd, "fraction"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"delay_err_mean_pct", acc.delay_mean_pct, "%"},
        {"delay_err_max_pct", acc.delay_max_pct, "%"},
        {"slew_err_mean_pct", acc.slew_mean_pct, "%"},
        {"slew_err_max_pct", acc.slew_max_pct, "%"},
    };
  } else {
    SpanRecorder recorder(name);
    CharlibStats charlib;
    charlib.cold_cell_s = median(cell_s);
    charlib.cells = workload.cell_sizes.size();
    const TraceReport report =
        traced_run(*engine, workload, first, charlib, recorder);
    if (report.route_mismatches != 0) {
      fail(std::to_string(report.route_mismatches) +
           " slots replayed onto a different route than the engine took; first: " +
           report.first_mismatch);
    }
    std::fprintf(stderr, "perfbench: layer self time vs the pass:\n%s",
                 report.coverage.c_str());
    const std::string spans_path =
        args.data_dir + "/" + name + "-" + std::to_string(args.seed) + ".spans.tsv";
    if (!recorder.write(spans_path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", spans_path.c_str());
    }
    metrics = report.metrics;
  }
  for (const auto& [code, count] : summary.failures) {
    std::fprintf(stderr, "perfbench: failed slots per pass, %s: %zu\n", code.c_str(), count);
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) fail("metric " + m.name + " is not finite");
  }
  print_result(correct, pass_s.size(), failed_passes, metrics);
  return correct ? 0 : 1;
}
