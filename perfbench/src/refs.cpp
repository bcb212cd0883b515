#include "refs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

constexpr const char* kHeader = "perfbench-refs v2";

// The Tier-C twin of a served request: the same net and driver, simulated.
api::Request reference_request(const api::Request& served) {
  api::Request r = served;
  r.lint = api::LintOptions{};
  r.degrade = api::DegradePolicy{};
  r.budget = util::ExecBudget{};
  r.far_end = false;  // ref_near and ref_far come from the driver simulation
  if (r.tier != tier::TierPolicy::reference) {
    r.tier = tier::TierPolicy::force_reference;
  } else {
    r.far_end_replay = false;
    r.reference = true;
  }
  return r;
}

bool load(const std::string& path, const std::string& key,
          const std::vector<api::Request>& requests, std::vector<Reference>& out) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line) || line != std::string(kHeader) + " " + key) {
    return false;
  }
  out.clear();
  for (const api::Request& request : requests) {
    Reference r;
    std::string label;
    int ok = 0;
    if (!(in >> label >> ok >> r.delay >> r.slew) || label != request.label) return false;
    r.ok = ok != 0;
    out.push_back(r);
  }
  return true;
}

void save(const std::string& path, const std::string& key,
          const std::vector<api::Request>& requests, const std::vector<Reference>& refs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "%s %s\n", kHeader, key.c_str());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    std::fprintf(f, "%s %d %.17g %.17g\n", requests[i].label.c_str(), refs[i].ok ? 1 : 0,
                 refs[i].delay, refs[i].slew);
  }
  std::fclose(f);
}

struct ErrorFold {
  std::size_t n = 0;
  double delay_sum = 0.0, delay_max = 0.0, slew_sum = 0.0, slew_max = 0.0;
  void add(double delay, double ref_delay, double slew, double ref_slew) {
    const double de = 100.0 * std::abs(delay - ref_delay) / std::abs(ref_delay);
    const double se = 100.0 * std::abs(slew - ref_slew) / std::abs(ref_slew);
    ++n;
    delay_sum += de;
    slew_sum += se;
    delay_max = std::max(delay_max, de);
    slew_max = std::max(slew_max, se);
  }
  Accuracy result() const {
    Accuracy a;
    a.compared = n;
    if (n == 0) {
      a.delay_mean_pct = a.delay_max_pct = a.slew_mean_pct = a.slew_max_pct = std::nan("");
      return a;
    }
    a.delay_mean_pct = delay_sum / static_cast<double>(n);
    a.slew_mean_pct = slew_sum / static_cast<double>(n);
    a.delay_max_pct = delay_max;
    a.slew_max_pct = slew_max;
    return a;
  }
};

}  // namespace

std::vector<Reference> load_or_compute_references(api::Engine& engine,
                                                  const std::vector<api::Request>& requests,
                                                  const api::BatchOptions& options,
                                                  AccuracyProbe probe,
                                                  const std::string& path,
                                                  const std::string& key, bool& computed) {
  std::vector<Reference> refs;
  computed = false;
  // The deck fidelity is part of the key: a reference at another fidelity
  // is another reference.
  char fidelity[64];
  std::snprintf(fidelity, sizeof fidelity, " segments=%zu dt=%.17g", options.deck.segments,
                options.deck.dt);
  const std::string full_key = key + fidelity;
  if (load(path, full_key, requests, refs)) return refs;

  std::vector<api::Request> twins;
  twins.reserve(requests.size());
  for (const api::Request& r : requests) twins.push_back(reference_request(r));
  const std::vector<api::Outcome<api::Response>> results = engine.run_batch(twins, options);
  refs.assign(requests.size(), Reference{});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok() || !results[i].value().has_reference) continue;
    const api::Response& c = results[i].value();
    const core::EdgeMetrics& m = probe == AccuracyProbe::far_end ? c.ref_far : c.ref_near;
    refs[i].ok = std::isfinite(m.delay) && std::isfinite(m.slew) && m.delay > 0.0 &&
                 m.slew > 0.0;
    refs[i].delay = m.delay;
    refs[i].slew = m.slew;
  }
  save(path, full_key, requests, refs);
  computed = true;
  return refs;
}

Accuracy accuracy_vs_references(AccuracyProbe probe,
                                const std::vector<api::Outcome<api::Response>>& served,
                                const std::vector<Reference>& references) {
  ErrorFold fold;
  char worst[160] = "";
  for (std::size_t i = 0; i < references.size(); ++i) {
    const Reference& ref = references[i];
    if (!ref.ok || !served[i].ok()) continue;
    const api::Response& r = served[i].value();
    // A degraded answer is flagged as a lower-fidelity bound (exact_fraction
    // counts those); the error metrics judge the exact answers.
    if (r.degraded) continue;
    if (probe == AccuracyProbe::far_end && !r.has_model_far) continue;
    const core::EdgeMetrics& m = probe == AccuracyProbe::far_end ? r.model_far : r.model_near;
    const double before = fold.delay_max;
    fold.add(m.delay, ref.delay, m.slew, ref.slew);
    if (fold.delay_max > before) {
      std::snprintf(worst, sizeof worst, "%s (tier %s): delay %.4g ps vs %.4g ps",
                    r.label.c_str(), tier::to_string(r.tier), 1e12 * m.delay,
                    1e12 * ref.delay);
    }
  }
  if (fold.n) std::fprintf(stderr, "perfbench: worst delay error: %s\n", worst);
  return fold.result();
}

Accuracy inline_accuracy(const std::vector<api::Outcome<api::Response>>& served) {
  ErrorFold fold;
  for (const auto& o : served) {
    if (!o.ok() || !o.value().has_reference) continue;
    const api::Response& r = o.value();
    fold.add(r.model_near.delay, r.ref_near.delay, r.model_near.slew, r.ref_near.slew);
  }
  return fold.result();
}

}  // namespace perfbench
