// Tests for the multi-fidelity tier subsystem: the closed-form Tier A
// estimate (shield factor, fast admittance walk, secant Ceff solve), the
// router's admission predicates and policy table, the calibrated envelope
// semantics, and the engine's tier stamping/escalation accounting.
//
// The accuracy contract (routed answers sit inside the calibrated envelope
// of the transient reference) lives in the property harness
// (PropertySuite.TierEnvelope); this file pins the mechanics.
#include "tier/analytical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "api/engine.h"
#include "core/driver_model.h"
#include "moments/admittance.h"
#include "net/coupled.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "tier/envelope.h"
#include "tier/router.h"
#include "util/units.h"

namespace rlceff::tier {
namespace {

using namespace rlceff::units;
using rlceff::testing::expect_rel_near;

// ---------------------------------------------------------------------------
// shield_factor

TEST(TierAnalytical, ShieldFactorLimitsAndMonotonicity) {
  EXPECT_EQ(shield_factor(0.0), 0.0);
  EXPECT_EQ(shield_factor(-1.0), 0.0);
  // g(x) = 1 - (1 - e^-x)/x rises from 0 toward 1.
  double prev = 0.0;
  for (double x : {1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0}) {
    const double g = shield_factor(x);
    EXPECT_GT(g, prev) << "x=" << x;
    EXPECT_LT(g, 1.0) << "x=" << x;
    prev = g;
  }
  EXPECT_GT(shield_factor(1e4), 0.999);
}

TEST(TierAnalytical, ShieldFactorSeriesBranchIsContinuous) {
  // The series branch below 1e-4 must meet the direct form without a jump:
  // the difference across the switch is the real slope (~1/2) times dx, not
  // a discontinuity.
  const double below = shield_factor(0.99e-4);
  const double above = shield_factor(1.01e-4);
  EXPECT_NEAR(above - below, 0.5 * 0.02e-4, 1e-8);
  expect_rel_near(0.5 * 0.99e-4, below, 1e-2);  // g(x) ~ x/2 for small x
}

// ---------------------------------------------------------------------------
// fast_net_admittance vs the Series cascade

TEST(TierAnalytical, FastAdmittanceTracksSeriesCascade) {
  // Paper Table 1 line (distributed RLC): the flattened 4-segment ladder walk
  // must reproduce the exact cascade's moments to discretization accuracy.
  const net::Net net =
      tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff);
  const util::Series exact = moments::net_admittance(net);
  const util::Series fast = moments::fast_net_admittance(net);
  ASSERT_GE(fast.size(), 6u);
  EXPECT_NEAR(fast[0], 0.0, 1e-18);          // no DC path
  expect_rel_near(exact[1], fast[1], 1e-9);  // m1 = Ctotal is exact
  expect_rel_near(exact[2], fast[2], 0.02);
  expect_rel_near(exact[3], fast[3], 0.05);
}

TEST(TierAnalytical, FastAdmittanceExactForLumpedNets) {
  // Lumped sections are not discretized: the walk is the cascade.
  net::Section s;
  s.kind = net::SectionKind::lumped;
  s.resistance = 40.0;
  s.capacitance = 20 * ff;
  const net::Net net = net::Net::multi_section({s, s}, 15 * ff);
  const util::Series exact = moments::net_admittance(net);
  const util::Series fast = moments::fast_net_admittance(net);
  for (std::size_t k = 1; k < 6; ++k) {
    expect_rel_near(exact[k], fast[k], 1e-9);
  }
}

// ---------------------------------------------------------------------------
// tier / policy spellings

TEST(TierNames, ParsePolicyRoundTrip) {
  for (TierPolicy p : {TierPolicy::reference, TierPolicy::balanced,
                       TierPolicy::fastest, TierPolicy::force_analytical,
                       TierPolicy::force_ceff, TierPolicy::force_reference}) {
    TierPolicy parsed;
    ASSERT_TRUE(parse_tier_policy(to_string(p), parsed)) << to_string(p);
    EXPECT_EQ(parsed, p);
  }
  TierPolicy parsed;
  EXPECT_TRUE(parse_tier_policy("a", parsed));
  EXPECT_EQ(parsed, TierPolicy::force_analytical);
  EXPECT_TRUE(parse_tier_policy("b", parsed));
  EXPECT_EQ(parsed, TierPolicy::force_ceff);
  EXPECT_TRUE(parse_tier_policy("c", parsed));
  EXPECT_EQ(parsed, TierPolicy::force_reference);
  EXPECT_FALSE(parse_tier_policy("warp-speed", parsed));
  EXPECT_FALSE(parse_tier_policy("", parsed));
}

TEST(TierNames, TierLetters) {
  EXPECT_EQ(tier_letter(Tier::analytical), 'a');
  EXPECT_EQ(tier_letter(Tier::ceff), 'b');
  EXPECT_EQ(tier_letter(Tier::reference), 'c');
}

// ---------------------------------------------------------------------------
// router policy table

TEST(TierRouter, RouteTable) {
  const Admission yes{};
  const Admission no{false, "deep_shielding"};
  // The unresolved default routes like force_ceff (the engine resolves a
  // reference = true request to force_reference before routing).
  EXPECT_EQ(route(TierPolicy::reference, yes), Tier::ceff);
  EXPECT_EQ(route(TierPolicy::balanced, yes), Tier::analytical);
  EXPECT_EQ(route(TierPolicy::balanced, no), Tier::ceff);
  EXPECT_EQ(route(TierPolicy::fastest, yes), Tier::analytical);
  EXPECT_EQ(route(TierPolicy::fastest, no), Tier::ceff);
  // Forced policies ignore the admission verdict.
  EXPECT_EQ(route(TierPolicy::force_analytical, no), Tier::analytical);
  EXPECT_EQ(route(TierPolicy::force_ceff, no), Tier::ceff);
  EXPECT_EQ(route(TierPolicy::force_reference, no), Tier::reference);
}

TEST(TierRouter, AdmissionRefusalReasons) {
  AnalyticalEstimate e;
  e.model.kind = core::ModelKind::one_ramp;
  e.model.ceff1.converged = true;
  e.shielding = 0.5;
  EXPECT_TRUE(admit_analytical(e).ok);

  AnalyticalEstimate stalled = e;
  stalled.model.ceff1.converged = false;
  EXPECT_STREQ(admit_analytical(stalled).reason, "fixed_point_stalled");

  // A stalled *second* ramp only matters on two-ramp estimates.
  AnalyticalEstimate two = e;
  two.model.kind = core::ModelKind::two_ramp;
  two.model.ceff2.converged = false;
  EXPECT_STREQ(admit_analytical(two).reason, "fixed_point_stalled");
  two.model.ceff2.converged = true;
  EXPECT_TRUE(admit_analytical(two).ok);

  AnalyticalEstimate deep = e;
  deep.shielding = 0.01;
  EXPECT_STREQ(admit_analytical(deep).reason, "deep_shielding");
}

TEST(TierRouter, GroupAdmissionScreensCouplingNotMutualInductance) {
  // Two parallel distributed RLC lines.
  auto line = [] {
    return net::Net::uniform_line(100.0, 5 * nh, 200 * ff, 20 * ff);
  };
  net::CoupledGroup light;
  light.add_net(line(), "victim");
  light.add_net(line(), "agg");
  light.couple_capacitance({0, 0}, {1, 0}, 20 * ff);
  light.couple_inductance({0, 0}, {1, 0}, 0.5);
  // Cc/(Cc+Cg) = 20/240 << 0.4: admitted, mutual inductance notwithstanding.
  EXPECT_TRUE(admit_group_analytical(light, 0).ok);

  net::CoupledGroup heavy;
  heavy.add_net(line(), "victim");
  heavy.add_net(line(), "agg");
  heavy.couple_capacitance({0, 0}, {1, 0}, 400 * ff);
  EXPECT_STREQ(admit_group_analytical(heavy, 0).reason, "coupling_heavy");
}

// ---------------------------------------------------------------------------
// envelope semantics

TEST(TierEnvelope, CheckSemantics) {
  const Envelope env{0.10, 5 * ps, 0.20, 10 * ps, 0.1};
  // Inside: 10 % + 5 ps of 100 ps allows up to 115 ps.
  EnvelopeCheck ok = check_envelope(env, 114 * ps, 100 * ps, 100 * ps, 100 * ps,
                                    -1.0, -1.0);
  EXPECT_TRUE(ok.delay_ok);
  EXPECT_TRUE(ok.slew_ok);
  EXPECT_TRUE(ok.noise_ok);  // no noise reference -> vacuously fine
  EXPECT_TRUE(ok.ok());

  EnvelopeCheck wide = check_envelope(env, 120 * ps, 100 * ps, 100 * ps,
                                      100 * ps, -1.0, -1.0);
  EXPECT_FALSE(wide.delay_ok);
  EXPECT_FALSE(wide.ok());

  // The noise figure is a bound: overstating is free, understating beyond
  // noise_abs is a violation.
  EnvelopeCheck over = check_envelope(env, 100 * ps, 100 * ps, 100 * ps,
                                      100 * ps, 0.9, 0.3);
  EXPECT_TRUE(over.noise_ok);
  EnvelopeCheck under = check_envelope(env, 100 * ps, 100 * ps, 100 * ps,
                                       100 * ps, 0.1, 0.3);
  EXPECT_FALSE(under.noise_ok);
}

TEST(TierEnvelope, ReferenceTierIsExact) {
  const Envelope ref = envelope(Tier::reference, false);
  EXPECT_EQ(ref.delay_rel, 0.0);
  EXPECT_EQ(ref.delay_abs, 0.0);
  // Cheaper tiers carry non-trivial widths.
  EXPECT_GT(envelope(Tier::analytical, false).delay_rel, 0.0);
  EXPECT_GT(envelope(Tier::ceff, true).delay_rel, 0.0);
}

// ---------------------------------------------------------------------------
// engine integration: stamping, escalation accounting, validation

class TierEngineFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    engine_ = new api::Engine(tech::Technology::cmos180());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static api::BatchOptions fast_options() {
    api::BatchOptions opt;
    opt.deck.segments = 12;
    opt.deck.dt = 1 * ps;
    opt.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
    opt.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 1.8 * pf, 3 * pf,
                      5 * pf};
    return opt;
  }
  // A short lumped route, RC-dominated: the Tier A common case.  The token
  // inductance keeps the legacy Tier B flow happy (net::Net::metrics requires
  // an L+C path) without making Eq 9 fire.
  static api::Request rc_request(std::string label) {
    api::Request r;
    r.label = std::move(label);
    r.cell_size = 100.0;
    r.input_slew = 100 * ps;
    net::Section s;
    s.kind = net::SectionKind::lumped;
    s.resistance = 40.0;
    s.inductance = 10 * ph;
    s.capacitance = 20 * ff;
    r.net = net::Net::multi_section({s, s}, 15 * ff);
    return r;
  }
  // Table 1's 100X inductive line: Eq 9 fires, Tier A must refuse.
  static api::Request inductive_request(std::string label) {
    api::Request r;
    r.label = std::move(label);
    r.cell_size = 100.0;
    r.input_slew = 100 * ps;
    r.net = tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff);
    return r;
  }
  static api::Engine* engine_;
};

api::Engine* TierEngineFixture::engine_ = nullptr;

TEST_F(TierEngineFixture, BalancedServesAnalyticalOnEasyNets) {
  api::Request r = rc_request("balanced-rc");
  r.tier = TierPolicy::balanced;
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_EQ(out.value().tier, Tier::analytical);
  EXPECT_EQ(out.value().fidelity, api::Fidelity::analytical);
  EXPECT_EQ(out.value().tier_escalations, 0u);
  EXPECT_GT(out.value().model_near.delay, 0.0);
}

TEST_F(TierEngineFixture, InductiveNetEscalatesToCeff) {
  for (TierPolicy p : {TierPolicy::balanced, TierPolicy::fastest}) {
    api::Request r = inductive_request(std::string("escalate-") + to_string(p));
    r.tier = p;
    const api::Outcome<api::Response> out = engine_->model(r, fast_options());
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value().tier, Tier::ceff) << to_string(p);
    EXPECT_EQ(out.value().tier_escalations, 1u) << to_string(p);
  }
}

TEST_F(TierEngineFixture, ForcedPoliciesPinTheirTier) {
  api::Request a = inductive_request("force-a");
  a.tier = TierPolicy::force_analytical;  // skips admission on purpose
  api::Request b = rc_request("force-b");
  b.tier = TierPolicy::force_ceff;
  api::Request c = rc_request("force-c");
  c.tier = TierPolicy::force_reference;
  const auto results =
      engine_->run_batch(std::vector<api::Request>{a, b, c}, fast_options());
  ASSERT_TRUE(results[0].ok()) << results[0].error().message;
  ASSERT_TRUE(results[1].ok()) << results[1].error().message;
  ASSERT_TRUE(results[2].ok()) << results[2].error().message;
  EXPECT_EQ(results[0].value().tier, Tier::analytical);
  EXPECT_EQ(results[1].value().tier, Tier::ceff);
  EXPECT_EQ(results[2].value().tier, Tier::reference);
  EXPECT_TRUE(results[2].value().has_reference);
  for (const auto& out : results) {
    EXPECT_EQ(out.value().tier_escalations, 0u);
  }
}

TEST_F(TierEngineFixture, AnalyticalCeffAgreesWithCeffTier) {
  // Tier A's secant fixed point and Tier B's damped iteration solve the same
  // equation over the same charge model; on a lumped RC net (no ladder
  // discretization) the converged Ceff and delay must agree closely.
  api::Request a = rc_request("agree-a");
  a.tier = TierPolicy::force_analytical;
  api::Request b = rc_request("agree-b");
  b.tier = TierPolicy::force_ceff;
  const api::Outcome<api::Response> ra = engine_->model(a, fast_options());
  const api::Outcome<api::Response> rb = engine_->model(b, fast_options());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  expect_rel_near(rb.value().model.ceff1.ceff, ra.value().model.ceff1.ceff, 0.02);
  expect_rel_near(rb.value().model_near.delay, ra.value().model_near.delay, 0.05);
}

TEST_F(TierEngineFixture, ReferenceFlagIsIncompatibleWithTierPolicies) {
  api::Request r = rc_request("tier-plus-reference");
  r.tier = TierPolicy::balanced;
  r.reference = true;
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, api::ErrorCode::invalid_request);
}

TEST_F(TierEngineFixture, CoupledAnalyticalReportsNoiseBound) {
  auto line = [] {
    return net::Net::uniform_line(100.0, 0.0, 200 * ff, 20 * ff);
  };
  api::Request r;
  r.label = "coupled-a";
  r.cell_size = 100.0;
  r.input_slew = 100 * ps;
  r.group.add_net(line(), "victim");
  r.group.add_net(line(), "agg");
  r.group.couple_capacitance({0, 0}, {1, 0}, 20 * ff);
  r.victim = 0;
  r.tier = TierPolicy::force_analytical;
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_TRUE(out.value().has_noise_bound);
  const double cc = 20 * ff;
  const double cg = r.group.net_at(0).total_capacitance();
  expect_rel_near(engine_->technology().vdd * cc / (cc + cg),
                  out.value().noise_bound, 1e-9);
}

}  // namespace
}  // namespace rlceff::tier
