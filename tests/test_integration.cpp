// End-to-end integration tests: reference slots of the engine (the paper's
// model next to the simulator) on representative paper cases, asserting the
// paper's headline error structure (two-ramp accurate; one-ramp badly wrong
// on inductive lines; both fine on RC-like lines).
//
// Fidelity is reduced (fewer ladder segments, coarser dt, small
// characterization grid) to keep the suite fast; the bench binaries rerun
// the same scenarios at full fidelity.
#include "api/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "test_helpers.h"
#include "util/units.h"

namespace rlceff::core {
namespace {

using namespace rlceff::units;

class IntegrationFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() { engine_ = new api::Engine(tech::Technology::cmos180()); }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static api::BatchOptions fast_options() {
    api::BatchOptions opt;
    opt.deck.segments = 60;
    opt.deck.dt = 0.5 * ps;
    opt.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
    opt.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 1.8 * pf, 3 * pf, 5 * pf};
    return opt;
  }

  // A reference slot with the one-ramp column on a paper wire case (length
  // mm, width um) with the 20 fF receiver.
  static api::Request paper_case(double driver_size, double input_slew,
                                 double length_mm, double width_um) {
    api::Request r;
    r.cell_size = driver_size;
    r.input_slew = input_slew;
    r.net = tech::line_net(*tech::find_paper_wire_case(length_mm, width_um), 20 * ff);
    r.reference = true;
    r.one_ramp_baseline = true;
    return r;
  }

  static api::Response run(const api::Request& request) {
    api::Outcome<api::Response> outcome = engine_->model(request, fast_options());
    EXPECT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().message);
    return outcome.ok() ? std::move(outcome).value() : api::Response{};
  }

  static const tech::Technology& technology() { return engine_->technology(); }

  static api::Engine* engine_;
};

api::Engine* IntegrationFixture::engine_ = nullptr;

TEST_F(IntegrationFixture, InductiveCaseTwoRampBeatsOneRamp) {
  // Table 1 row "5/1.6, 100X, slew 100".
  const api::Response r = run(paper_case(100.0, 100 * ps, 5.0, 1.6));

  ASSERT_EQ(ModelKind::two_ramp, r.model.kind);
  // Two-ramp delay within 10 % of "HSPICE" (paper: -4.7 % on this row).
  EXPECT_LT(std::abs(pct_error(r.model_near.delay, r.ref_near.delay)), 10.0);
  // One-ramp delay error is large and positive (paper: +33.9 %).
  EXPECT_GT(pct_error(r.one_near.delay, r.ref_near.delay), 15.0);
  // Two-ramp slew within 25 %; one-ramp slew hugely underestimated
  // (paper: -64 %) because a single ramp cannot capture the long tail.
  EXPECT_LT(std::abs(pct_error(r.model_near.slew, r.ref_near.slew)), 25.0);
  EXPECT_LT(pct_error(r.one_near.slew, r.ref_near.slew), -40.0);
}

TEST_F(IntegrationFixture, FarEndReplayTracksReference) {
  const api::Response r = run(paper_case(100.0, 100 * ps, 5.0, 1.6));
  // Fig 6 right: the two-ramp source reproduces the far-end delay closely.
  EXPECT_LT(std::abs(pct_error(r.model_far.delay, r.ref_far.delay)), 10.0);
}

TEST_F(IntegrationFixture, RcLikeCaseUsesOneRampAndIsAccurate) {
  // Fig 6 left: 4 mm line, weak 25X driver -> single ramp suffices.
  const api::Response r = run(paper_case(25.0, 100 * ps, 4.0, 1.6));

  EXPECT_EQ(ModelKind::one_ramp, r.model.kind);
  EXPECT_FALSE(r.model.criteria.significant());
  EXPECT_LT(std::abs(pct_error(r.model_near.delay, r.ref_near.delay)), 10.0);
  // RC-like: slew off only by the resistive-shielding tail, well under the
  // inductive failure mode.
  EXPECT_LT(std::abs(pct_error(r.model_near.slew, r.ref_near.slew)), 25.0);
}

TEST_F(IntegrationFixture, WideLineIncreasesOneRampError) {
  // Table 1's trend: at fixed length/driver, wider wire -> more inductive ->
  // bigger one-ramp delay error.
  const api::Response rn = run(paper_case(75.0, 50 * ps, 3.0, 0.8));
  const api::Response rw = run(paper_case(75.0, 50 * ps, 3.0, 1.6));
  const double err_narrow = std::abs(pct_error(rn.one_near.delay, rn.ref_near.delay));
  const double err_wide = std::abs(pct_error(rw.one_near.delay, rw.ref_near.delay));
  EXPECT_GT(err_wide, err_narrow);
}

TEST_F(IntegrationFixture, ModeledBreakpointMatchesSimulatedPlateau) {
  // The Eq-1 breakpoint should sit near the simulated waveform's voltage at
  // the moment the first reflection returns (2 tf after launch).
  const tech::WireParasitics wire = *tech::find_paper_wire_case(5.0, 1.6);
  api::Request c = paper_case(100.0, 100 * ps, 5.0, 1.6);
  c.keep_waveforms = true;
  const api::Response r = run(c);

  const double vdd = technology().vdd;
  const auto launch = r.ref_near_wave.first_crossing(0.1 * vdd, true);
  ASSERT_TRUE(launch.has_value());
  const double v_plateau =
      r.ref_near_wave.value_at(*launch + 2.0 * wire.time_of_flight());
  EXPECT_NEAR(r.model.f * vdd, v_plateau, 0.25 * vdd);
}

TEST_F(IntegrationFixture, KeepWaveformsPopulatesTraces) {
  api::Request c = paper_case(100.0, 100 * ps, 3.0, 1.2);
  c.keep_waveforms = true;
  const api::Response r = run(c);
  EXPECT_FALSE(r.ref_near_wave.empty());
  EXPECT_FALSE(r.ref_far_wave.empty());
  EXPECT_FALSE(r.model_far_wave.empty());
  EXPECT_GT(r.input_time_50, 0.0);
}

}  // namespace
}  // namespace rlceff::core
