// End-to-end integration tests: the full pipeline (parse -> analyze ->
// simulate -> report) on the paper's case study, plus cross-module
// consistency checks.

#include <gtest/gtest.h>

#include "core/case_studies.hpp"
#include "core/twca.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "sim/arrival_sequence.hpp"
#include "sim/simulator.hpp"

namespace wharf {
namespace {

using case_studies::date17_case_study;
using case_studies::kSigmaC;
using case_studies::kSigmaD;
using case_studies::OverloadModel;

TEST(Integration, ParsedSystemReproducesTableI) {
  // Serialize the case study, parse it back, and verify the analysis
  // produces identical results — the full fidelity loop.
  const std::string text = io::serialize_system(date17_case_study());
  const System sys = io::parse_system(text);
  const auto c = sys.chain_index("sigma_c");
  const auto d = sys.chain_index("sigma_d");
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(latency_analysis(sys, *c).wcl, 331);
  EXPECT_EQ(latency_analysis(sys, *d).wcl, 175);
}

TEST(Integration, ParsedSystemReproducesTableII) {
  const System sys =
      io::parse_system(io::serialize_system(date17_case_study(OverloadModel::kRareOverload)));
  TwcaAnalyzer analyzer{sys};
  const auto c = sys.chain_index("sigma_c");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(analyzer.dmm(*c, 3).dmm, 3);
  EXPECT_EQ(analyzer.dmm(*c, 76).dmm, 4);
  EXPECT_EQ(analyzer.dmm(*c, 250).dmm, 5);
}

TEST(Integration, SimulatedMissesRespectDmmOnCaseStudy) {
  // Simulate the case study under adversarial (greedy) arrivals and check
  // the windowed miss counts never exceed the analytic DMM.
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  TwcaAnalyzer analyzer{sys};

  const Time horizon = 400'000;
  std::vector<std::vector<Time>> arrivals;
  for (int c = 0; c < sys.size(); ++c) {
    arrivals.push_back(sim::greedy_arrivals(sys.chain(c).arrival(), 0, horizon));
  }
  const sim::SimResult r = sim::simulate(sys, arrivals);

  for (Count k : {1, 3, 10, 76, 250}) {
    const DmmResult bound = analyzer.dmm(kSigmaC, k);
    const Count observed = r.chains[kSigmaC].max_misses_in_window(k);
    EXPECT_LE(observed, bound.dmm) << "k=" << k;
  }
  // sigma_d never misses (WCL 175 <= 200).
  EXPECT_EQ(r.chains[kSigmaD].miss_count, 0);
}

TEST(Integration, SimulatedLatencyNeverExceedsWclUnderRandomArrivals) {
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  TwcaAnalyzer analyzer{sys};
  const Time wcl_c = analyzer.latency(kSigmaC).wcl;
  const Time wcl_d = analyzer.latency(kSigmaD).wcl;

  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Time horizon = 200'000;
    std::vector<std::vector<Time>> arrivals;
    for (int c = 0; c < sys.size(); ++c) {
      const Chain& chain = sys.chain(c);
      if (chain.is_overload()) {
        arrivals.push_back(sim::random_arrivals(chain.arrival(), 0, horizon, 3'000.0, seed * 7 + static_cast<std::uint64_t>(c)));
      } else {
        arrivals.push_back(sim::periodic_arrivals(200, static_cast<Time>(seed * 13 % 200), horizon));
      }
    }
    const sim::SimResult r = sim::simulate(sys, arrivals);
    EXPECT_LE(r.chains[kSigmaC].max_latency, wcl_c) << "seed " << seed;
    EXPECT_LE(r.chains[kSigmaD].max_latency, wcl_d) << "seed " << seed;
  }
}

TEST(Integration, OverloadActivationProvokesObservableMiss) {
  // Without overload activations, sigma_c never misses; with a
  // simultaneous burst of sigma_a and sigma_b at t=0 it does — the
  // empirical counterpart of the paper's "c3 is the only unschedulable
  // combination".
  const System sys = date17_case_study();
  const Time horizon = 10'000;

  std::vector<std::vector<Time>> quiet(static_cast<std::size_t>(sys.size()));
  quiet[kSigmaD] = sim::periodic_arrivals(200, 0, horizon);
  quiet[kSigmaC] = sim::periodic_arrivals(200, 0, horizon);
  const sim::SimResult no_overload = sim::simulate(sys, quiet);
  EXPECT_EQ(no_overload.chains[kSigmaC].miss_count, 0);
  EXPECT_EQ(no_overload.chains[kSigmaD].miss_count, 0);

  std::vector<std::vector<Time>> burst = quiet;
  burst[case_studies::kSigmaA] = {0};
  burst[case_studies::kSigmaB] = {0};
  const sim::SimResult with_overload = sim::simulate(sys, burst);
  EXPECT_GT(with_overload.chains[kSigmaC].miss_count, 0);
  EXPECT_EQ(with_overload.chains[kSigmaD].miss_count, 0);  // sigma_d holds (WCL 175)
}

TEST(Integration, SingleOverloadCombinationIsScheduable) {
  // c1 = {sigma_a alone} and c2 = {sigma_b alone} are schedulable per the
  // paper; verify empirically: activating only one overload chain causes
  // no sigma_c miss.
  const System sys = date17_case_study();
  const Time horizon = 10'000;
  for (int overload_chain : {case_studies::kSigmaA, case_studies::kSigmaB}) {
    std::vector<std::vector<Time>> arrivals(static_cast<std::size_t>(sys.size()));
    arrivals[kSigmaD] = sim::periodic_arrivals(200, 0, horizon);
    arrivals[kSigmaC] = sim::periodic_arrivals(200, 0, horizon);
    arrivals[static_cast<std::size_t>(overload_chain)] = {0, 700, 1400};
    const sim::SimResult r = sim::simulate(sys, arrivals);
    EXPECT_EQ(r.chains[kSigmaC].miss_count, 0) << "overload chain " << overload_chain;
  }
}

TEST(Integration, JsonReportPipeline) {
  TwcaAnalyzer analyzer{date17_case_study(OverloadModel::kRareOverload)};
  io::JsonWriter latency_json;
  io::write_json(latency_json, analyzer.latency(kSigmaC));
  io::JsonWriter dmm_json;
  io::write_json(dmm_json, analyzer.dmm(kSigmaC, 76));
  EXPECT_NE(latency_json.str().find("\"wcl\":331"), std::string::npos);
  EXPECT_NE(dmm_json.str().find("\"dmm\":4"), std::string::npos);
}

TEST(Integration, LiteralAndRareModelsAgreeOnShortHorizons) {
  TwcaAnalyzer lit{date17_case_study(OverloadModel::kLiteralSporadic)};
  TwcaAnalyzer rare{date17_case_study(OverloadModel::kRareOverload)};
  for (Count k = 1; k <= 4; ++k) {
    EXPECT_EQ(lit.dmm(kSigmaC, k).dmm, rare.dmm(kSigmaC, k).dmm) << "k=" << k;
  }
  // They diverge at longer horizons (the rare curve caps eta_plus).
  EXPECT_GT(lit.dmm(kSigmaC, 76).dmm, rare.dmm(kSigmaC, 76).dmm);
}

}  // namespace
}  // namespace wharf
