// Unit tests for the busy-window / latency analysis (Theorems 1 and 2,
// Lemma 3, Eq. 4) — anchored on the paper's Table I values, which we also
// verified by hand (DESIGN.md §2).

#include <gtest/gtest.h>

#include <random>

#include "core/busy_window.hpp"
#include "core/case_studies.hpp"
#include "tests/support/busy_window_reference.hpp"
#include "util/expect.hpp"

namespace wharf {
namespace {

using case_studies::date17_case_study;
using case_studies::kSigmaA;
using case_studies::kSigmaB;
using case_studies::kSigmaC;
using case_studies::kSigmaD;

class CaseStudy : public ::testing::Test {
 protected:
  System system = date17_case_study();
};

// ---------------------------------------------------------------------------
// Table I: WCL(sigma_c) = 331, WCL(sigma_d) = 175
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, TableI_SigmaC_WCL331) {
  const LatencyResult r = latency_analysis(system, kSigmaC);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 331);
  EXPECT_FALSE(r.schedulable);  // 331 > D = 200
}

TEST_F(CaseStudy, TableI_SigmaD_WCL175) {
  const LatencyResult r = latency_analysis(system, kSigmaD);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 175);
  EXPECT_TRUE(r.schedulable);  // 175 <= D = 200
}

TEST_F(CaseStudy, SigmaC_BusyTimes) {
  // Hand-computed: B_c(1) = 331 (51 + 20 + 30 + 2*115), B_c(2) = 382.
  const LatencyResult r = latency_analysis(system, kSigmaC);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.K, 2);
  ASSERT_EQ(r.busy_times.size(), 2u);
  EXPECT_EQ(r.busy_times[0], 331);
  EXPECT_EQ(r.busy_times[1], 382);
  EXPECT_EQ(r.worst_q, 1);
}

TEST_F(CaseStudy, SigmaD_BusyTimes) {
  // Hand-computed: B_d(1) = 115 + 20 + 30 + 10 (critical segment of c).
  const LatencyResult r = latency_analysis(system, kSigmaD);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.K, 1);
  ASSERT_EQ(r.busy_times.size(), 1u);
  EXPECT_EQ(r.busy_times[0], 175);
}

TEST_F(CaseStudy, Lemma3_MissCounts) {
  const LatencyResult c = latency_analysis(system, kSigmaC);
  ASSERT_TRUE(c.misses_per_window.has_value());
  EXPECT_EQ(*c.misses_per_window, 1);  // only q=1 misses (331>200; 382-200=182<=200)
  const LatencyResult d = latency_analysis(system, kSigmaD);
  ASSERT_TRUE(d.misses_per_window.has_value());
  EXPECT_EQ(*d.misses_per_window, 0);
}

// ---------------------------------------------------------------------------
// The paper's "second analysis": abstract overload chains away.
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, WithoutOverloadSigmaCSchedulable) {
  const LatencyResult r = latency_analysis(system, kSigmaC, {}, system.overload_indices());
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 166);  // 51 + 115
  EXPECT_TRUE(r.schedulable);
}

TEST_F(CaseStudy, WithoutOverloadSigmaDSchedulable) {
  const LatencyResult r = latency_analysis(system, kSigmaD, {}, system.overload_indices());
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 125);  // 115 + 10
  EXPECT_TRUE(r.schedulable);
}

// ---------------------------------------------------------------------------
// Ablation: naive all-arbitrary interference (no Def. 2-5 structure)
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, NaiveAnalysisPessimisticForSigmaD) {
  AnalysisOptions naive;
  naive.naive_arbitrary = true;
  const LatencyResult r = latency_analysis(system, kSigmaD, naive);
  ASSERT_TRUE(r.bounded);
  // With sigma_c treated as arbitrarily interfering: 115 + 2*51 + 20 + 30.
  EXPECT_EQ(r.busy_times[0], 267);
  EXPECT_EQ(r.wcl, 267);
  EXPECT_FALSE(r.schedulable);  // naive analysis wrongly rejects sigma_d
}

TEST_F(CaseStudy, NaiveAnalysisMatchesImprovedForSigmaC) {
  // Every chain already interferes arbitrarily with sigma_c, so the
  // improved analysis cannot gain anything there.
  AnalysisOptions naive;
  naive.naive_arbitrary = true;
  const LatencyResult r = latency_analysis(system, kSigmaC, naive);
  const LatencyResult improved = latency_analysis(system, kSigmaC);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, improved.wcl);
}

TEST_F(CaseStudy, NaiveNeverBeatsImproved) {
  AnalysisOptions naive;
  naive.naive_arbitrary = true;
  for (int target : {kSigmaC, kSigmaD}) {
    const LatencyResult n = latency_analysis(system, target, naive);
    const LatencyResult i = latency_analysis(system, target);
    ASSERT_TRUE(n.bounded);
    ASSERT_TRUE(i.bounded);
    EXPECT_GE(n.wcl, i.wcl) << "target " << target;
  }
}

// ---------------------------------------------------------------------------
// Eq. (4) typical bound and slack
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, TypicalBoundSigmaC) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  // L_c(1) = 51 + eta_d(0 + 200)*115 = 166;  L_c(2) = 102 + eta_d(400)*115 = 332.
  EXPECT_EQ(typical_bound(system, ctx, 1, {}), 166);
  EXPECT_EQ(typical_bound(system, ctx, 2, {}), 332);
}

TEST_F(CaseStudy, TypicalSlackSigmaC) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  // min(0+200-166, 200+200-332) = min(34, 68) = 34.
  EXPECT_EQ(typical_slack(system, ctx, 2, {}), 34);
}

TEST_F(CaseStudy, TypicalBoundSigmaD) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaD);
  // L_d(1) = 115 + critical segment of sigma_c (10) = 125.
  EXPECT_EQ(typical_bound(system, ctx, 1, {}), 125);
}

// ---------------------------------------------------------------------------
// Eq. (3): busy time with a fixed combination and the exact criterion
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, CombinationBusyTimeMatchesHandComputation) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  // cost 0: the typical system: B = 51 + 115 = 166.
  EXPECT_EQ(busy_time_with_combination(system, ctx, 1, 0, {}), std::optional<Time>(166));
  // cost 34: B = 51 + 34 + 115 = 200 (eta_d(200) = 1 under our convention).
  EXPECT_EQ(busy_time_with_combination(system, ctx, 1, 34, {}), std::optional<Time>(200));
  // cost 35: window crosses 200 -> second sigma_d instance: B = 316.
  EXPECT_EQ(busy_time_with_combination(system, ctx, 1, 35, {}), std::optional<Time>(316));
  // cost 50 (the paper's combination c3): B = 331 = Table I value.
  EXPECT_EQ(busy_time_with_combination(system, ctx, 1, 50, {}), std::optional<Time>(331));
}

TEST_F(CaseStudy, ExactSlackEqualsEq5SlackHere) {
  // On the case study the sufficient criterion is tight: both give 34.
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  EXPECT_EQ(exact_combination_slack(system, ctx, 2, 50, {}), 34);
  EXPECT_EQ(typical_slack(system, ctx, 2, {}), 34);
}

TEST_F(CaseStudy, ExactSlackSaturatesAtMaxCost) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaD);
  // sigma_d has huge margin: even the full overload cost 50 is fine.
  EXPECT_EQ(exact_combination_slack(system, ctx, 1, 50, {}), 50);
}

TEST(BusyWindowExact, NegativeSlackWhenTypicallyUnschedulable) {
  Chain::Spec tight;
  tight.name = "tight";
  tight.arrival = periodic(100);
  tight.deadline = 5;  // impossible even alone
  tight.tasks = {Task{"t", 1, 10}};
  Chain::Spec o;
  o.name = "o";
  o.arrival = sporadic(10'000);
  o.overload = true;
  o.tasks = {Task{"o1", 2, 3}};
  const System sys("tight", {Chain(std::move(tight)), Chain(std::move(o))});
  const InterferenceContext ctx = make_interference_context(sys, 0);
  EXPECT_EQ(exact_combination_slack(sys, ctx, 1, 3, {}), -1);
}

// ---------------------------------------------------------------------------
// Breakdown (itemized Eq. 1)
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, BreakdownSumsToFixedPoint) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  for (Count q = 1; q <= 2; ++q) {
    const std::optional<Time> b = busy_time(system, ctx, q, {});
    ASSERT_TRUE(b.has_value());
    const auto terms = busy_time_breakdown(system, ctx, q, *b);
    Time sum = 0;
    for (const BusyTimeTerm& t : terms) sum += t.amount;
    EXPECT_EQ(sum, *b) << "q=" << q;
  }
}

TEST_F(CaseStudy, BreakdownSigmaCAtQ1) {
  // 331 = 51 (demand) + 30 (sigma_b) + 20 (sigma_a) + 230 (sigma_d, 2 inst).
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  const auto terms = busy_time_breakdown(system, ctx, 1, 331);
  ASSERT_EQ(terms.size(), 4u);
  EXPECT_EQ(terms[0].amount, 51);
  EXPECT_NE(terms[0].label(system).find("demand"), std::string::npos);
  Time sigma_d_amount = 0;
  for (const auto& t : terms) {
    const std::string label = t.label(system);
    if (label.find("sigma_d") != std::string::npos) sigma_d_amount = t.amount;
    if (label.find("sigma_") == 0) {
      EXPECT_NE(label.find("arbitrary"), std::string::npos) << label;
    }
  }
  EXPECT_EQ(sigma_d_amount, 230);
}

TEST_F(CaseStudy, BreakdownSigmaDShowsCriticalSegment) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaD);
  const auto terms = busy_time_breakdown(system, ctx, 1, 175);
  bool found = false;
  for (const BusyTimeTerm& t : terms) {
    const std::string label = t.label(system);
    if (label.find("sigma_c") != std::string::npos) {
      EXPECT_NE(label.find("critical segment"), std::string::npos);
      EXPECT_EQ(t.amount, 10);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CaseStudy, BreakdownRespectsExclusion) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  const auto terms = busy_time_breakdown(system, ctx, 1, 166, {}, system.overload_indices());
  Time sum = 0;
  for (const BusyTimeTerm& t : terms) {
    const std::string label = t.label(system);
    EXPECT_EQ(label.find("sigma_b"), std::string::npos);
    EXPECT_EQ(label.find("sigma_a"), std::string::npos);
    sum += t.amount;
  }
  EXPECT_EQ(sum, 166);
}

// ---------------------------------------------------------------------------
// Divergence and guards
// ---------------------------------------------------------------------------

TEST(BusyWindow, OverloadedProcessorDiverges) {
  // Utilization 2.0: the fixed point must be reported unbounded, not loop.
  Chain::Spec s1;
  s1.name = "x";
  s1.arrival = periodic(10);
  s1.deadline = 10;
  s1.tasks = {Task{"x1", 2, 10}};
  Chain::Spec s2;
  s2.name = "y";
  s2.arrival = periodic(10);
  s2.deadline = 10;
  s2.tasks = {Task{"y1", 1, 10}};
  System sys("overloaded", {Chain(std::move(s1)), Chain(std::move(s2))});
  const LatencyResult r = latency_analysis(sys, 1);
  EXPECT_FALSE(r.bounded);
  EXPECT_FALSE(r.reason.empty());
}

TEST(BusyWindow, ExactlyFullUtilizationHandled) {
  // U = 1.0 with harmonic load: busy window never closes for the lower
  // priority chain; must terminate via a cap, not hang.
  Chain::Spec s1;
  s1.name = "x";
  s1.arrival = periodic(10);
  s1.deadline = 10;
  s1.tasks = {Task{"x1", 2, 5}};
  Chain::Spec s2;
  s2.name = "y";
  s2.arrival = periodic(10);
  s2.deadline = 10;
  s2.tasks = {Task{"y1", 1, 5}};
  System sys("full", {Chain(std::move(s1)), Chain(std::move(s2))});
  AnalysisOptions options;
  options.max_busy_windows = 1000;  // keep the test fast
  const LatencyResult r = latency_analysis(sys, 1, options);
  // At exactly U=1 the busy window closes at every q (B(q) = 10q =
  // delta(q+1)); the analysis is bounded with K at the cap or earlier.
  // The long-run load certificate needs a load strictly above 1, so the
  // K_b search decides here.
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 10);
  EXPECT_FALSE(r.busy_times.empty());
}

TEST(BusyWindow, SingleChainAloneIsItsOwnWcet) {
  Chain::Spec s;
  s.name = "solo";
  s.arrival = periodic(100);
  s.deadline = 100;
  s.tasks = {Task{"t1", 2, 7}, Task{"t2", 1, 5}};
  System sys("solo", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.K, 1);
  EXPECT_EQ(r.wcl, 12);
  EXPECT_TRUE(r.schedulable);
}

TEST(BusyWindow, BusyTimeRequiresPositiveQ) {
  const System sys = date17_case_study();
  const InterferenceContext ctx = make_interference_context(sys, kSigmaC);
  EXPECT_THROW((void)busy_time(sys, ctx, 0, {}), InvalidArgument);
}

TEST(BusyWindow, ChainWithoutDeadlineHasNoMissData) {
  Chain::Spec s;
  s.name = "nodl";
  s.arrival = periodic(100);
  s.tasks = {Task{"t1", 1, 7}};
  System sys("nodl", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_FALSE(r.misses_per_window.has_value());
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.wcl, 7);
}

// ---------------------------------------------------------------------------
// Asynchronous self-interference term (2nd line of Eq. 1)
// ---------------------------------------------------------------------------

TEST(BusyWindow, AsynchronousSelfInterference) {
  // One async chain, alone: tasks (prio 2, C=6), (prio 1, C=6), period 10.
  // q=1: B = 12 + max(0, eta(B)-1)*6 ... instances pile up: eta(12)=2 ->
  // B=18, eta(18)=2 -> 18. So B(1)=18, latency 18.
  Chain::Spec s;
  s.name = "async";
  s.kind = ChainKind::kAsynchronous;
  s.arrival = periodic(10);
  s.deadline = 100;
  s.tasks = {Task{"h", 2, 6}, Task{"t", 1, 6}};
  System sys("async", {Chain(std::move(s))});
  AnalysisOptions options;
  options.max_busy_windows = 100000;
  const LatencyResult r = latency_analysis(sys, 0, options);
  // Utilization 1.2 > 1: diverges.
  EXPECT_FALSE(r.bounded);
}

TEST(BusyWindow, AsynchronousSelfInterferenceBounded) {
  // Async chain with period 20 (U = 0.6): B(1) = 12, no pile-up
  // (eta(12) = 1), K = 1.
  Chain::Spec s;
  s.name = "async";
  s.kind = ChainKind::kAsynchronous;
  s.arrival = periodic(20);
  s.deadline = 100;
  s.tasks = {Task{"h", 2, 6}, Task{"t", 1, 6}};
  System sys("async", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.K, 1);
  EXPECT_EQ(r.wcl, 12);
}

TEST(BusyWindow, AsynchronousHeaderPileUp) {
  // Async chain where the header (high prio) can pile up while the tail
  // (lowest prio) is blocked: period 10, header C=3 (prio 3), tail C=4
  // (prio 1), U = 0.7. B(1) = 7 + max(0, eta(B)-1)*3: eta(7)=1 -> 7.
  // B(2) = 14 + max(0, eta(14)-2)*3 = 14; 14 > delta(3)=20? no -> K=2.
  Chain::Spec s;
  s.name = "async";
  s.kind = ChainKind::kAsynchronous;
  s.arrival = periodic(10);
  s.deadline = 100;
  s.tasks = {Task{"h", 3, 3}, Task{"t", 1, 4}};
  System sys("async", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.busy_times[0], 7);
  EXPECT_EQ(r.wcl, 7);
}

// ---------------------------------------------------------------------------
// Long-run load certificate (busy_window.hpp)
// ---------------------------------------------------------------------------

/// True when latency_analysis() answered through the load certificate
/// rather than through the K_b search.
bool certified(const LatencyResult& r) {
  return !r.bounded && r.busy_times.empty() && r.reason.rfind("long-run load ", 0) == 0;
}

Chain::Spec chain_spec(const std::string& name, ArrivalModelPtr arrival, std::vector<Task> tasks,
                       ChainKind kind = ChainKind::kSynchronous) {
  Chain::Spec s;
  s.name = name;
  s.kind = kind;
  s.arrival = std::move(arrival);
  s.deadline = 100'000;
  s.tasks = std::move(tasks);
  return s;
}

/// One random arrival curve of the five library families, with its tail
/// rate block / span and whether it was drawn below its rate line.
struct RandomCurve {
  ArrivalModelPtr model;
  double rate = 0;
  bool below = true;
};

RandomCurve random_curve(std::mt19937_64& rng) {
  const auto pick = [&](Time lo, Time hi) {
    return std::uniform_int_distribution<Time>(lo, hi)(rng);
  };
  const Time span = pick(20'000, 60'000);
  const double rate = 1.0 / static_cast<double>(span);
  switch (pick(0, 4)) {
    case 0:
      return {periodic(span), rate, true};
    case 1:
      return {periodic_jitter(span, pick(0, 3 * span), pick(1, span / 2)), rate, true};
    case 2:
      return {sporadic(span), rate, true};
    case 3: {
      // curve(d2, d3; span) is below its line iff d2 <= span, d3 <= 2 span.
      const bool below = pick(0, 3) != 0;
      const Time d2 = below ? pick(0, span) : pick(span + 1, 2 * span);
      const Time d3 = pick(d2, below ? 2 * span : 3 * span);
      return {delta_curve({d2, d3}, span), rate, below};
    }
    default: {
      // burst(P, n, d) is below its line iff d <= P / n.
      const Count n = pick(2, 4);
      const bool below = pick(0, 3) != 0;
      const Time inner = below ? pick(1, span / n) : pick(span / n + 1, span / (n - 1));
      return {sporadic_burst(span, n, inner), static_cast<double>(n) * rate, below};
    }
  }
}

/// A system whose last chain is the target and whose long-run load
/// (every chain's total WCET times its tail rate) lies in (1, 1.001].
struct NearUnitOverload {
  System system;
  bool all_below = true;     ///< every curve drawn below its rate line
  bool interleaved = false;  ///< random priorities (deferred rows possible)
};

NearUnitOverload near_unit_overload(std::mt19937_64& rng, int index) {
  const auto pick = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  const int chains = pick(3, 5);
  const bool interleaved = pick(0, 2) == 0;  // random priorities: deferred rows
  std::vector<RandomCurve> curves;
  std::vector<int> sizes;
  int task_count = 0;
  bool all_below = true;
  for (int c = 0; c < chains; ++c) {
    curves.push_back(random_curve(rng));
    all_below = all_below && curves.back().below;
    sizes.push_back(pick(1, 3));
    task_count += sizes.back();
  }
  // Rank r (1 = lowest) maps to priority prios[r - 1]: the identity, or
  // a random permutation when interleaved.
  std::vector<Priority> prios(static_cast<std::size_t>(task_count));
  for (int i = 0; i < task_count; ++i) prios[static_cast<std::size_t>(i)] = i + 1;
  if (interleaved) std::shuffle(prios.begin(), prios.end(), rng);
  // WCETs: split a load in [1.0002, 1.0009] by random weights, floor,
  // then bump the slowest-rate chain until the load clears 1.0001.
  const double target_load = std::uniform_real_distribution<double>(1.0002, 1.0009)(rng);
  std::vector<double> weights;
  double weight_sum = 0;
  for (int c = 0; c < chains; ++c) {
    weights.push_back(std::uniform_real_distribution<double>(0.2, 1.0)(rng));
    weight_sum += weights.back();
  }
  std::vector<std::vector<Time>> wcets(static_cast<std::size_t>(chains));
  long double load = 0;
  int slowest = 0;
  for (int c = 0; c < chains; ++c) {
    const RandomCurve& curve = curves[static_cast<std::size_t>(c)];
    const auto size = static_cast<std::size_t>(sizes[static_cast<std::size_t>(c)]);
    const auto total = static_cast<Time>(target_load * weights[static_cast<std::size_t>(c)] /
                                         weight_sum / curve.rate);
    for (std::size_t t = 0; t < size; ++t) {
      wcets[static_cast<std::size_t>(c)].push_back(
          std::max<Time>(1, total / static_cast<Time>(size)));
    }
    for (Time w : wcets[static_cast<std::size_t>(c)]) load += w * static_cast<long double>(curve.rate);
    if (curve.rate < curves[static_cast<std::size_t>(slowest)].rate) slowest = c;
  }
  while (load <= 1.0001L) {
    ++wcets[static_cast<std::size_t>(slowest)].front();
    load += curves[static_cast<std::size_t>(slowest)].rate;
  }
  EXPECT_LE(load, 1.001L);
  // Ranks: chain 0 (the target) lowest; within a chain the header ranks
  // above the tail, so an async target has a self header.
  std::vector<Chain> built;
  int rank_base = 0;
  for (int c = 0; c < chains; ++c) {
    std::vector<Task> tasks;
    const std::vector<Time>& costs = wcets[static_cast<std::size_t>(c)];
    for (std::size_t t = 0; t < costs.size(); ++t) {
      const auto rank = rank_base + static_cast<int>(costs.size() - t);
      tasks.push_back(Task{"t" + std::to_string(rank), prios[static_cast<std::size_t>(rank - 1)],
                           costs[t]});
    }
    rank_base += static_cast<int>(costs.size());
    const ChainKind kind = pick(0, 1) == 0 ? ChainKind::kSynchronous : ChainKind::kAsynchronous;
    built.emplace_back(chain_spec("c" + std::to_string(c), curves[static_cast<std::size_t>(c)].model,
                                  std::move(tasks), kind));
  }
  std::reverse(built.begin(), built.end());  // the target comes last
  return {System("near_unit" + std::to_string(index), std::move(built)), all_below, interleaved};
}

TEST(LoadCertificate, RandomizedDifferentialAgainstUncertifiedSearch) {
  std::mt19937_64 rng(19);
  AnalysisOptions options;
  options.max_busy_windows = 10'000;
  int certified_count = 0;
  for (int round = 0; round < 60; ++round) {
    const NearUnitOverload draw = near_unit_overload(rng, round);
    const System& sys = draw.system;
    const int target = sys.size() - 1;
    // Exclusions and the naive ablation change which rows enter Eq. (1),
    // and so the load the certificate sees.
    std::vector<int> exclude;
    if (round % 4 == 1) exclude.push_back(static_cast<int>(rng() % static_cast<unsigned>(target)));
    options.naive_arbitrary = round % 4 == 2;
    // Every row then carries its whole WCET at a rate the certificate
    // may use, so the full load enters the sum.
    const bool must_fire =
        draw.all_below && exclude.empty() && (!draw.interleaved || options.naive_arbitrary);
    const LatencyResult flat = latency_analysis(sys, target, options, exclude);
    const LatencyResult ref = reference::latency_analysis(sys, target, options, exclude);
    SCOPED_TRACE("round " + std::to_string(round) + " reason " + flat.reason);
    if (certified(flat)) {
      ++certified_count;
      EXPECT_FALSE(ref.bounded) << ref.reason;
      continue;
    }
    EXPECT_FALSE(must_fire) << "certificate missed a provable overload";
    EXPECT_EQ(flat.bounded, ref.bounded);
    EXPECT_EQ(flat.reason, ref.reason);
    EXPECT_EQ(flat.K, ref.K);
    EXPECT_EQ(flat.busy_times, ref.busy_times);
    EXPECT_EQ(flat.wcl, ref.wcl);
    EXPECT_EQ(flat.misses_per_window, ref.misses_per_window);
  }
  // Not vacuous: the certificate fired often, and the search still ran
  // for the systems it cannot certify.
  EXPECT_GE(certified_count, 15);
  EXPECT_LT(certified_count, 60);
}

TEST(LoadCertificate, CurveAboveItsRateLineIsNotCertified) {
  // curve(150; 100): long-run rate 1/100, but delta_minus(2) = 150 lies
  // above the line (q-1) * 100.  Loads 0.6 + 0.5: overloaded, but only
  // the search may say so.
  for (const bool target_above : {false, true}) {
    const ArrivalModelPtr above = delta_curve({150}, 100);
    System sys("above",
               {Chain(chain_spec("x", target_above ? periodic(100) : above, {Task{"x1", 2, 50}})),
                Chain(chain_spec("y", target_above ? above : periodic(100), {Task{"y1", 1, 60}}))});
    AnalysisOptions options;
    options.max_busy_windows = 2'000;
    const LatencyResult r = latency_analysis(sys, 1, options);
    EXPECT_FALSE(r.bounded);
    EXPECT_FALSE(certified(r)) << r.reason;
    EXPECT_FALSE(r.busy_times.empty());
  }
}

TEST(LoadCertificate, Int128OverflowFallsThroughToTheSearch) {
  // Six sporadic chains with pairwise coprime spans near 1e9: the exact
  // sum's denominator passes 2^127 at the fifth term, while the partial
  // load (~0.81) is still below 1.  Total load ~1.15.
  const Time primes[6] = {999'999'937, 999'999'929, 999'999'893,
                          999'999'883, 999'999'797, 999'999'761};
  std::vector<Chain> chains;
  for (int i = 0; i < 6; ++i) {
    const Time wcet = i == 5 ? primes[i] * 3 / 10 : primes[i] * 17 / 100;
    chains.emplace_back(chain_spec("s" + std::to_string(i), sporadic(primes[i]),
                                   {Task{"t" + std::to_string(i), 6 - i, wcet}}));
  }
  const System sys("coprime", std::move(chains));
  AnalysisOptions options;
  options.max_busy_windows = 200;
  const LatencyResult r = latency_analysis(sys, 5, options);
  EXPECT_FALSE(r.bounded);
  EXPECT_FALSE(certified(r)) << r.reason;

  // The same loads over small spans fit in 128 bits and are certified.
  std::vector<Chain> small;
  for (int i = 0; i < 6; ++i) {
    small.emplace_back(chain_spec("s" + std::to_string(i), sporadic(100),
                                  {Task{"t" + std::to_string(i), 6 - i, i == 5 ? 30 : 17}}));
  }
  const LatencyResult fits = latency_analysis(System("small", std::move(small)), 5, options);
  EXPECT_TRUE(certified(fits)) << fits.reason;
  EXPECT_EQ(fits.reason.rfind("long-run load 23/20 ", 0), 0u) << fits.reason;
}

TEST(LoadCertificate, AsyncSelfHeaderTargetIsCertified) {
  // The async chain of AsynchronousSelfInterference (U = 1.2, header
  // C = 6 ahead of its lowest-priority task): the self term is dropped
  // from the certificate's lower bound, which still exceeds 1.
  System alone("async", {Chain(chain_spec("async", periodic(10), {Task{"h", 2, 6}, Task{"t", 1, 6}},
                                          ChainKind::kAsynchronous))});
  AnalysisOptions options;
  options.max_busy_windows = 10'000;
  const LatencyResult r = latency_analysis(alone, 0, options);
  EXPECT_TRUE(certified(r)) << r.reason;
  EXPECT_EQ(r.reason.rfind("long-run load 6/5 ", 0), 0u) << r.reason;
  EXPECT_FALSE(reference::latency_analysis(alone, 0, options).bounded);

  // With an interferer, at a load just above 1 (0.55 + 0.4501), and just
  // below it (0.55 + 0.4499), where the answer must match the reference.
  for (const Time wcet : {Time{4'501}, Time{4'499}}) {
    System sys("async2", {Chain(chain_spec("hi", periodic(10'000), {Task{"hi1", 9, wcet}})),
                          Chain(chain_spec("b", periodic(20), {Task{"h", 3, 6}, Task{"t", 1, 5}},
                                           ChainKind::kAsynchronous))});
    const LatencyResult flat = latency_analysis(sys, 1, options);
    const LatencyResult ref = reference::latency_analysis(sys, 1, options);
    EXPECT_EQ(certified(flat), wcet == 4'501) << flat.reason;
    EXPECT_EQ(flat.bounded, ref.bounded);
    if (!certified(flat)) {
      EXPECT_EQ(flat.busy_times, ref.busy_times);
      EXPECT_EQ(flat.wcl, ref.wcl);
    }
  }
}

}  // namespace
}  // namespace wharf
