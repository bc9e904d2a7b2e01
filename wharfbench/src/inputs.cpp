// Seeded input generation.  Everything the library sees is text: system
// descriptions (io/system_format.hpp syntax) and NDJSON wire lines.

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "gen/random_systems.hpp"
#include "io/system_format.hpp"

namespace wharfbench {

using namespace wharf;

namespace {

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

}  // namespace

std::string analyze_stream_system(std::mt19937_64& rng, long long index) {
  gen::RandomSystemSpec spec;
  spec.min_chains = 4;
  spec.max_chains = 16;
  spec.min_tasks = 1;
  spec.max_tasks = 5;
  spec.utilization = uniform(rng, 0.6, 0.9);
  spec.async_fraction = 0.25;
  spec.overload_chains = 2;
  return io::serialize_system(gen::random_system(spec, rng, "stream" + std::to_string(index)));
}

std::string saturation_system(std::mt19937_64& rng, long long index, bool overloaded) {
  // The bench/dist_sweep.cpp fixture: three synchronous two-task chains
  // plus a rarely activated overload chain.  Only the WCETs vary: the
  // long-run load (overload chain included) lands in [0.95, 0.9999], or
  // for the overloaded variants strictly above 1 while the regular chains
  // alone stay below 1 — the fixture's own regime, in which exactly the
  // with-overload busy window of the lowest-priority chain never closes.
  const Time periods[3] = {100'000, 110'000, 120'000};
  const char* names[3] = {"a", "b", "c"};
  constexpr Time kOverloadGap = 2'500'000;
  constexpr Time kOverloadWcet = 3'000;
  const double overload_load = static_cast<double>(kOverloadWcet) / kOverloadGap;
  const double target = overloaded ? uniform(rng, 1.0003, 1.0009) : uniform(rng, 0.95, 0.9999);
  double weights[3];
  double weight_sum = 0;
  for (double& w : weights) {
    w = uniform(rng, 0.85, 1.15);
    weight_sum += w;
  }
  Time wcets[3][2];
  double load = overload_load;
  for (int i = 0; i < 3; ++i) {
    const double chain_load = (target - overload_load) * weights[i] / weight_sum;
    const double split = uniform(rng, 0.35, 0.65);
    const auto total = static_cast<Time>(std::floor(chain_load * static_cast<double>(periods[i])));
    wcets[i][0] = std::max<Time>(1, static_cast<Time>(std::floor(static_cast<double>(total) * split)));
    wcets[i][1] = std::max<Time>(1, total - wcets[i][0]);
    load += static_cast<double>(wcets[i][0] + wcets[i][1]) / static_cast<double>(periods[i]);
  }
  while (overloaded && load <= 1.0) {  // rounding must not undo the overload
    wcets[2][1] += 10;
    load += 10.0 / static_cast<double>(periods[2]);
  }
  std::ostringstream os;
  os << "system saturation" << index << "\n";
  for (int i = 0; i < 3; ++i) {
    os << "chain " << names[i] << " kind=sync activation=periodic(" << periods[i]
       << ") deadline=" << periods[i] << "\n";
    for (int t = 0; t < 2; ++t) {
      os << "  task " << names[i] << t + 1 << " prio=" << 1 + 2 * i + t << " wcet=" << wcets[i][t]
         << "\n";
    }
  }
  os << "chain ov kind=sync activation=sporadic(" << kOverloadGap << ") overload\n"
     << "  task o1 prio=7 wcet=" << kOverloadWcet << "\n";
  return os.str();
}

std::string search_system(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  gen::RandomSystemSpec spec;
  spec.min_chains = 12;
  spec.max_chains = 12;
  spec.min_tasks = 1;
  spec.max_tasks = 2;
  spec.utilization = 0.9;
  spec.overload_chains = 2;
  return io::serialize_system(gen::random_system(spec, rng, "search"));
}

std::string serve_system(std::uint64_t seed, const std::string& name) {
  std::mt19937_64 rng(seed);
  gen::RandomSystemSpec spec;
  spec.min_chains = 8;
  spec.max_chains = 8;
  spec.min_tasks = 1;
  spec.max_tasks = 5;
  spec.utilization = 0.8;
  spec.async_fraction = 0.25;
  spec.overload_chains = 1;
  return io::serialize_system(gen::random_system(spec, rng, name));
}

std::string open_session_line(const std::string& session, const std::string& system_text,
                              long long id) {
  return "{\"id\":" + std::to_string(id) + ",\"type\":\"open_session\",\"session\":" +
         quote(session) + ",\"system\":" + quote(system_text) + "}";
}

// ---------------------------------------------------------------------
// serve_sessions conversations
// ---------------------------------------------------------------------

ServeScript::ServeScript(const System& base, std::uint64_t seed) : base_(base), rng_(seed) {
  for (const Chain& chain : base_.chains()) {
    for (const Task& task : chain.tasks()) {
      task_names_.push_back(chain.name() + "." + task.name);
      priorities_.push_back(task.priority);
      base_wcets_.push_back(chain.is_overload() ? 0 : task.wcet);  // 0: never resized
    }
  }
  wcet_changed_.assign(task_names_.size(), false);
}

std::string ServeScript::query_body() const {
  std::string queries;
  bool weakly_hard = false;
  std::string wh;
  for (const int c : base_.regular_indices()) {
    const Chain& chain = base_.chain(c);
    if (!queries.empty()) queries += ",";
    queries += "{\"kind\":\"latency\",\"chain\":" + quote(chain.name()) + "}";
    if (chain.deadline().has_value()) {
      queries += ",{\"kind\":\"dmm\",\"chain\":" + quote(chain.name()) + ",\"ks\":[10,100]}";
      if (!weakly_hard) {
        wh = ",{\"kind\":\"weakly_hard\",\"chain\":" + quote(chain.name()) + ",\"m\":1,\"k\":10}";
        weakly_hard = true;
      }
    }
  }
  return "\"queries\":[" + queries + wh + "]";
}

ServeScript::Round ServeScript::next(long long id) {
  Round round;
  const long long r = round_++;
  round.structural = r % 8 == 7;
  round.stream = r % 4 == 3;
  const auto n = static_cast<int>(task_names_.size());
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::string deltas;
  if (round.structural) {
    int i = pick(rng_);
    while (base_wcets_[static_cast<std::size_t>(i)] == 0) i = pick(rng_);
    const auto u = static_cast<std::size_t>(i);
    Time wcet = base_wcets_[u];
    if (!wcet_changed_[u]) {
      const double factor = std::bernoulli_distribution(0.5)(rng_) ? 1.1 : 0.9;
      wcet = std::max<Time>(1, static_cast<Time>(std::llround(static_cast<double>(wcet) * factor)));
    }
    wcet_changed_[u] = !wcet_changed_[u];
    deltas = "{\"kind\":\"set_wcet\",\"task\":" + quote(task_names_[u]) +
             ",\"wcet\":" + std::to_string(wcet) + "}";
  } else {
    const int i = pick(rng_);
    int j = pick(rng_);
    while (j == i) j = pick(rng_);
    const auto a = static_cast<std::size_t>(i);
    const auto b = static_cast<std::size_t>(j);
    std::swap(priorities_[a], priorities_[b]);
    deltas = "{\"kind\":\"set_priority\",\"task\":" + quote(task_names_[a]) +
             ",\"priority\":" + std::to_string(priorities_[a]) +
             "},{\"kind\":\"set_priority\",\"task\":" + quote(task_names_[b]) +
             ",\"priority\":" + std::to_string(priorities_[b]) + "}";
  }
  round.delta_line = "{\"id\":" + std::to_string(id) +
                     ",\"type\":\"apply_delta\",\"session\":\"s\",\"deltas\":[" + deltas + "]}";
  round.query_line = "{\"id\":" + std::to_string(id + 1) + ",\"type\":\"query\",\"session\":\"s\"," +
                     (round.stream ? "\"stream\":true," : "") + query_body() + "}";
  return round;
}

std::vector<std::vector<Delta>> probe_deltas(const System& system, std::uint64_t seed,
                                             int count) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> names;
  std::vector<Priority> priorities;
  std::vector<Time> wcets;
  std::vector<bool> resizable;
  for (const Chain& chain : system.chains()) {
    for (const Task& task : chain.tasks()) {
      names.push_back(chain.name() + "." + task.name);
      priorities.push_back(task.priority);
      wcets.push_back(task.wcet);
      resizable.push_back(!chain.is_overload());
    }
  }
  std::vector<Time> current = wcets;
  std::vector<std::vector<Delta>> out;
  const auto n = static_cast<int>(names.size());
  if (n < 2) return out;
  std::uniform_int_distribution<int> pick(0, n - 1);
  for (int r = 0; r < count; ++r) {
    if (r % 8 == 7) {
      int i = pick(rng);
      while (!resizable[static_cast<std::size_t>(i)]) i = pick(rng);
      const auto u = static_cast<std::size_t>(i);
      current[u] = current[u] == wcets[u]
                       ? std::max<Time>(1, static_cast<Time>(std::llround(
                                               static_cast<double>(wcets[u]) * 1.1)))
                       : wcets[u];
      out.push_back({SetWcetDelta{names[u], current[u]}});
    } else {
      const int i = pick(rng);
      int j = pick(rng);
      while (j == i) j = pick(rng);
      const auto a = static_cast<std::size_t>(i);
      const auto b = static_cast<std::size_t>(j);
      std::swap(priorities[a], priorities[b]);
      out.push_back({SetPriorityDelta{names[a], priorities[a]},
                     SetPriorityDelta{names[b], priorities[b]}});
    }
  }
  return out;
}

}  // namespace wharfbench
