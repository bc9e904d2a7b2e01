// Stress tests for the concurrency layer: unlike the deterministic
// single-flight tests, these *force* sustained overlap — latch-slowed
// computes that hold a flight open until every sibling has joined,
// eviction churn against a tiny byte budget with a concurrent stats()
// reader, and a pack of loopback serve clients replaying the same
// conversation at once.  Every stats() snapshot must be coherent (the
// store-wide totals equal the per-stage sums — a torn counter pair
// breaks the equality), and serve answers must stay bit-identical to
// serialized execution.  Run under both the ASan/UBSan and the TSan CI
// jobs (WHARF_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/serve.hpp"
#include "core/case_studies.hpp"
#include "engine/artifact_store.hpp"
#include "engine/engine.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "tests/support/serve_client.hpp"

namespace wharf {
namespace {

constexpr std::size_t kDmmStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kDmmCurve));

std::pair<std::shared_ptr<const void>, std::size_t> payload(int value, std::size_t weight) {
  return {std::make_shared<const int>(value), weight};
}

/// The coherence invariant every stats() snapshot must satisfy: the
/// store-wide totals are exactly the per-stage sums, and residency
/// never exceeds the budget.  stats() takes one lock, so any torn
/// update of an (entries, bytes) counter pair shows up here.
void expect_coherent(const ArtifactStore::Stats& stats, std::size_t byte_budget) {
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t evictions = 0;
  for (const ArtifactStore::StageStats& s : stats.stage) {
    entries += s.resident_entries;
    bytes += s.resident_bytes;
    evictions += s.evictions;
    EXPECT_LE(s.evictions, s.insertions);
  }
  EXPECT_EQ(stats.resident_entries, entries);
  EXPECT_EQ(stats.resident_bytes, bytes);
  EXPECT_EQ(stats.evictions, evictions);
  if (byte_budget > 0) {
    EXPECT_LE(stats.resident_bytes, byte_budget);
  }
}

// ---------------------------------------------------------------------
// Forced overlap: every round, N resolvers of one key truly collide
// ---------------------------------------------------------------------

TEST(StoreStress, OverlappedResolvesShareExactlyOncePerRound) {
  ArtifactStore store;
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;

  // A concurrent reader hammers stats() for the whole run: under TSan
  // this races against every insert/evict path, and the coherence
  // checks catch torn counters even without a sanitizer.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      expect_coherent(store.stats(), store.byte_budget());
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < kRounds; ++round) {
    const std::string key = "round-" + std::to_string(round);
    const std::size_t shared_before = store.stats().stage[kDmmStage].flights_shared;
    std::atomic<int> computes{0};
    std::atomic<int> shared{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        const ArtifactStore::Resolved resolved =
            store.resolve(ArtifactStage::kDmmCurve, key, [&] {
              ++computes;
              // Latch: hold the flight open until every sibling of this
              // round has joined it, so the overlap is forced — the
              // 1-compute / N-1-shared split is exact, not lucky timing.
              while (store.stats().stage[kDmmStage].flights_shared - shared_before <
                     kThreads - 1) {
                std::this_thread::yield();
              }
              return payload(round, sizeof(int));
            });
        shared += resolved.source == ArtifactStore::ResolveSource::kShared;
        EXPECT_EQ(*static_cast<const int*>(resolved.value.get()), round);
      });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(computes.load(), 1) << "round " << round;
    EXPECT_EQ(shared.load(), kThreads - 1) << "round " << round;
  }

  done.store(true, std::memory_order_release);
  reader.join();

  const ArtifactStore::Stats stats = store.stats();
  expect_coherent(stats, store.byte_budget());
  EXPECT_EQ(stats.stage[kDmmStage].insertions, static_cast<std::size_t>(kRounds));
  EXPECT_EQ(stats.stage[kDmmStage].flights_shared,
            static_cast<std::size_t>(kRounds) * (kThreads - 1));
}

// ---------------------------------------------------------------------
// Eviction churn: a tiny budget under many writers and readers
// ---------------------------------------------------------------------

TEST(StoreStress, EvictionChurnUnderConcurrentStatsStaysCoherent) {
  constexpr std::size_t kBudget = 4096;   // holds ~16 entries of weight 256
  constexpr std::size_t kWeight = 256;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  ArtifactStore store(kBudget);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      expect_coherent(store.stats(), kBudget);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stages interleave so eviction crosses stage boundaries (the LRU
      // list is store-wide); a deliberately small key universe makes
      // writers collide on keys, exercising first-insertion-wins.
      const ArtifactStage stage =
          t % 2 == 0 ? ArtifactStage::kBusyWindow : ArtifactStage::kOverload;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string(i % 40);
        switch (i % 4) {
          case 0:
            store.insert(stage, key, payload(i, kWeight).first, kWeight);
            break;
          case 2:
            (void)store.resolve(stage, key, [&] { return payload(i, kWeight); });
            break;
          default:
            (void)store.lookup(stage, key);
            break;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  done.store(true, std::memory_order_release);
  reader.join();

  const ArtifactStore::Stats stats = store.stats();
  expect_coherent(stats, kBudget);
  EXPECT_GT(stats.stage[static_cast<std::size_t>(
                            static_cast<int>(ArtifactStage::kBusyWindow))].insertions,
            0u);
}

// ---------------------------------------------------------------------
// Serve hammer: a pack of identical clients, answers bit-identical
// ---------------------------------------------------------------------

std::string case_study_text() {
  return io::serialize_system(
      case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload));
}

std::string open_line(int id, const std::string& session) {
  return "{\"id\":" + std::to_string(id) + ",\"type\":\"open_session\",\"session\":\"" +
         session + "\",\"system\":\"" + io::json_escape(case_study_text()) + "\"}";
}

std::string query_line(int id, const std::string& session) {
  return "{\"id\":" + std::to_string(id) + ",\"type\":\"query\",\"session\":\"" + session +
         "\",\"queries\":[{\"kind\":\"dmm\",\"chain\":\"sigma_c\",\"ks\":[3,7,12]},"
         "{\"kind\":\"latency\",\"chain\":\"sigma_c\"},"
         "{\"kind\":\"latency\",\"chain\":\"sigma_d\"}]}";
}

using testsupport::results_of;

TEST(StoreStress, ServeHammerAnswersStayBitIdenticalAcrossClients) {
  // The serialized, nothing-shared reference answer.
  std::vector<std::string> want;
  {
    Engine engine;
    std::istringstream in(open_line(1, "ref") + "\n" + query_line(2, "ref") + "\n");
    std::ostringstream out;
    (void)cli::serve_stream(engine, in, out);
    std::istringstream replies(out.str());
    for (std::string line; std::getline(replies, line);) {
      if (line.find("\"report\":") != std::string::npos) want.push_back(results_of(line));
    }
  }
  ASSERT_EQ(want.size(), 1u);

  Engine engine;
  int port = 0;
  const Expected<int> listener = cli::bind_serve_socket(0, port);
  ASSERT_TRUE(listener) << listener.status().to_string();
  std::ostringstream err;
  // Fewer slots than clients: the pool queues the overflow, so the
  // hammer also stresses the accept-loop condition variable.
  constexpr int kClients = 6;
  std::thread server([&, fd = listener.value()] {
    (void)cli::serve_listener(engine, fd, kClients - 2, err);
  });

  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      testsupport::ServeClient client(
          port, [](const std::string& message) { ADD_FAILURE() << message; });
      const std::string session = "s" + std::to_string(c);
      client.send_line(open_line(1, session));
      EXPECT_NE(client.recv_line().find(R"("status":"ok")"), std::string::npos);
      client.send_line(query_line(2, session));
      const std::string reply = client.recv_line();
      if (reply.find("\"report\":") != std::string::npos) {
        got[static_cast<std::size_t>(c)].push_back(results_of(reply));
      }
      client.send_line("{\"id\":3,\"type\":\"close\",\"session\":\"" + session + "\"}");
      (void)client.recv_line();
    });
  }
  for (std::thread& th : clients) th.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[static_cast<std::size_t>(c)], want) << "client " << c;
  }

  // Single-flight across connections: identical sessions insert each
  // busy-window artifact exactly once no matter the interleaving.
  const ArtifactStore::Stats stats = engine.store_stats();
  expect_coherent(stats, ArtifactStore::kDefaultByteBudget);

  testsupport::ServeClient closer(port);
  closer.send_line(R"({"type":"shutdown"})");
  (void)closer.recv_line();
  closer.close();
  server.join();
  EXPECT_TRUE(err.str().empty()) << err.str();
}

}  // namespace
}  // namespace wharf
