// Concurrency layer tests: the work-stealing ThreadPool the engine fans
// rounds out on, the thread-safety contract of the bundled Transport
// implementations (sharded mailboxes, the mail bitmap, atomic stats), and
// the line-atomic logger round workers share. The transport tests
// are written to run meaningfully under ThreadSanitizer — CI builds this
// binary with -fsanitize=thread and any lock misuse fails the job.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault_injection.h"
#include "net/socket_transport.h"
#include "pdms/transport.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace pdms {
namespace {

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kItems = 10000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(0, kItems, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesToDistinctSlotsNeedNoSynchronization) {
  // The engine's usage pattern: each index owns its output slot.
  ThreadPool pool(3);
  std::vector<size_t> out(5000, 0);
  pool.ParallelFor(0, out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(7, 8, [&](size_t i) {
    calls.fetch_add(1);
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ZeroWorkersRunInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  pool.ParallelFor(0, ran.size(), [&](size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
  bool submitted = false;
  pool.Submit([&] { submitted = true; });
  EXPECT_TRUE(submitted);  // inline execution, no thread to defer to
}

TEST(ThreadPoolTest, SubmitEventuallyRunsEveryTask) {
  ThreadPool pool(3);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyParallelFors) {
  ThreadPool pool(4);
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<int> values(257, 0);
    pool.ParallelFor(0, values.size(), [&](size_t i) { values[i] = 1; });
    EXPECT_EQ(std::accumulate(values.begin(), values.end(), 0),
              static_cast<int>(values.size()));
  }
}

// --- Transport thread-safety ---------------------------------------------------

struct TransportFactoryCase {
  const char* label;
  std::unique_ptr<Transport> (*make)(size_t peers);
};

class ConcurrentTransportTest
    : public ::testing::TestWithParam<TransportFactoryCase> {};

ProbeMessage SequencedProbe(PeerId from, uint32_t sequence) {
  ProbeMessage probe;
  probe.origin = from;
  probe.ttl = sequence;
  return probe;
}

TEST_P(ConcurrentTransportTest, ParallelSendersPreservePerSenderOrder) {
  constexpr size_t kPeers = 8;
  constexpr size_t kSenders = 4;
  constexpr uint32_t kPerSender = 500;
  auto transport = GetParam().make(kPeers);

  // Senders 0..3 concurrently fan sequenced probes out to all peers while
  // two drainer threads concurrently empty disjoint halves of the
  // mailboxes (allowed by the Transport contract). Every message the
  // transport did not drop must come out exactly once, in per-sender
  // order.
  std::vector<std::vector<std::vector<uint32_t>>> received(
      kPeers, std::vector<std::vector<uint32_t>>(kSenders));
  std::atomic<bool> stop{false};
  auto drain_range = [&](PeerId begin, PeerId end) {
    for (PeerId p = begin; p < end; ++p) {
      for (Envelope& envelope : transport->Drain(p)) {
        const auto& probe = std::get<ProbeMessage>(envelope.payload);
        received[p][probe.origin].push_back(probe.ttl);
      }
    }
  };
  std::thread drainer_low([&] {
    while (!stop.load(std::memory_order_acquire)) drain_range(0, kPeers / 2);
  });
  std::thread drainer_high([&] {
    while (!stop.load(std::memory_order_acquire)) {
      drain_range(kPeers / 2, kPeers);
    }
  });

  std::vector<std::thread> senders;
  for (size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (uint32_t i = 0; i < kPerSender; ++i) {
        transport->Send(static_cast<PeerId>(s),
                        static_cast<PeerId>(i % kPeers), std::nullopt,
                        SequencedProbe(static_cast<PeerId>(s), i));
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  stop.store(true, std::memory_order_release);
  drainer_low.join();
  drainer_high.join();

  // Quiescent cleanup: advance past any delivery delay and drain the rest.
  for (int tick = 0; tick < 4; ++tick) transport->AdvanceTick();
  drain_range(0, kPeers);
  EXPECT_FALSE(transport->HasPendingMessages());

  size_t total = 0;
  for (PeerId p = 0; p < kPeers; ++p) {
    for (size_t s = 0; s < kSenders; ++s) {
      const std::vector<uint32_t>& sequence = received[p][s];
      total += sequence.size();
      for (size_t i = 1; i < sequence.size(); ++i) {
        ASSERT_LT(sequence[i - 1], sequence[i])
            << "per-sender FIFO violated at peer " << p << " sender " << s;
      }
    }
  }
  const size_t probe = static_cast<size_t>(MessageKind::kProbe);
  const size_t dropped = transport->stats().dropped[probe];
  EXPECT_EQ(total, kSenders * kPerSender - dropped);
  EXPECT_EQ(transport->stats().sent[probe], kSenders * kPerSender);
  EXPECT_EQ(transport->stats().delivered[probe], total);
  EXPECT_GT(transport->stats().bytes_sent, 0u);
}

TEST_P(ConcurrentTransportTest, ConcurrentSendsAccountEveryMessage) {
  constexpr size_t kPeers = 4;
  constexpr size_t kSenders = 8;
  constexpr size_t kPerSender = 1000;
  auto transport = GetParam().make(kPeers);
  std::vector<std::thread> senders;
  for (size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (size_t i = 0; i < kPerSender; ++i) {
        BeliefMessage message;
        message.AddGroup(0, FactorId{0x1, 0x2}, {BeliefEntry{0, Belief::Unit()}});
        transport->Send(static_cast<PeerId>(s % kPeers),
                        static_cast<PeerId>((s + i) % kPeers), std::nullopt,
                        std::move(message));
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  for (int tick = 0; tick < 4; ++tick) transport->AdvanceTick();
  size_t drained = 0;
  for (PeerId p = 0; p < kPeers; ++p) drained += transport->Drain(p).size();
  EXPECT_FALSE(transport->HasPendingMessages());

  const size_t belief = static_cast<size_t>(MessageKind::kBelief);
  const TransportStats& stats = transport->stats();
  EXPECT_EQ(stats.sent[belief], kSenders * kPerSender);
  EXPECT_EQ(stats.delivered[belief] + stats.dropped[belief],
            kSenders * kPerSender);
  EXPECT_EQ(drained, stats.delivered[belief]);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ConcurrentTransportTest,
    ::testing::Values(
        TransportFactoryCase{"instant",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               return std::make_unique<SimTransport>(
                                   peers, NetworkOptions{.delay_ticks = 0});
                             }},
        TransportFactoryCase{"sim",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               return std::make_unique<SimTransport>(
                                   peers, NetworkOptions{});
                             }},
        TransportFactoryCase{"sim_lossy",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               FaultPlan plan;
                               plan.seed = 11;
                               plan.drop_rate = 0.5;
                               return std::make_unique<FaultInjectingTransport>(
                                   std::make_unique<SimTransport>(
                                       peers, NetworkOptions{}),
                                   plan);
                             }},
        TransportFactoryCase{"socket",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               auto transport =
                                   SocketTransport::CreateLoopback(peers);
                               EXPECT_NE(transport, nullptr);
                               return transport;
                             }}),
    [](const ::testing::TestParamInfo<TransportFactoryCase>& info) {
      return std::string(info.param.label);
    });

// --- Mail bitmap under concurrency -------------------------------------------------

class MailBitmapConcurrencyTest
    : public ::testing::TestWithParam<TransportFactoryCase> {};

TEST_P(MailBitmapConcurrencyTest, BitmapMatchesMailboxesAfterParallelTraffic) {
  // Senders hammer every mailbox while two drainers empty disjoint halves
  // (the contract's concurrent pattern), for several ticks: each empty <->
  // non-empty flip of a mailbox races with sends into the same 64-peer
  // bitmap word, and a delayed transport's drains mix due and future
  // envelopes. At quiescence every bit must agree with its mailbox.
  constexpr size_t kPeers = 130;
  constexpr size_t kSenders = 4;
  constexpr size_t kPerSender = 500;
  constexpr int kEpochs = 4;
  auto transport = GetParam().make(kPeers);
  std::atomic<size_t> drained{0};
  auto drain_range = [&](PeerId begin, PeerId end) {
    std::vector<Envelope> batch;
    for (PeerId p = begin; p < end; ++p) {
      transport->DrainInto(p, &batch);
      drained.fetch_add(batch.size(), std::memory_order_relaxed);
    }
  };
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::atomic<bool> stop{false};
    std::thread drainer_low([&] {
      while (!stop.load(std::memory_order_acquire)) drain_range(0, kPeers / 2);
    });
    std::thread drainer_high([&] {
      while (!stop.load(std::memory_order_acquire)) {
        drain_range(kPeers / 2, kPeers);
      }
    });
    std::vector<std::thread> senders;
    for (size_t s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (size_t i = 0; i < kPerSender; ++i) {
          transport->Send(
              static_cast<PeerId>(s),
              static_cast<PeerId>((i * 7 + s + epoch) % kPeers), std::nullopt,
              SequencedProbe(static_cast<PeerId>(s), static_cast<uint32_t>(i)));
        }
      });
    }
    for (std::thread& sender : senders) sender.join();
    stop.store(true, std::memory_order_release);
    drainer_low.join();
    drainer_high.join();
    transport->AdvanceTick();  // driver-side, between the parallel phases
  }

  for (int tick = 0; tick < 4; ++tick) transport->AdvanceTick();
  for (PeerId p = 0; p < kPeers; ++p) {
    const bool flagged = transport->NextPeerWithMail(p) == p;
    const size_t got = transport->Drain(p).size();
    EXPECT_EQ(flagged, got > 0) << "peer " << p;
    drained += got;
  }
  EXPECT_EQ(transport->NextPeerWithMail(0), kPeers);
  EXPECT_FALSE(transport->HasPendingMessages());
  EXPECT_EQ(drained.load(), kEpochs * kSenders * kPerSender);
}

INSTANTIATE_TEST_SUITE_P(
    MailboxTransports, MailBitmapConcurrencyTest,
    ::testing::Values(
        TransportFactoryCase{"instant",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               return std::make_unique<SimTransport>(
                                   peers, NetworkOptions{.delay_ticks = 0});
                             }},
        TransportFactoryCase{"sim",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               return std::make_unique<SimTransport>(
                                   peers, NetworkOptions{});
                             }},
        TransportFactoryCase{"sim_delay3",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               NetworkOptions options;
                               options.delay_ticks = 3;
                               return std::make_unique<SimTransport>(peers,
                                                                     options);
                             }},
        TransportFactoryCase{"socket",
                             [](size_t peers) -> std::unique_ptr<Transport> {
                               auto transport =
                                   SocketTransport::CreateLoopback(peers);
                               EXPECT_NE(transport, nullptr);
                               return transport;
                             }}),
    [](const ::testing::TestParamInfo<TransportFactoryCase>& info) {
      return std::string(info.param.label);
    });

// --- Logger ---------------------------------------------------------------------

TEST(LoggerConcurrencyTest, ConcurrentLinesNeverInterleave) {
  // Round workers log absorb rejections concurrently; every line must
  // reach stderr whole. Redirect fd 2 into a temp file for the duration.
  constexpr int kThreads = 8;
  constexpr int kLines = 1000;
  const std::string padding(120, 'x');
  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  std::fflush(stderr);
  const int saved = dup(STDERR_FILENO);
  ASSERT_GE(saved, 0);
  ASSERT_GE(dup2(fileno(capture), STDERR_FILENO), 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &padding] {
      for (int i = 0; i < kLines; ++i) {
        PDMS_LOG_WARNING << "thread " << t << " line " << i << " " << padding;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::fflush(stderr);
  dup2(saved, STDERR_FILENO);
  close(saved);

  std::rewind(capture);
  std::string contents;
  char buffer[4096];
  for (size_t n; (n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0;) {
    contents.append(buffer, n);
  }
  std::fclose(capture);

  std::set<std::pair<int, int>> seen;
  std::istringstream lines(contents);
  size_t line_count = 0;
  for (std::string line; std::getline(lines, line); ++line_count) {
    int t = -1;
    int i = -1;
    char tail[200] = {};
    ASSERT_EQ(std::sscanf(line.c_str(), "[WARN] thread %d line %d %199s", &t,
                          &i, tail),
              3)
        << "mangled line: " << line;
    EXPECT_EQ(line, "[WARN] thread " + std::to_string(t) + " line " +
                        std::to_string(i) + " " + padding);
    EXPECT_TRUE(seen.emplace(t, i).second) << "duplicate line: " << line;
  }
  EXPECT_EQ(line_count, static_cast<size_t>(kThreads * kLines));
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kLines));
}

}  // namespace
}  // namespace pdms
