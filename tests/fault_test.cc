// Fault-tolerance tests: deterministic fault injection, exactly-once
// delivery over faulty links, tick-barrier and mark timeouts surfacing as
// Status, forged-mark rejection, and graceful degradation (quarantine)
// when a shard dies mid-run.
//
// The standing invariant under fire: frame-level faults live *below* the
// retransmission layer, so a sharded run with drops, duplicates, reorders,
// corruption and link kills lands on posteriors bitwise-identical to the
// fault-free single-process engine.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bibliographic_pdms.h"
#include "gtest/gtest.h"
#include "net/fault_injection.h"
#include "net/socket_transport.h"
#include "node/pdms_node.h"

namespace pdms {
namespace {

using std::chrono::steady_clock;

// --- Deterministic draws --------------------------------------------------------

TEST(FaultPlanTest, DrawsAreDeterministicAndAttemptSalted) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop_rate = 0.5;
  plan.duplicate_rate = 0.5;
  plan.reorder_rate = 0.5;
  plan.corrupt_rate = 0.5;
  plan.link_kill_rate = 0.5;
  plan.delay_ticks_max = 4;

  bool attempts_differ = false;
  for (uint64_t seq = 0; seq < 64; ++seq) {
    const FaultDecision first = DrawFaults(plan, /*stream=*/7, seq, 0);
    const FaultDecision again = DrawFaults(plan, /*stream=*/7, seq, 0);
    EXPECT_EQ(first.drop, again.drop);
    EXPECT_EQ(first.duplicate, again.duplicate);
    EXPECT_EQ(first.reorder, again.reorder);
    EXPECT_EQ(first.corrupt, again.corrupt);
    EXPECT_EQ(first.kill_link, again.kill_link);
    EXPECT_EQ(first.delay_ticks, again.delay_ticks);
    EXPECT_EQ(first.corrupt_entropy, again.corrupt_entropy);
    // A retransmission redraws: over 64 events at rate 0.5, at least one
    // drop verdict must flip between attempt 0 and attempt 1, or drop_rate
    // < 1 could never guarantee eventual delivery.
    const FaultDecision retry = DrawFaults(plan, /*stream=*/7, seq, 1);
    attempts_differ = attempts_differ || first.drop != retry.drop;
  }
  EXPECT_TRUE(attempts_differ);

  // Disabled plans decide nothing.
  const FaultDecision none = DrawFaults(FaultPlan{}, 7, 3, 0);
  EXPECT_FALSE(none.drop || none.duplicate || none.reorder || none.corrupt ||
               none.kill_link || none.delay_ticks > 0);
}

TEST(ByzantinePlanTest, ForgeryDrawsAreDeterministicAndColludersAgree) {
  ByzantinePlan plan;
  plan.seed = 5;
  plan.lie_probability = 0.5;
  plan.invert_values = true;
  plan.equivocate_rate = 0.25;
  plan.adversaries = {1, 2};

  const FactorId factor{0xabc, 0xdef};
  const auto make_bundle = [&] {
    BeliefMessage bundle;
    bundle.AddGroup(0, factor,
                    {BeliefEntry{0, Belief{0.1, 0.9}},
                     BeliefEntry{1, Belief{0.2, 0.8}},
                     BeliefEntry{2, Belief{0.3, 0.7}},
                     BeliefEntry{3, Belief{0.4, 0.6}},
                     BeliefEntry{4, Belief{0.5, 0.5}},
                     BeliefEntry{5, Belief{0.6, 0.4}},
                     BeliefEntry{6, Belief{0.7, 0.3}},
                     BeliefEntry{7, Belief{0.8, 0.2}}});
    return bundle;
  };
  const std::vector<FactorId> ids = {factor};

  // Same (plan, sender, recipient, round): bitwise-identical forgeries.
  BeliefMessage first = make_bundle();
  BeliefMessage again = make_bundle();
  const uint64_t forged = ApplyByzantineFaults(plan, 1, 3, 4, ids, &first);
  EXPECT_GT(forged, 0u);
  EXPECT_EQ(ApplyByzantineFaults(plan, 1, 3, 4, ids, &again), forged);
  ASSERT_EQ(first.entries.size(), again.entries.size());
  for (size_t i = 0; i < first.entries.size(); ++i) {
    EXPECT_EQ(first.entries[i].position, again.entries[i].position);
    EXPECT_EQ(first.entries[i].belief.correct, again.entries[i].belief.correct);
    EXPECT_EQ(first.entries[i].belief.incorrect,
              again.entries[i].belief.incorrect);
  }

  // An honest sender's bundle passes through untouched.
  BeliefMessage honest = make_bundle();
  EXPECT_EQ(ApplyByzantineFaults(plan, 0, 3, 4, ids, &honest), 0u);
  EXPECT_EQ(honest.entries.size(), 8u);

  // Colluding adversaries draw without the sender in the key: both forge
  // the identical values toward the same recipient — corroborating lies.
  plan.collude = true;
  BeliefMessage from_one = make_bundle();
  BeliefMessage from_two = make_bundle();
  ApplyByzantineFaults(plan, 1, 3, 4, ids, &from_one);
  ApplyByzantineFaults(plan, 2, 3, 4, ids, &from_two);
  ASSERT_EQ(from_one.entries.size(), from_two.entries.size());
  for (size_t i = 0; i < from_one.entries.size(); ++i) {
    EXPECT_EQ(from_one.entries[i].belief.correct,
              from_two.entries[i].belief.correct);
    EXPECT_EQ(from_one.entries[i].belief.incorrect,
              from_two.entries[i].belief.incorrect);
  }
}

TEST(FaultInjectingTransportTest, ReplaysExactlyForASeed) {
  // Serially-driven decorated SimTransport: the same seed must perturb the
  // same envelopes the same way, twice.
  auto run = [] {
    FaultPlan plan;
    plan.seed = 99;
    plan.drop_rate = 0.2;
    plan.duplicate_rate = 0.2;
    plan.reorder_rate = 0.2;
    plan.delay_ticks_max = 3;
    FaultInjectingTransport transport(
        std::make_unique<SimTransport>(3, NetworkOptions{}), plan);
    std::vector<std::string> delivered;
    for (int i = 0; i < 60; ++i) {
      ProbeMessage probe;
      probe.origin = static_cast<PeerId>(i);
      transport.Send(i % 3, (i + 1) % 3, std::nullopt, probe);
      transport.AdvanceTick();
      for (PeerId p = 0; p < 3; ++p) {
        for (const Envelope& envelope : transport.Drain(p)) {
          const auto& payload = std::get<ProbeMessage>(envelope.payload);
          delivered.push_back(std::to_string(envelope.from) + ">" +
                              std::to_string(envelope.to) + "#" +
                              std::to_string(payload.origin));
        }
      }
    }
    const FaultStats stats = transport.fault_stats();
    EXPECT_GT(stats.events, 0u);
    EXPECT_GT(stats.dropped + stats.duplicated + stats.reordered +
                  stats.delayed,
              0u);
    return delivered;
  };
  EXPECT_EQ(run(), run());
}

// --- Exactly-once delivery over faulty links ------------------------------------

Result<std::unique_ptr<SocketTransport>> MakeShardTransport(
    uint32_t shard, const FaultPlan& plan) {
  SocketTransportOptions options;
  options.peer_count = 2;
  options.local_shard = shard;
  options.shard_addresses = {"127.0.0.1:0", "127.0.0.1:0"};
  options.shard_of = {0, 1};
  options.link_fault_plan = plan;
  // Tight recovery timers keep the test fast even when the tail frame of a
  // burst is the one that gets dropped.
  options.retransmit_timeout_ms = 50;
  options.reconnect_backoff_initial_ms = 5;
  options.reconnect_backoff_max_ms = 50;
  return SocketTransport::Create(std::move(options));
}

TEST(SocketFaultToleranceTest, LinksDeliverExactlyOnceInOrderUnderFire) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_rate = 0.2;
  plan.duplicate_rate = 0.2;
  plan.reorder_rate = 0.2;
  plan.corrupt_rate = 0.1;
  plan.link_kill_rate = 0.05;

  auto made0 = MakeShardTransport(0, plan);
  auto made1 = MakeShardTransport(1, plan);
  ASSERT_TRUE(made0.ok()) << made0.status().ToString();
  ASSERT_TRUE(made1.ok()) << made1.status().ToString();
  SocketTransport& sender = **made0;
  SocketTransport& receiver = **made1;
  ASSERT_TRUE(sender.SetShardAddress(1, receiver.local_address()).ok());
  ASSERT_TRUE(receiver.SetShardAddress(0, sender.local_address()).ok());
  ASSERT_TRUE(sender.ConnectAll().ok());
  ASSERT_TRUE(receiver.ConnectAll().ok());

  constexpr int kFrames = 120;
  for (int i = 0; i < kFrames; ++i) {
    ProbeMessage probe;
    probe.origin = static_cast<PeerId>(i);
    sender.Send(0, 1, std::nullopt, probe);
  }
  receiver.AdvanceTick();  // cross-shard frames carry deliver_at = 1

  std::vector<PeerId> origins;
  const auto deadline = steady_clock::now() + std::chrono::seconds(60);
  while (origins.size() < kFrames && steady_clock::now() < deadline) {
    for (const Envelope& envelope : receiver.Drain(1)) {
      origins.push_back(std::get<ProbeMessage>(envelope.payload).origin);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(origins.size(), static_cast<size_t>(kFrames))
      << "delivery did not recover from injected faults";
  // Exactly once, in program order: drops retransmitted, duplicates
  // skipped, reorders healed by the sequence cursor.
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(origins[i], static_cast<PeerId>(i));
  }
  // Nothing extra trickles in afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(receiver.Drain(1).empty());

  const FaultStats stats = sender.link_fault_stats();
  EXPECT_GT(stats.events, 0u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(sender.frames_retransmitted(), 0u);
  EXPECT_GT(sender.reconnects() + receiver.duplicate_frames_skipped(), 0u);
}

TEST(SocketFaultToleranceTest, TickBarrierTimeoutSurfacesDeadlineExceeded) {
  // drop_rate 1.0 means the loopback frame can never come home; the tick
  // must still advance, with the failure reported instead of swallowed.
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 1.0;
  SocketTransportOptions options;
  options.peer_count = 2;
  options.link_fault_plan = plan;
  options.barrier_timeout_ms = 200;
  options.retransmit_timeout_ms = 50;
  options.reconnect_backoff_initial_ms = 5;
  options.reconnect_backoff_max_ms = 20;
  auto made = SocketTransport::Create(std::move(options));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  SocketTransport& transport = **made;
  ASSERT_TRUE(transport.ConnectAll().ok());
  EXPECT_TRUE(transport.barrier_status().ok());

  transport.Send(0, 1, std::nullopt, ProbeMessage{});
  const uint64_t before = transport.now();
  const Status status = transport.AdvanceTickWithStatus();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_EQ(transport.now(), before + 1);  // clock advanced regardless
  EXPECT_EQ(transport.barrier_status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(transport.HasPendingMessages());
}

// --- Node-level: bitwise posteriors under fire ----------------------------------

/// Same workload knobs as tests/node_test.cc and tools/pdms_node_main.cc.
EngineOptions WorkloadOptions() {
  EngineOptions options;
  options.delta_override = 0.1;
  options.probe_ttl = 4;
  options.closure_limits.max_cycle_length = 4;
  options.closure_limits.max_path_length = 3;
  options.damping = 0.5;
  return options;
}

constexpr size_t kRounds = 25;

std::unique_ptr<PdmsNode> MakeShardNode(uint32_t shard,
                                        NodeOptions node_options,
                                        const FaultPlan& plan) {
  SocketTransport* transport = nullptr;
  bench::BibliographicPdms workload = bench::MakeBibliographicPdms(
      WorkloadOptions(),
      [&](size_t peer_count, const EngineOptions&)
          -> std::unique_ptr<Transport> {
        SocketTransportOptions options;
        options.peer_count = peer_count;
        options.local_shard = shard;
        options.shard_addresses = {"127.0.0.1:0", "127.0.0.1:0"};
        options.shard_of.resize(peer_count);
        for (PeerId p = 0; p < peer_count; ++p) options.shard_of[p] = p % 2;
        options.link_fault_plan = plan;
        options.retransmit_timeout_ms = 50;
        options.reconnect_backoff_initial_ms = 5;
        options.reconnect_backoff_max_ms = 100;
        auto created = SocketTransport::Create(std::move(options));
        EXPECT_TRUE(created.ok()) << created.status().ToString();
        if (!created.ok()) return nullptr;
        transport = created->get();
        return std::move(created).value();
      });
  EXPECT_NE(transport, nullptr);
  if (transport == nullptr) return nullptr;
  Result<std::unique_ptr<PdmsNode>> node =
      PdmsNode::Create(std::move(workload.pdms), std::move(node_options));
  EXPECT_TRUE(node.ok()) << node.status().ToString();
  if (!node.ok()) return nullptr;
  return std::move(node).value();
}

struct ShardRun {
  Status status = Status::Ok();
  size_t replicas = 0;
  ConvergenceReport report;
};

void Drive(PdmsNode* node, ShardRun* run) {
  Result<size_t> replicas = node->RunDiscovery();
  if (!replicas.ok()) {
    run->status = replicas.status();
    return;
  }
  run->replicas = *replicas;
  Result<ConvergenceReport> report = node->RunRounds();
  if (!report.ok()) {
    run->status = report.status();
    return;
  }
  run->report = *report;
}

TEST(SocketFaultToleranceTest, TwoShardNodesUnderLinkFaultsMatchReferenceBitwise) {
  bench::BibliographicPdms reference =
      bench::MakeBibliographicPdms(WorkloadOptions());
  ASSERT_GT(reference.pdms.session().Discover(), 0u);
  reference.pdms.session().Converge(kRounds);

  FaultPlan plan;
  plan.seed = 2026;
  plan.drop_rate = 0.1;
  plan.duplicate_rate = 0.1;
  plan.reorder_rate = 0.1;
  plan.corrupt_rate = 0.05;
  plan.link_kill_rate = 0.02;

  NodeOptions node_options;
  node_options.max_rounds = kRounds;
  std::unique_ptr<PdmsNode> node0 = MakeShardNode(0, node_options, plan);
  std::unique_ptr<PdmsNode> node1 = MakeShardNode(1, node_options, plan);
  ASSERT_NE(node0, nullptr);
  ASSERT_NE(node1, nullptr);
  ASSERT_TRUE(node0->SetShardAddress(1, node1->local_address()).ok());
  ASSERT_TRUE(node1->SetShardAddress(0, node0->local_address()).ok());
  ASSERT_TRUE(node0->Connect().ok());
  ASSERT_TRUE(node1->Connect().ok());

  ShardRun runs[2];
  std::thread t0(Drive, node0.get(), &runs[0]);
  std::thread t1(Drive, node1.get(), &runs[1]);
  t0.join();
  t1.join();
  ASSERT_TRUE(runs[0].status.ok()) << runs[0].status.ToString();
  ASSERT_TRUE(runs[1].status.ok()) << runs[1].status.ToString();
  EXPECT_EQ(runs[0].report.rounds, runs[1].report.rounds);

  // The faults really fired…
  const FaultStats faults0 = node0->transport().link_fault_stats();
  const FaultStats faults1 = node1->transport().link_fault_stats();
  EXPECT_GT(faults0.events + faults1.events, 0u);
  EXPECT_GT(faults0.dropped + faults1.dropped, 0u);

  // …and still: every posterior bitwise-identical to the fault-free
  // single-process run.
  size_t compared = 0;
  const Digraph& graph = reference.pdms.graph();
  for (EdgeId e : graph.LiveEdges()) {
    const PeerId owner = graph.edge(e).src;
    PdmsNode& node = owner % 2 == 0 ? *node0 : *node1;
    ASSERT_TRUE(node.transport().IsLocalPeer(owner));
    const size_t attrs = reference.family[owner].schema.size();
    for (AttributeId a = 0; a < attrs; ++a) {
      ASSERT_EQ(node.pdms().Posterior(e, a), reference.pdms.Posterior(e, a))
          << "edge " << e << " attribute " << a;
      ++compared;
    }
  }
  EXPECT_GT(compared, 100u);
}

// --- Mark validation and timeouts -----------------------------------------------

TEST(SocketFaultToleranceTest, DiscoveryReportsUnavailableWhenAPeerNeverAppears) {
  NodeOptions node_options;
  node_options.max_rounds = kRounds;
  node_options.mark_timeout_ms = 300;
  std::unique_ptr<PdmsNode> node0 =
      MakeShardNode(0, node_options, FaultPlan{});
  ASSERT_NE(node0, nullptr);
  // Shard 1 never starts: the mark wait must give up with a Status, not
  // hang the driver thread.
  Result<size_t> replicas = node0->RunDiscovery();
  ASSERT_FALSE(replicas.ok());
  EXPECT_EQ(replicas.status().code(), StatusCode::kUnavailable)
      << replicas.status().ToString();
}

TEST(SocketFaultToleranceTest, ForgedMarksAreRejectedWithoutAdvancingBarriers) {
  NodeOptions node_options;
  node_options.max_rounds = kRounds;
  std::unique_ptr<PdmsNode> node0 =
      MakeShardNode(0, node_options, FaultPlan{});
  std::unique_ptr<PdmsNode> node1 =
      MakeShardNode(1, node_options, FaultPlan{});
  ASSERT_NE(node0, nullptr);
  ASSERT_NE(node1, nullptr);
  ASSERT_TRUE(node0->SetShardAddress(1, node1->local_address()).ok());
  ASSERT_TRUE(node1->SetShardAddress(0, node0->local_address()).ok());
  ASSERT_TRUE(node0->Connect().ok());
  ASSERT_TRUE(node1->Connect().ok());

  // Forge marks from an un-greeted client connection: one impersonating
  // shard 1's discovery step 0, one from an out-of-range shard, and one
  // impersonating the node's own shard. None may enter the barrier.
  auto forge = [&](uint32_t claimed_shard) {
    MarkFrame forged;
    forged.shard = claimed_shard;
    forged.phase = 0;
    forged.index = 0;
    forged.pending = false;
    std::vector<uint8_t> bytes;
    EncodeFrame(Frame{forged}, &bytes);
    // Deliver over a raw client socket, exactly as an attacker would.
    sockaddr_storage addr{};
    socklen_t addr_len = 0;
    ASSERT_TRUE(
        ParseSocketAddress(node0->local_address(), &addr, &addr_len).ok());
    const int fd = socket(addr.ss_family, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), addr_len), 0);
    ASSERT_EQ(send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    close(fd);
  };
  forge(1);   // impersonates the real peer shard
  forge(7);   // out-of-range shard id
  forge(0);   // impersonates the receiving node itself

  const auto deadline = steady_clock::now() + std::chrono::seconds(5);
  while (node0->rejected_marks() < 3 && steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(node0->rejected_marks(), 3u);

  // The forgeries changed nothing: a full synchronized run still completes
  // with both shards in lockstep.
  ShardRun runs[2];
  std::thread t0(Drive, node0.get(), &runs[0]);
  std::thread t1(Drive, node1.get(), &runs[1]);
  t0.join();
  t1.join();
  ASSERT_TRUE(runs[0].status.ok()) << runs[0].status.ToString();
  ASSERT_TRUE(runs[1].status.ok()) << runs[1].status.ToString();
  EXPECT_GT(runs[0].replicas, 0u);
  EXPECT_EQ(runs[0].report.rounds, runs[1].report.rounds);
  EXPECT_TRUE(node0->quarantined().empty());
}

// --- Graceful degradation -------------------------------------------------------

TEST(SocketFaultToleranceTest, SurvivorQuarantinesDeadShardAndKeepsServing) {
  NodeOptions survivor_options;
  survivor_options.max_rounds = kRounds;
  survivor_options.heartbeat_interval_ms = 20;
  survivor_options.quarantine_after_ms = 250;
  std::unique_ptr<PdmsNode> survivor =
      MakeShardNode(0, survivor_options, FaultPlan{});

  NodeOptions victim_options;
  victim_options.max_rounds = 3;  // bows out of the run early…
  std::unique_ptr<PdmsNode> victim =
      MakeShardNode(1, victim_options, FaultPlan{});
  ASSERT_NE(survivor, nullptr);
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(survivor->SetShardAddress(1, victim->local_address()).ok());
  ASSERT_TRUE(victim->SetShardAddress(0, survivor->local_address()).ok());
  ASSERT_TRUE(survivor->Connect().ok());
  ASSERT_TRUE(victim->Connect().ok());

  ShardRun runs[2];
  std::thread t0(Drive, survivor.get(), &runs[0]);
  std::thread t1(Drive, victim.get(), &runs[1]);
  t1.join();
  victim.reset();  // …and then the process "dies": links go dark
  t0.join();

  // The survivor must degrade, not fail: shard 1 quarantined, the run
  // finished, and the node still answers queries for its own peers.
  ASSERT_TRUE(runs[0].status.ok()) << runs[0].status.ToString();
  const std::vector<uint32_t> quarantined = survivor->quarantined();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0], 1u);
  EXPECT_TRUE(survivor->transport().IsAbandoned(1));

  survivor->pdms().peer(0).store().Insert(1, {{0, "survivor-doc"}});
  QueryRequestFrame request;
  request.request_id = 11;
  request.origin = 0;
  request.ttl = 2;
  request.text =
      "SELECT " + survivor->pdms().peer(0).schema().attribute(0).name;
  const QueryResponseFrame response = survivor->ExecuteSnapshotQuery(request);
  EXPECT_TRUE(response.ok) << response.error;
  bool found = false;
  for (const std::string& row : response.rows) {
    found = found || row.find("survivor-doc") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(SocketFaultToleranceTest, ShutdownDrainDeadlineBoundsAndCountsDrops) {
  const auto make = [](uint32_t shard, int drain_ms) {
    SocketTransportOptions options;
    options.peer_count = 2;
    options.local_shard = shard;
    options.shard_addresses = {"127.0.0.1:0", "127.0.0.1:0"};
    options.shard_of = {0, 1};
    options.retransmit_timeout_ms = 20;
    options.reconnect_backoff_initial_ms = 5;
    options.reconnect_backoff_max_ms = 20;
    options.shutdown_drain_ms = drain_ms;
    return SocketTransport::Create(std::move(options));
  };

  // A negative drain deadline is a configuration error, caught at Create.
  {
    auto bad = make(0, /*drain_ms=*/-1);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }

  auto made0 = make(0, /*drain_ms=*/200);
  auto made1 = make(1, /*drain_ms=*/200);
  ASSERT_TRUE(made0.ok()) << made0.status().ToString();
  ASSERT_TRUE(made1.ok()) << made1.status().ToString();
  SocketTransport& sender = **made0;
  ASSERT_TRUE(sender.SetShardAddress(1, (*made1)->local_address()).ok());
  ASSERT_TRUE((*made1)->SetShardAddress(0, sender.local_address()).ok());
  ASSERT_TRUE(sender.ConnectAll().ok());
  ASSERT_TRUE((*made1)->ConnectAll().ok());

  // Kill the receiving end, then stage frames that can never be acked: the
  // sender's shutdown must give up after the drain deadline and account
  // every undrained frame instead of hanging on the dead link.
  made1->reset();
  constexpr int kStranded = 10;
  for (int i = 0; i < kStranded; ++i) {
    ProbeMessage probe;
    probe.origin = static_cast<PeerId>(i);
    sender.Send(0, 1, std::nullopt, probe);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const steady_clock::time_point before = steady_clock::now();
  sender.Shutdown();
  EXPECT_LT(steady_clock::now() - before, std::chrono::seconds(5));
  EXPECT_GT(sender.stats().frames_dropped_at_shutdown, 0u);
  EXPECT_LE(sender.stats().frames_dropped_at_shutdown,
            static_cast<uint64_t>(kStranded));
}

TEST(SocketFaultToleranceTest, CleanShutdownDropsNothing) {
  FaultPlan plan;  // healthy links
  auto made0 = MakeShardTransport(0, plan);
  auto made1 = MakeShardTransport(1, plan);
  ASSERT_TRUE(made0.ok()) << made0.status().ToString();
  ASSERT_TRUE(made1.ok()) << made1.status().ToString();
  SocketTransport& sender = **made0;
  SocketTransport& receiver = **made1;
  ASSERT_TRUE(sender.SetShardAddress(1, receiver.local_address()).ok());
  ASSERT_TRUE(receiver.SetShardAddress(0, sender.local_address()).ok());
  ASSERT_TRUE(sender.ConnectAll().ok());
  ASSERT_TRUE(receiver.ConnectAll().ok());

  for (int i = 0; i < 20; ++i) {
    ProbeMessage probe;
    probe.origin = static_cast<PeerId>(i);
    sender.Send(0, 1, std::nullopt, probe);
  }
  // A live peer acks everything well inside the default drain window.
  sender.Shutdown();
  EXPECT_EQ(sender.stats().frames_dropped_at_shutdown, 0u);
  receiver.Shutdown();
  EXPECT_EQ(receiver.stats().frames_dropped_at_shutdown, 0u);
}

}  // namespace
}  // namespace pdms
