// Integration tests for the pdms_node daemon layer: a PDMS partitioned
// across shards that exchange traffic over real framed TCP must land on
// posteriors bitwise-identical to the single-process engine, and must keep
// serving θ-gated snapshot queries while inference rounds are running.
//
// Three levels:
//  - two PdmsNode instances in one process (threads + loopback TCP),
//  - a query client hitting a node mid-round over a plain socket,
//  - two actual `pdms_node` processes (exec'd binary, announce-dir
//    rendezvous) diffed against the binary's single-process reference mode.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bibliographic_pdms.h"
#include "gtest/gtest.h"
#include "net/socket_transport.h"
#include "node/pdms_node.h"

namespace pdms {
namespace {

/// Same knobs as tools/pdms_node_main.cc — the workload every test level
/// runs. period_ticks stays at its default of 1 (required by node mode).
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

/// Builds the bibliographic workload over a 2-way sharded socket transport
/// (peers round-robined across shards) and wraps it in a PdmsNode.
std::unique_ptr<PdmsNode> MakeShardNode(uint32_t shard, NodeOptions node_options) {
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
        auto created = SocketTransport::Create(std::move(options));
        EXPECT_TRUE(created.ok()) << created.status().ToString();
        if (!created.ok()) return nullptr;
        transport = created->get();
        return std::move(created).value();
      });
  EXPECT_NE(transport, nullptr);
  if (transport == nullptr) return nullptr;
  Result<std::unique_ptr<PdmsNode>> node =
      PdmsNode::Create(std::move(workload.pdms), node_options);
  EXPECT_TRUE(node.ok()) << node.status().ToString();
  if (!node.ok()) return nullptr;
  return std::move(node).value();
}

TEST(PdmsNodeTest, TwoShardsMatchSingleProcessBitwise) {
  // Reference: the exact same workload on the in-process simulator.
  bench::BibliographicPdms reference =
      bench::MakeBibliographicPdms(WorkloadOptions());
  const size_t reference_factors = reference.pdms.session().Discover();
  ASSERT_GT(reference_factors, 0u);
  constexpr auto kProbe = static_cast<size_t>(MessageKind::kProbe);
  const uint64_t reference_probes =
      reference.pdms.transport().stats().sent[kProbe];
  reference.pdms.session().Converge(kRounds);

  NodeOptions node_options;
  node_options.max_rounds = kRounds;
  std::unique_ptr<PdmsNode> node0 = MakeShardNode(0, node_options);
  std::unique_ptr<PdmsNode> node1 = MakeShardNode(1, node_options);
  ASSERT_NE(node0, nullptr);
  ASSERT_NE(node1, nullptr);

  ASSERT_TRUE(node0->SetShardAddress(1, node1->local_address()).ok());
  ASSERT_TRUE(node1->SetShardAddress(0, node0->local_address()).ok());
  ASSERT_TRUE(node0->Connect().ok());
  ASSERT_TRUE(node1->Connect().ok());

  // Discovery and rounds are mark-synchronized across shards, so both
  // nodes must run them concurrently.
  struct ShardRun {
    Status status = Status::Ok();
    size_t replicas = 0;
    ConvergenceReport report;
  };
  ShardRun runs[2];
  auto drive = [](PdmsNode* node, ShardRun* run) {
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
  };
  std::thread t0(drive, node0.get(), &runs[0]);
  std::thread t1(drive, node1.get(), &runs[1]);
  t0.join();
  t1.join();
  ASSERT_TRUE(runs[0].status.ok()) << runs[0].status.ToString();
  ASSERT_TRUE(runs[1].status.ok()) << runs[1].status.ToString();
  EXPECT_GT(runs[0].replicas, 0u);
  EXPECT_GT(runs[1].replicas, 0u);
  // Lockstep marks force both shards through the identical round schedule.
  EXPECT_EQ(runs[0].report.rounds, runs[1].report.rounds);

  // Discovery forwards the same probes whichever shard hosts the sender,
  // so the shards' sends add up to the in-process run's, and together
  // they hold every factor it found.
  EXPECT_EQ(node0->transport().stats().sent[kProbe] +
                node1->transport().stats().sent[kProbe],
            reference_probes);
  std::set<FactorId> shard_factors;
  for (PdmsNode* node : {node0.get(), node1.get()}) {
    for (PeerId p = 0; p < node->pdms().peer_count(); ++p) {
      if (!node->transport().IsLocalPeer(p)) continue;
      for (const Peer::ReplicaView& view : node->pdms().peer(p).ReplicaViews()) {
        shard_factors.insert(view.id);
      }
    }
  }
  EXPECT_EQ(shard_factors.size(), reference_factors);

  // Every live edge is owned (posterior-wise) by its source peer's shard;
  // whichever node hosts that peer must agree with the reference bitwise.
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

TEST(PdmsNodeTest, ServesSnapshotQueriesWhileRoundsRun) {
  // Single-shard node over the loopback socket transport: the same control
  // plane a remote shard would use also answers external query clients.
  SocketTransport* transport = nullptr;
  bench::BibliographicPdms workload = bench::MakeBibliographicPdms(
      WorkloadOptions(),
      [&](size_t peer_count, const EngineOptions&)
          -> std::unique_ptr<Transport> {
        auto created = SocketTransport::CreateLoopback(peer_count);
        EXPECT_NE(created, nullptr);
        transport = created.get();
        return created;
      });
  ASSERT_NE(transport, nullptr);

  // Give the origin peer something to answer with.
  const std::string attribute_name =
      workload.family[0].schema.attribute(0).name;
  workload.pdms.peer(0).store().Insert(1, {{0, "node-test-alpha"}});

  NodeOptions node_options;
  node_options.max_rounds = 40;
  node_options.round_delay_ms = 15;  // keep the round loop open for clients
  Result<std::unique_ptr<PdmsNode>> created =
      PdmsNode::Create(std::move(workload.pdms), node_options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PdmsNode& node = **created;
  ASSERT_TRUE(node.Connect().ok());

  std::atomic<bool> rounds_done{false};
  Status run_status = Status::Ok();
  std::thread driver([&] {
    Result<size_t> replicas = node.RunDiscovery();
    if (!replicas.ok()) {
      run_status = replicas.status();
    } else {
      Result<ConvergenceReport> report = node.RunRounds();
      if (!report.ok()) run_status = report.status();
    }
    rounds_done.store(true);
  });

  // Hammer the node with external (plain socket) queries the entire time
  // the driver is discovering and iterating; each one must come back well
  // formed with the inserted document.
  QueryRequestFrame request;
  request.request_id = 7;
  request.origin = 0;
  request.ttl = 2;
  request.text = "SELECT " + attribute_name;
  size_t served = 0;
  while (!rounds_done.load()) {
    Result<QueryResponseFrame> response =
        PdmsNode::QueryNode(node.local_address(), request, /*timeout_ms=*/5000);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok) << response->error;
    EXPECT_EQ(response->request_id, request.request_id);
    EXPECT_GE(response->reached, 1u);
    bool found = false;
    for (const std::string& row : response->rows) {
      found = found || row.find("node-test-alpha") != std::string::npos;
    }
    EXPECT_TRUE(found) << "inserted document missing from query result";
    ++served;
  }
  driver.join();
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_GT(served, 0u);

  // Unknown origin peers are rejected, not crashed on.
  request.origin = 1000;
  Result<QueryResponseFrame> rejected =
      PdmsNode::QueryNode(node.local_address(), request, /*timeout_ms=*/5000);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(rejected->ok);
}

TEST(PdmsNodeTest, ResumesFromSnapshotWithoutRediscovery) {
  char dir_template[] = "/tmp/pdms_node_state_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string state_dir = dir_template;

  // Single-shard node over the loopback socket transport, checkpointing
  // every round into `state_dir`.
  const auto make_node = [&state_dir]() -> std::unique_ptr<PdmsNode> {
    bench::BibliographicPdms workload = bench::MakeBibliographicPdms(
        WorkloadOptions(),
        [&](size_t peer_count, const EngineOptions&)
            -> std::unique_ptr<Transport> {
          return SocketTransport::CreateLoopback(peer_count);
        });
    NodeOptions node_options;
    node_options.max_rounds = kRounds;
    node_options.state_dir = state_dir;
    Result<std::unique_ptr<PdmsNode>> node =
        PdmsNode::Create(std::move(workload.pdms), node_options);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    if (!node.ok()) return nullptr;
    return std::move(node).value();
  };

  const auto all_posteriors = [](const PdmsNode& node) {
    std::vector<double> posteriors;
    const Digraph& graph = node.pdms().graph();
    for (EdgeId e : graph.LiveEdges()) {
      // Attribute count varies per schema; probe until out of range is not
      // possible here, so walk the owner's schema size.
      const PeerId owner = graph.edge(e).src;
      const size_t attrs = node.pdms().peer(owner).schema().size();
      for (AttributeId a = 0; a < attrs; ++a) {
        posteriors.push_back(node.pdms().Posterior(e, a));
      }
    }
    return posteriors;
  };

  // First life: an uninterrupted run, leaving snapshots behind.
  std::unique_ptr<PdmsNode> first = make_node();
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->Connect().ok());
  // An empty state dir is a cold start, not an error to retry around.
  EXPECT_EQ(first->TryRestoreFromState().status().code(),
            StatusCode::kNotFound);
  Result<size_t> replicas = first->RunDiscovery();
  ASSERT_TRUE(replicas.ok()) << replicas.status().ToString();
  ASSERT_GT(*replicas, 0u);
  Result<ConvergenceReport> full = first->RunRounds();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const std::vector<double> reference = all_posteriors(*first);
  first.reset();

  // Second life: restore the newest cut instead of re-discovering, finish
  // the remaining rounds, and land on the identical fixpoint.
  std::unique_ptr<PdmsNode> second = make_node();
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(second->Connect().ok());
  Result<uint64_t> restored = second->TryRestoreFromState();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(*restored, 0u);
  EXPECT_LT(*restored, static_cast<uint64_t>(kRounds));
  // The restored image already holds every replica discovery would find.
  EXPECT_GT(second->pdms().peer(0).replica_count(), 0u);
  ASSERT_TRUE(second->PerformRejoin().ok());  // single shard: trivial
  Result<ConvergenceReport> resumed = second->RunRounds();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(all_posteriors(*second), reference);

  std::system(("rm -rf " + state_dir).c_str());
}

TEST(PdmsNodeTest, QuantizedResumeContinuesThePrecisionTrajectory) {
  char dir_template[] = "/tmp/pdms_node_qstate_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string state_dir = dir_template;

  // Same shape as ResumesFromSnapshotWithoutRediscovery, but with adaptive
  // value quantization on: the snapshot carries each link's precision rank,
  // and the resumed run must keep stepping up exactly where the first life
  // left off to land on the identical fixpoint.
  const auto make_node =
      [&state_dir](double value_budget) -> std::unique_ptr<PdmsNode> {
    EngineOptions engine_options = WorkloadOptions();
    engine_options.value_precision.error_budget = value_budget;
    bench::BibliographicPdms workload = bench::MakeBibliographicPdms(
        engine_options,
        [&](size_t peer_count, const EngineOptions&)
            -> std::unique_ptr<Transport> {
          return SocketTransport::CreateLoopback(peer_count);
        });
    NodeOptions node_options;
    node_options.max_rounds = kRounds;
    node_options.state_dir = state_dir;
    Result<std::unique_ptr<PdmsNode>> node =
        PdmsNode::Create(std::move(workload.pdms), node_options);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    if (!node.ok()) return nullptr;
    return std::move(node).value();
  };

  const auto all_posteriors = [](const PdmsNode& node) {
    std::vector<double> posteriors;
    const Digraph& graph = node.pdms().graph();
    for (EdgeId e : graph.LiveEdges()) {
      const PeerId owner = graph.edge(e).src;
      const size_t attrs = node.pdms().peer(owner).schema().size();
      for (AttributeId a = 0; a < attrs; ++a) {
        posteriors.push_back(node.pdms().Posterior(e, a));
      }
    }
    return posteriors;
  };

  constexpr double kBudget = 1e-3;
  std::unique_ptr<PdmsNode> first = make_node(kBudget);
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->Connect().ok());
  ASSERT_TRUE(first->RunDiscovery().ok());
  Result<ConvergenceReport> full = first->RunRounds();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const std::vector<double> reference = all_posteriors(*first);
  first.reset();

  // A node configured with a *different* precision policy must refuse the
  // snapshots outright: the state epoch folds the value budget in, so the
  // store treats them as belonging to a foreign deployment.
  std::unique_ptr<PdmsNode> mismatched = make_node(0.0);
  ASSERT_NE(mismatched, nullptr);
  ASSERT_TRUE(mismatched->Connect().ok());
  EXPECT_EQ(mismatched->TryRestoreFromState().status().code(),
            StatusCode::kNotFound);
  mismatched.reset();

  // Same policy: restore the newest cut mid-trajectory and finish; the
  // restored link ranks make the remaining rounds — and the posteriors —
  // bitwise-identical to the uninterrupted run.
  std::unique_ptr<PdmsNode> second = make_node(kBudget);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(second->Connect().ok());
  Result<uint64_t> restored = second->TryRestoreFromState();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(*restored, 0u);
  ASSERT_TRUE(second->PerformRejoin().ok());
  Result<ConvergenceReport> resumed = second->RunRounds();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(all_posteriors(*second), reference);

  std::system(("rm -rf " + state_dir).c_str());
}

// --- Two real processes ---------------------------------------------------------

/// Parses `P <edge> <attr> <hex-float>` lines into (edge, attr) → text.
/// Duplicate keys fail the test: each mapping has exactly one owner shard.
std::map<std::pair<unsigned, unsigned>, std::string> ParsePosteriorFile(
    const std::string& path) {
  std::map<std::pair<unsigned, unsigned>, std::string> posteriors;
  FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << "missing output file " << path;
  if (f == nullptr) return posteriors;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned edge = 0, attribute = 0;
    char value[128] = {};
    if (std::sscanf(line, "P %u %u %127s", &edge, &attribute, value) != 3) {
      ADD_FAILURE() << "unparseable line in " << path << ": " << line;
      continue;
    }
    const bool inserted =
        posteriors.emplace(std::make_pair(edge, attribute), value).second;
    EXPECT_TRUE(inserted) << "duplicate posterior for edge " << edge
                          << " attribute " << attribute << " in " << path;
  }
  std::fclose(f);
  return posteriors;
}

TEST(PdmsNodeTest, TwoProcessesMatchReferenceBitwise) {
#ifndef PDMS_NODE_BINARY
  GTEST_SKIP() << "pdms_node binary path not wired in";
#else
  const std::string binary = PDMS_NODE_BINARY;
  char dir_template[] = "/tmp/pdms_node_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  const std::string rounds = " --max-rounds=" + std::to_string(kRounds);
  const std::string serve = binary + " serve --shards=2 --announce-dir=" +
                            dir + rounds;
  // Both shards in parallel; fail if either process does.
  const std::string command =
      serve + " --shard=0 >" + dir + "/shard0.txt 2>" + dir + "/shard0.err & "
      "P0=$!; " +
      serve + " --shard=1 >" + dir + "/shard1.txt 2>" + dir + "/shard1.err & "
      "P1=$!; wait $P0 || exit 1; wait $P1 || exit 1";
  ASSERT_EQ(std::system(command.c_str()), 0)
      << "distributed run failed — see " << dir << "/shard*.err";
  ASSERT_EQ(std::system((binary + " reference" + rounds + " >" + dir +
                         "/reference.txt")
                            .c_str()),
            0);

  const auto reference = ParsePosteriorFile(dir + "/reference.txt");
  ASSERT_FALSE(reference.empty());
  auto merged = ParsePosteriorFile(dir + "/shard0.txt");
  for (const auto& [key, value] : ParsePosteriorFile(dir + "/shard1.txt")) {
    const bool inserted = merged.emplace(key, value).second;
    EXPECT_TRUE(inserted) << "edge " << key.first
                          << " owned by both shards";
  }
  // The shards partition the mappings, so their union must equal the
  // reference output line for line — hex floats, so bitwise.
  EXPECT_EQ(merged, reference);

  std::system(("rm -rf " + dir).c_str());
#endif
}

}  // namespace
}  // namespace pdms
