// Tests for the durable peer state layer (store/): snapshot
// encode/decode round-trips over a real converged engine image,
// rejection of torn / truncated / corrupt input, the double-buffered
// SnapshotStore with its fallback-to-older-slot behavior, and the
// deployment state-epoch fingerprint.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "graph/topology.h"
#include "mapping/mapping_generator.h"
#include "net/codec.h"
#include "net/socket_transport.h"
#include "pdms/pdms.h"
#include "store/snapshot.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace {

constexpr size_t kAttrs = 11;

Schema MakeSchema(const std::string& name, size_t attrs = kAttrs) {
  Schema schema(name);
  for (size_t a = 0; a < attrs; ++a) {
    EXPECT_TRUE(schema.AddAttribute(name + "_a" + std::to_string(a)).ok());
  }
  return schema;
}

/// The intro example (Figure 4) through the public builder; m24 (EdgeId 4)
/// garbles attribute 0.
Pdms MakeIntroPdms(EngineOptions options = {}, uint64_t seed = 17) {
  Rng rng(seed);
  options.probe_ttl = 5;
  PdmsBuilder builder;
  builder.WithOptions(options).WithInstantTransport();
  for (int p = 0; p < 4; ++p) {
    builder.AddPeer(MakeSchema(StrFormat("p%d", p + 1)));
  }
  const std::vector<std::pair<PeerId, PeerId>> links = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}};
  for (EdgeId e = 0; e < links.size(); ++e) {
    const std::vector<AttributeId> wrong =
        e == 4 ? std::vector<AttributeId>{0} : std::vector<AttributeId>{};
    builder.AddMapping(
        links[e].first, links[e].second,
        MakeConceptMapping(StrFormat("m%u", e), kAttrs, wrong, &rng));
  }
  Result<Pdms> built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built).value();
}

/// A snapshot with every field populated: a converged engine image plus a
/// synthetic in-flight inbox covering two payload kinds.
NodeSnapshot MakeSnapshot(Pdms& pdms) {
  pdms.session().Discover();
  pdms.session().Converge(10);

  NodeSnapshot snapshot;
  snapshot.state_epoch = 0x0123456789abcdefull;
  snapshot.round = 7;
  snapshot.tick = 41;
  snapshot.quiet = 2;
  snapshot.previous_change = 0.1254321;
  snapshot.report_updates = 991;
  snapshot.engine = pdms.engine().CaptureImage();

  Envelope probe;
  probe.seq = 12;
  probe.from = 1;
  probe.to = 2;
  probe.via = EdgeId{1};
  probe.deliver_at = 42;
  ProbeMessage message;
  message.origin = 1;
  message.ttl = 3;
  message.route = {1, 2};
  message.width = 2;
  message.trail = {AttributeId{0}, std::nullopt, std::nullopt, AttributeId{4}};
  probe.payload = message;
  snapshot.inbox.push_back(probe);

  Envelope feedback;
  feedback.seq = 13;
  feedback.from = 3;
  feedback.to = 0;
  feedback.deliver_at = 42;
  FeedbackAnnouncement announcement;
  announcement.closure.kind = Closure::Kind::kCycle;
  announcement.closure.edges = {0, 1, 2, 3};
  announcement.closure.split = 4;
  announcement.closure.source = 0;
  announcement.closure.sink = 0;
  announcement.delta = 0.1;
  announcement.feedback = {{0,
                            FeedbackSign::kPositive,
                            {{0, 0}, {1, 0}, {2, 0}, {3, 0}}}};
  feedback.payload = announcement;
  snapshot.inbox.push_back(feedback);
  return snapshot;
}

std::string MakeTempDir() {
  char templ[] = "/tmp/pdms_store_test_XXXXXX";
  const char* dir = mkdtemp(templ);
  EXPECT_NE(dir, nullptr);
  return dir;
}

// --- Wire format -------------------------------------------------------------

TEST(SnapshotCodecTest, EncodeDecodeRoundTripsBitwise) {
  Pdms pdms = MakeIntroPdms();
  const NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::vector<uint8_t> bytes = EncodeSnapshot(snapshot);
  ASSERT_FALSE(bytes.empty());

  Result<NodeSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().state_epoch, snapshot.state_epoch);
  EXPECT_EQ(decoded.value().round, snapshot.round);
  EXPECT_EQ(decoded.value().tick, snapshot.tick);
  EXPECT_EQ(decoded.value().quiet, snapshot.quiet);
  EXPECT_EQ(decoded.value().previous_change, snapshot.previous_change);
  EXPECT_EQ(decoded.value().report_updates, snapshot.report_updates);
  EXPECT_EQ(decoded.value().engine.peers.size(), snapshot.engine.peers.size());
  EXPECT_EQ(decoded.value().inbox.size(), snapshot.inbox.size());

  // Decoding is lossless and encoding deterministic, so re-encoding the
  // decoded snapshot must reproduce the exact byte stream.
  EXPECT_EQ(EncodeSnapshot(decoded.value()), bytes);
}

TEST(SnapshotCodecTest, RestoredImageReproducesPosteriors) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);

  std::vector<double> before;
  for (EdgeId e : pdms.graph().LiveEdges()) {
    for (AttributeId a = 0; a < kAttrs; ++a) {
      before.push_back(pdms.Posterior(e, a));
    }
  }

  // Perturb the live engine, then restore through the wire format.
  pdms.session().Step();
  Result<NodeSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok());
  pdms.engine().RestoreImage(std::move(decoded.value().engine));

  std::vector<double> after;
  for (EdgeId e : pdms.graph().LiveEdges()) {
    for (AttributeId a = 0; a < kAttrs; ++a) {
      after.push_back(pdms.Posterior(e, a));
    }
  }
  EXPECT_EQ(before, after);
}

TEST(SnapshotCodecTest, RejectsTruncatedInput) {
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot(pdms));

  for (const size_t keep :
       {size_t{0}, size_t{4}, size_t{7}, bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + keep);
    Result<NodeSnapshot> decoded = DecodeSnapshot(torn);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << keep << " bytes accepted";
  }
}

TEST(SnapshotCodecTest, RejectsBadMagicAndVersion) {
  Pdms pdms = MakeIntroPdms();
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot(pdms));

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeSnapshot(bad_magic).ok());

  // The format version follows the 8-byte magic.
  std::vector<uint8_t> bad_version = bytes;
  bad_version[8] ^= 0xff;
  EXPECT_FALSE(DecodeSnapshot(bad_version).ok());
}

TEST(SnapshotCodecTest, RejectsPayloadCorruption) {
  Pdms pdms = MakeIntroPdms();
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot(pdms));

  // A single flipped payload bit must trip the CRC.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  Result<NodeSnapshot> decoded = DecodeSnapshot(corrupt);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeSnapshot(trailing).ok());
}

TEST(SnapshotCodecTest, RestoresPreviousVersionImage) {
  // `MakeSnapshot(MakeIntroPdms())` as the v3 encoder wrote it, before the
  // peer image dropped its (always empty) list of seen query ids. Frozen:
  // no build writes v3 any more.
  std::ifstream in(PDMS_TEST_DATA_DIR "/intro_snapshot_v3.pdms",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::vector<uint8_t> previous((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
  ASSERT_EQ(previous[8], kOldestReadableSnapshotVersion);

  Result<NodeSnapshot> decoded = DecodeSnapshot(previous);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const size_t peers = decoded.value().engine.peers.size();
  ASSERT_EQ(peers, 4u);
  // Re-encoding writes the current layout: one zero-count varint fewer
  // per peer, and nothing else lost.
  const std::vector<uint8_t> current = EncodeSnapshot(decoded.value());
  EXPECT_EQ(current[8], kSnapshotFormatVersion);
  EXPECT_EQ(current.size(), previous.size() - peers);
  Result<NodeSnapshot> decoded_current = DecodeSnapshot(current);
  ASSERT_TRUE(decoded_current.ok());
  EXPECT_EQ(EncodeSnapshot(decoded_current.value()), current);

  // Fresh deployments restored from the old and the current image start
  // at the same posteriors and carry on identically.
  Pdms from_previous = MakeIntroPdms();
  Pdms from_current = MakeIntroPdms();
  from_previous.engine().RestoreImage(std::move(decoded.value().engine));
  from_current.engine().RestoreImage(
      std::move(decoded_current.value().engine));
  // The captured state is the converged one: m24 garbles attribute 0.
  EXPECT_LT(from_previous.Posterior(EdgeId{4}, 0), 0.5);
  for (int round = 0; round <= 3; ++round) {
    for (EdgeId e : from_previous.graph().LiveEdges()) {
      for (AttributeId a = 0; a < kAttrs; ++a) {
        ASSERT_EQ(from_previous.Posterior(e, a), from_current.Posterior(e, a))
            << "round " << round << " edge " << e << " attribute " << a;
      }
    }
    from_previous.session().Step();
    from_current.session().Step();
  }
}

TEST(SnapshotCodecTest, CurrentFormatImageIsPinned) {
  // `MakeSnapshot(MakeIntroPdms())` as the current (v4) encoder writes it.
  // A shard must restore the snapshots an earlier build of the same
  // format version wrote, so the layout is pinned byte for byte: the
  // frozen image decodes and re-encodes to itself, and a fresh capture of
  // the same deployment encodes to the same bytes. (The second check also
  // fails when a change moves the intro example's posteriors on purpose;
  // then re-freeze the image.)
  std::ifstream in(PDMS_TEST_DATA_DIR "/intro_snapshot_v4.pdms",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::vector<uint8_t> frozen((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
  ASSERT_GT(frozen.size(), 8u);
  ASSERT_EQ(frozen[8], kSnapshotFormatVersion);

  Result<NodeSnapshot> decoded = DecodeSnapshot(frozen);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(EncodeSnapshot(decoded.value()), frozen);

  Pdms pdms = MakeIntroPdms();
  EXPECT_EQ(EncodeSnapshot(MakeSnapshot(pdms)), frozen);
}

TEST(SnapshotCodecTest, SocketInboxCaptureIsIndependentOfArrivalOrder) {
  // Frames reach a socket inbox in whatever order the event loop reads
  // them. The same in-flight set, restored in two different orders into
  // two loopback transports, must capture to the same sequence (recipient,
  // then the (deliver_at, from, seq) drain order) and so encode to the
  // same checkpoint bytes.
  std::vector<Envelope> frames;
  for (const PeerId to : {PeerId{2}, PeerId{0}}) {
    for (const uint64_t deliver_at : {uint64_t{6}, uint64_t{5}}) {
      for (const PeerId from : {PeerId{3}, PeerId{1}}) {
        for (const uint64_t seq : {uint64_t{9}, uint64_t{4}}) {
          Envelope frame;
          frame.from = from;
          frame.to = to;
          frame.via = EdgeId{from};
          frame.deliver_at = deliver_at;
          frame.seq = seq;
          ProbeMessage probe;
          probe.origin = from;
          probe.ttl = static_cast<uint32_t>(frames.size());
          frame.payload = probe;
          frames.push_back(std::move(frame));
        }
      }
    }
  }
  std::vector<Envelope> shuffled = frames;
  std::reverse(shuffled.begin(), shuffled.end());
  std::rotate(shuffled.begin(), shuffled.begin() + 5, shuffled.end());

  std::vector<std::vector<Envelope>> captures;
  for (std::vector<Envelope>* order : {&frames, &shuffled}) {
    std::unique_ptr<SocketTransport> transport =
        SocketTransport::CreateLoopback(4);
    ASSERT_NE(transport, nullptr);
    ASSERT_TRUE(transport->RestoreInboxes(*order).ok());
    captures.push_back(transport->CaptureInboxes());
  }
  const std::vector<Envelope>& a = captures[0];
  const std::vector<Envelope>& b = captures[1];
  ASSERT_EQ(a.size(), frames.size());
  ASSERT_EQ(b.size(), frames.size());
  const auto key = [](const Envelope& e) {
    return std::tuple(e.to, e.deliver_at, e.from, e.seq);
  };
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(key(a[i]), key(b[i])) << "frame " << i;
    EXPECT_EQ(a[i].via, b[i].via) << "frame " << i;
    std::vector<uint8_t> a_payload;
    std::vector<uint8_t> b_payload;
    EncodePayload(a[i].payload, &a_payload);
    EncodePayload(b[i].payload, &b_payload);
    EXPECT_EQ(a_payload, b_payload) << "frame " << i;
    if (i > 0) {
      EXPECT_LT(key(a[i - 1]), key(a[i])) << "frame " << i;
    }
  }

  NodeSnapshot first;
  first.inbox = a;
  NodeSnapshot second;
  second.inbox = b;
  EXPECT_EQ(EncodeSnapshot(first), EncodeSnapshot(second));
}

// --- SnapshotStore -----------------------------------------------------------

TEST(SnapshotStoreTest, LoadsHighestRoundAcrossSlots) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::string dir = MakeTempDir();
  const SnapshotStore store(dir, /*shard=*/0);

  snapshot.round = 4;
  ASSERT_TRUE(store.Save(snapshot).ok());  // slot 0
  snapshot.round = 5;
  snapshot.tick = 57;
  ASSERT_TRUE(store.Save(snapshot).ok());  // slot 1

  Result<NodeSnapshot> loaded = store.Load(snapshot.state_epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().round, 5u);
  EXPECT_EQ(loaded.value().tick, 57u);
}

TEST(SnapshotStoreTest, FallsBackWhenNewerSlotIsCorrupt) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::string dir = MakeTempDir();
  const SnapshotStore store(dir, /*shard=*/0);

  snapshot.round = 4;
  ASSERT_TRUE(store.Save(snapshot).ok());
  snapshot.round = 5;
  ASSERT_TRUE(store.Save(snapshot).ok());

  // Tear the round-5 slot as a crash mid-write would: keep a prefix only.
  const std::string newer = store.SlotPath(5 % 2);
  std::ifstream in(newer, std::ios::binary);
  std::vector<char> contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(newer, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 3));
  out.close();

  Result<NodeSnapshot> loaded = store.Load(snapshot.state_epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().round, 4u);

  // Destroy the older slot too: nothing left, the caller cold-starts.
  std::ofstream(store.SlotPath(4 % 2), std::ios::binary | std::ios::trunc)
      << "garbage";
  Result<NodeSnapshot> none = store.Load(snapshot.state_epoch);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, RejectsForeignEpochAndEmptyDir) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::string dir = MakeTempDir();
  const SnapshotStore store(dir, /*shard=*/2);

  EXPECT_EQ(store.Load(snapshot.state_epoch).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(store.Save(snapshot).ok());
  EXPECT_TRUE(store.Load(snapshot.state_epoch).ok());
  // A snapshot from another deployment must never be resumed.
  EXPECT_EQ(store.Load(snapshot.state_epoch + 1).status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, ShardsDoNotShareSlots) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  const std::string dir = MakeTempDir();
  const SnapshotStore store0(dir, /*shard=*/0);
  const SnapshotStore store1(dir, /*shard=*/1);

  ASSERT_TRUE(store0.Save(snapshot).ok());
  EXPECT_NE(store0.SlotPath(0), store1.SlotPath(0));
  EXPECT_EQ(store1.Load(snapshot.state_epoch).status().code(),
            StatusCode::kNotFound);
}

// --- State epoch -------------------------------------------------------------

TEST(StateEpochTest, StableForEqualInputsSensitiveToDeploymentChanges) {
  Pdms pdms = MakeIntroPdms();
  const Digraph& graph = pdms.graph();
  const std::vector<uint32_t> shard_of = {0, 1, 0, 1};
  const EngineOptions options = pdms.options();

  const uint64_t epoch = ComputeStateEpoch(graph, shard_of, 2, options);
  EXPECT_EQ(epoch, ComputeStateEpoch(graph, shard_of, 2, options));

  // Shard layout, shard count and inference options all re-key the epoch.
  const std::vector<uint32_t> other_layout = {0, 1, 1, 0};
  EXPECT_NE(epoch, ComputeStateEpoch(graph, other_layout, 2, options));
  EXPECT_NE(epoch, ComputeStateEpoch(graph, shard_of, 4, options));
  EngineOptions other_options = options;
  other_options.damping += 0.125;
  EXPECT_NE(epoch, ComputeStateEpoch(graph, shard_of, 2, other_options));
  EngineOptions other_ttl = options;
  other_ttl.probe_ttl += 1;
  EXPECT_NE(epoch, ComputeStateEpoch(graph, shard_of, 2, other_ttl));
}

TEST(StateEpochTest, GuardOffEpochsArePinned) {
  // A node only restores snapshots written under its own epoch, so an
  // epoch that moves for an unchanged deployment cold-starts every
  // restarted shard. Pinned for the guard-off intro deployment, exact and
  // quantized; change these only together with a note in
  // docs/DEPLOYMENT.md on which snapshots stop restoring.
  const std::vector<uint32_t> shard_of = {0, 1, 0, 1};
  Pdms exact = MakeIntroPdms();
  EXPECT_EQ(ComputeStateEpoch(exact.graph(), shard_of, 2, exact.options()),
            0x5c7e94c504e80441ull);
  EngineOptions budgeted;
  budgeted.value_precision.error_budget = 1e-3;
  Pdms quantized = MakeIntroPdms(budgeted);
  EXPECT_EQ(
      ComputeStateEpoch(quantized.graph(), shard_of, 2, quantized.options()),
      0x1de4f7cd347c8147ull);
}

TEST(SnapshotCodecTest, LinkValueRanksSurviveTheRoundTrip) {
  // A shard crashed mid-trajectory with links at different precision
  // tiers: restore must hand every link its exact rank back, or the
  // resumed run would re-send coarse values the original never did.
  EngineOptions options;
  options.value_precision.error_budget = 1e-3;
  Pdms pdms = MakeIntroPdms(options);
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  bool saw_links = false;
  for (Peer::Image& peer : snapshot.engine.peers) {
    for (size_t l = 0; l < peer.links.size(); ++l) {
      peer.links[l].value_rank =
          static_cast<uint32_t>(l % kValueRankCount);
      saw_links = true;
    }
  }
  ASSERT_TRUE(saw_links);

  Result<NodeSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  for (size_t p = 0; p < snapshot.engine.peers.size(); ++p) {
    const auto& expected = snapshot.engine.peers[p].links;
    const auto& restored = decoded.value().engine.peers[p].links;
    ASSERT_EQ(restored.size(), expected.size());
    for (size_t l = 0; l < expected.size(); ++l) {
      EXPECT_EQ(restored[l].value_rank, expected[l].value_rank);
    }
  }
}

TEST(SnapshotCodecTest, RejectsOutOfRangeLinkValueRank) {
  Pdms pdms = MakeIntroPdms();
  NodeSnapshot snapshot = MakeSnapshot(pdms);
  ASSERT_FALSE(snapshot.engine.peers.empty());
  ASSERT_FALSE(snapshot.engine.peers[0].links.empty());
  snapshot.engine.peers[0].links[0].value_rank = kValueRankCount;
  const Result<NodeSnapshot> decoded =
      DecodeSnapshot(EncodeSnapshot(snapshot));
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotCodecTest, RejectsImagesWhoseOffsetsLeaveTheirArrays) {
  // `EncodeSnapshot` writes a valid CRC over whatever image it is given,
  // so each tampered image below reaches the reader's consistency checks.
  // `RestoreImage` would copy every one of these offsets, and the next
  // round would index the peer's arrays with them.
  Pdms pdms = MakeIntroPdms();
  const NodeSnapshot snapshot = MakeSnapshot(pdms);
  // A peer with routes, variable slots and resolved aliases to tamper.
  size_t p = 0;
  const auto usable = [](const Peer::Image& image) {
    if (image.replicas.empty() || image.belief_routes.empty() ||
        image.belief_routes[0].groups.empty() || image.links.empty() ||
        image.links[0].replica_of_alias.empty()) {
      return false;
    }
    for (const Peer::ReplicaHot& hot : image.replica_hot) {
      if (hot.owned_count == 0) return false;
    }
    return !image.vars.empty() && !image.vars[0].slots.empty();
  };
  while (p < snapshot.engine.peers.size() &&
         !usable(snapshot.engine.peers[p])) {
    ++p;
  }
  ASSERT_LT(p, snapshot.engine.peers.size());
  {
    // Unresolved aliases are legal.
    NodeSnapshot unresolved = snapshot;
    unresolved.engine.peers[p].links[0].replica_of_alias[0] = 0xffffffffu;
    EXPECT_TRUE(DecodeSnapshot(EncodeSnapshot(unresolved)).ok());
  }

  using Tamper = void (*)(Peer::Image&);
  const std::vector<std::pair<const char*, Tamper>> tampers = {
      {"replica_hot shorter than replicas",
       [](Peer::Image& image) { image.replica_hot.pop_back(); }},
      {"message slots beyond var_to_factor_pool",
       [](Peer::Image& image) {
         image.replica_hot[0].msg_base =
             static_cast<uint32_t>(image.var_to_factor_pool.size());
       }},
      {"message slots beyond factor_to_var_pool",
       [](Peer::Image& image) { image.factor_to_var_pool.clear(); }},
      {"message slots beyond member_pool",
       [](Peer::Image& image) { image.member_pool.clear(); }},
      {"message slots beyond member_owner_pool",
       [](Peer::Image& image) { image.member_owner_pool.clear(); }},
      {"owned positions beyond owned_pos_pool",
       [](Peer::Image& image) {
         image.replica_hot[0].owned_base =
             static_cast<uint32_t>(image.owned_pos_pool.size());
       }},
      {"owned position beyond member_count",
       [](Peer::Image& image) {
         const Peer::ReplicaHot& hot = image.replica_hot[0];
         image.owned_pos_pool[hot.owned_base] = hot.member_count;
       }},
      {"route link beyond links",
       [](Peer::Image& image) {
         image.belief_routes[0].link =
             static_cast<uint32_t>(image.links.size());
       }},
      {"route group beyond replicas",
       [](Peer::Image& image) {
         image.belief_routes[0].groups[0].first =
             static_cast<uint32_t>(image.replicas.size());
       }},
      {"variable slot beyond replicas",
       [](Peer::Image& image) {
         image.vars[0].slots[0].first =
             static_cast<uint32_t>(image.replicas.size());
       }},
      {"alias bound beyond replicas",
       [](Peer::Image& image) {
         image.links[0].replica_of_alias[0] =
             static_cast<uint32_t>(image.replicas.size());
       }},
      {"two links for one peer",
       [](Peer::Image& image) { image.links.push_back(image.links[0]); }},
      {"route over another peer's link",
       [](Peer::Image& image) { image.belief_routes[0].to += 1; }},
  };
  for (const auto& [what, tamper] : tampers) {
    NodeSnapshot tampered = snapshot;
    tamper(tampered.engine.peers[p]);
    const Result<NodeSnapshot> decoded =
        DecodeSnapshot(EncodeSnapshot(tampered));
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << what;
  }
}

TEST(StateEpochTest, ValuePrecisionReKeysTheEpoch) {
  // Quantization changes what travels on the wire and therefore the
  // posteriors: a snapshot taken under one budget must never resume under
  // another.
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint32_t> shard_of = {0, 1, 0, 1};
  const EngineOptions options = pdms.options();
  const uint64_t epoch = ComputeStateEpoch(pdms.graph(), shard_of, 2, options);

  EngineOptions budgeted = options;
  budgeted.value_precision.error_budget = 1e-3;
  const uint64_t budgeted_epoch =
      ComputeStateEpoch(pdms.graph(), shard_of, 2, budgeted);
  EXPECT_NE(epoch, budgeted_epoch);

  EngineOptions finer = budgeted;
  finer.value_precision.error_budget = 1e-4;
  EXPECT_NE(budgeted_epoch,
            ComputeStateEpoch(pdms.graph(), shard_of, 2, finer));
}

TEST(SnapshotCodecTest, GuardStateSurvivesTheRoundTrip) {
  // A guarded shard crashed mid-demotion: link scores, demotion levels,
  // rejection tallies, the per-slot admission history and the round clock
  // must all restore exactly, or the replayed run would re-litigate — or
  // forget — demotion decisions the original already made.
  EngineOptions options;
  options.byzantine_guard.enabled = true;
  Pdms pdms = MakeIntroPdms(options);
  NodeSnapshot snapshot = MakeSnapshot(pdms);

  bool saw_links = false;
  for (Peer::Image& peer : snapshot.engine.peers) {
    peer.round = 29;
    for (size_t l = 0; l < peer.links.size(); ++l) {
      GuardLinkState& guard = peer.links[l].guard;
      guard.score = 3.25 + static_cast<double>(l);
      guard.demote_level = static_cast<uint8_t>(l % 3);
      guard.rejections = 11 + l;
      guard.equivocations = 5 + l;
      guard.oscillations = 2 + l;
      guard.outliers = 1 + l;
      guard.dropped_bundles = 7 + l;
      guard.round_influence = 0.5 * static_cast<double>(l);
      guard.round_absorbed = static_cast<uint32_t>(l);
      saw_links = true;
    }
    for (size_t s = 0; s < peer.guard_slot_pool.size(); ++s) {
      GuardSlot& slot = peer.guard_slot_pool[s];
      slot.last_log_odds = -1.5 + static_cast<double>(s);
      slot.last_round = 28;
      slot.flips = static_cast<uint8_t>(s % 4);
      slot.last_dir = (s % 2 == 0) ? 1 : -1;
      slot.has_last = true;
    }
  }
  ASSERT_TRUE(saw_links);

  Result<NodeSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  for (size_t p = 0; p < snapshot.engine.peers.size(); ++p) {
    const Peer::Image& expected = snapshot.engine.peers[p];
    const Peer::Image& restored = decoded.value().engine.peers[p];
    EXPECT_EQ(restored.round, expected.round);
    ASSERT_EQ(restored.links.size(), expected.links.size());
    for (size_t l = 0; l < expected.links.size(); ++l) {
      EXPECT_EQ(restored.links[l].guard, expected.links[l].guard);
    }
    ASSERT_EQ(restored.guard_slot_pool.size(), expected.guard_slot_pool.size());
    for (size_t s = 0; s < expected.guard_slot_pool.size(); ++s) {
      EXPECT_EQ(restored.guard_slot_pool[s].last_log_odds,
                expected.guard_slot_pool[s].last_log_odds);
      EXPECT_EQ(restored.guard_slot_pool[s].last_round,
                expected.guard_slot_pool[s].last_round);
      EXPECT_EQ(restored.guard_slot_pool[s].flips,
                expected.guard_slot_pool[s].flips);
      EXPECT_EQ(restored.guard_slot_pool[s].last_dir,
                expected.guard_slot_pool[s].last_dir);
      EXPECT_EQ(restored.guard_slot_pool[s].has_last,
                expected.guard_slot_pool[s].has_last);
    }
  }
}

TEST(StateEpochTest, ByzantineKnobsReKeyTheEpoch) {
  // The guard changes what gets absorbed and the chaos plan changes what
  // gets sent: a snapshot taken under either configuration must never be
  // resumed under another.
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint32_t> shard_of = {0, 1, 0, 1};
  const EngineOptions options = pdms.options();
  const uint64_t epoch = ComputeStateEpoch(pdms.graph(), shard_of, 2, options);

  EngineOptions guarded = options;
  guarded.byzantine_guard.enabled = true;
  const uint64_t guarded_epoch =
      ComputeStateEpoch(pdms.graph(), shard_of, 2, guarded);
  EXPECT_NE(epoch, guarded_epoch);

  EngineOptions threshold = guarded;
  threshold.byzantine_guard.demote_threshold += 1.0;
  EXPECT_NE(guarded_epoch,
            ComputeStateEpoch(pdms.graph(), shard_of, 2, threshold));

  EngineOptions chaos = options;
  chaos.byzantine.lie_probability = 0.25;
  chaos.byzantine.adversaries = {1};
  EXPECT_NE(epoch, ComputeStateEpoch(pdms.graph(), shard_of, 2, chaos));
}

TEST(StateEpochTest, ScheduleKnobsDoNotReKeyTheEpoch) {
  Pdms pdms = MakeIntroPdms();
  const std::vector<uint32_t> shard_of = {0, 0, 1, 1};
  const EngineOptions options = pdms.options();
  const uint64_t epoch = ComputeStateEpoch(pdms.graph(), shard_of, 2, options);

  // Parallelism is a scheduling choice: results — and therefore snapshots —
  // are interchangeable across it.
  EngineOptions parallel = options;
  parallel.parallelism = 8;
  EXPECT_EQ(epoch, ComputeStateEpoch(pdms.graph(), shard_of, 2, parallel));
}

}  // namespace
}  // namespace pdms
