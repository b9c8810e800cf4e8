#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/codec.h"
#include "net/message.h"
#include "net/fault_injection.h"
#include "pdms/transport.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace {

BeliefMessage MakeBelief() {
  BeliefMessage message;
  message.AddGroup(0, FactorId{0x1, 0x2},
                   {BeliefEntry{0, Belief::FromProbability(0.7)}});
  return message;
}

TEST(MappingVarKeyTest, OrderingAndNaming) {
  const MappingVarKey a{1, 2};
  const MappingVarKey b{1, 3};
  const MappingVarKey c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.ToString(), "m(e1,a2)");
  const MappingVarKey coarse{4, MappingVarKey::kWholeMapping};
  EXPECT_EQ(coarse.ToString(), "m(e4)");
}

TEST(FactorIdTest, CanonicalAcrossEdgeOrderings) {
  // The fingerprint must depend on the edge *set*, not the order probes
  // happened to discover it in: any permutation yields the same id.
  Closure first;
  first.kind = Closure::Kind::kCycle;
  first.edges = {3, 1, 2};
  first.source = 1;
  first.sink = 1;
  Closure second = first;
  second.edges = {1, 2, 3};
  Closure third = first;
  third.edges = {2, 3, 1};
  EXPECT_EQ(FactorId::Make(first, 5), FactorId::Make(second, 5));
  EXPECT_EQ(FactorId::Make(first, 5), FactorId::Make(third, 5));
  EXPECT_NE(FactorId::Make(first, 5), FactorId::Make(second, 6));
}

TEST(FactorIdTest, DistinguishesRootAndKind) {
  Closure cycle;
  cycle.kind = Closure::Kind::kCycle;
  cycle.edges = {1, 2};
  cycle.source = 0;
  cycle.sink = 0;
  Closure other_root = cycle;
  other_root.source = 1;
  EXPECT_NE(FactorId::Make(cycle, 0), FactorId::Make(other_root, 0));

  Closure parallel = cycle;
  parallel.kind = Closure::Kind::kParallelPaths;
  parallel.split = 1;
  parallel.sink = 3;
  EXPECT_NE(FactorId::Make(cycle, 0), FactorId::Make(parallel, 0));
}

TEST(FactorIdTest, DistinguishesNearbyEdgeSets) {
  // Adjacent ids and swapped members must not alias: the two mixing lanes
  // have to avalanche on single-bit input differences.
  Closure base;
  base.kind = Closure::Kind::kCycle;
  base.edges = {10, 11};
  base.source = 0;
  base.sink = 0;
  Closure shifted = base;
  shifted.edges = {11, 12};
  Closure longer = base;
  longer.edges = {10, 11, 12};
  const FactorId a = FactorId::Make(base, 0);
  EXPECT_NE(a, FactorId::Make(shifted, 0));
  EXPECT_NE(a, FactorId::Make(longer, 0));
  EXPECT_FALSE(a.IsNil());
  // Identity hashing feeds `lo` straight into the hash table: the two
  // halves must differ from each other and across inputs.
  EXPECT_NE(a.hi, a.lo);
  EXPECT_NE(a.lo, FactorId::Make(shifted, 0).lo);
}

TEST(FactorIdTest, StableRendering) {
  Closure cycle;
  cycle.kind = Closure::Kind::kCycle;
  cycle.edges = {1, 2};
  cycle.source = 0;
  cycle.sink = 0;
  const FactorId id = FactorId::Make(cycle, 0);
  // Same content, same process-independent fingerprint: rendering is a
  // pure function of the two words.
  EXPECT_EQ(id.ToString(), FactorId::Make(cycle, 0).ToString());
  EXPECT_EQ(id.ToString().size(), 33u);  // 16 hex + ':' + 16 hex
}

TEST(VarintTest, WireSizeGrowsEverySevenBits) {
  // An empty bundle is four varints: epoch, ack, value format, #groups.
  const auto ack_bytes = [](uint32_t ack) {
    BeliefMessage bundle;
    bundle.ack = ack;
    return PayloadWireBreakdown(Payload{bundle}).bytes - 3;
  };
  EXPECT_EQ(ack_bytes(0), 1u);
  EXPECT_EQ(ack_bytes(127), 1u);
  EXPECT_EQ(ack_bytes(128), 2u);
  EXPECT_EQ(ack_bytes((1u << 14) - 1), 2u);
  EXPECT_EQ(ack_bytes(1u << 14), 3u);
  EXPECT_EQ(ack_bytes(~0u), 5u);
  // A full 64-bit varint (a feedback announcement's closure split) grows
  // from 1 byte at 0 to 10.
  FeedbackAnnouncement feedback;
  const size_t split_zero = PayloadWireBreakdown(Payload{feedback}).bytes;
  feedback.closure.split = ~size_t{0};
  EXPECT_EQ(PayloadWireBreakdown(Payload{feedback}).bytes, split_zero + 9);
}

TEST(AliasSessionTest, RxBindingsAdvanceContiguousPrefixOverHoles) {
  AliasSessionRx rx;
  EXPECT_TRUE(rx.Bind(0, FactorId{1, 1}).ok());
  EXPECT_EQ(rx.known_prefix, 1u);
  // Alias 2 arrives before 1 (its binding bundle was dropped): the acked
  // prefix must not claim the hole.
  EXPECT_TRUE(rx.Bind(2, FactorId{3, 3}).ok());
  EXPECT_EQ(rx.known_prefix, 1u);
  EXPECT_TRUE(rx.Bind(1, FactorId{2, 2}).ok());
  EXPECT_EQ(rx.known_prefix, 3u);  // hole filled: prefix jumps past both

  // Idempotent re-declaration vs. conflicting rebind vs. absurd alias.
  EXPECT_TRUE(rx.Bind(1, FactorId{2, 2}).ok());
  EXPECT_EQ(rx.Bind(1, FactorId{9, 9}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rx.Bind(kMaxAliasesPerSession, FactorId{4, 4}).code(),
            StatusCode::kOutOfRange);

  // Resolution: bound aliases resolve, holes and out-of-range do not.
  ASSERT_TRUE(rx.Resolve(2).ok());
  EXPECT_EQ(*rx.Resolve(2), (FactorId{3, 3}));
  EXPECT_EQ(rx.Resolve(3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rx.Resolve(99).status().code(), StatusCode::kNotFound);
}

TEST(BeliefWireFormatTest, BareAliasGroupsBeatTheFingerprintEncoding) {
  // Binding declaration (first mention): epoch(1) + ack(1) + value
  // format(1) + #groups(1) + alias token(1) + fingerprint(16) +
  // #entries(1) + position(1) + 16.
  const BeliefMessage first = MakeBelief();
  EXPECT_EQ(PayloadWireBreakdown(Payload{first}).bytes, 39u);
  EXPECT_EQ(PayloadWireBreakdown(Payload{first}).value_bytes, 16u);

  // Steady state (acked binding): the fingerprint is gone and the same
  // update costs 23 bytes against 34 under the pre-alias encoding — the
  // worst case (singleton group); multi-update groups amortize further.
  BeliefMessage steady;
  steady.AddGroup(0, FactorId{}, {BeliefEntry{0, Belief::FromProbability(0.7)}});
  EXPECT_EQ(PayloadWireBreakdown(Payload{steady}).bytes, 23u);
  EXPECT_EQ(PayloadWireBreakdown(Payload{steady}).value_bytes, 16u);

  // One alias header amortized over three delta-encoded entries.
  BeliefMessage grouped;
  grouped.AddGroup(3, FactorId{},
                   {BeliefEntry{0, Belief::Unit()}, BeliefEntry{1, Belief::Unit()},
                    BeliefEntry{2, Belief::Unit()}});
  EXPECT_EQ(PayloadWireBreakdown(Payload{grouped}).bytes, 4u + 2u + 3u * 17u);
  // 16 value bytes per raw entry: two doubles.
  EXPECT_EQ(PayloadWireBreakdown(Payload{grouped}).value_bytes, 3u * 16u);

  // Positions past the one-byte varint range cost exact zigzag-delta
  // varints (two bytes each here).
  BeliefMessage wide;
  wide.AddGroup(0, FactorId{},
                {BeliefEntry{64, Belief::Unit()}, BeliefEntry{200, Belief::Unit()}});
  EXPECT_EQ(PayloadWireBreakdown(Payload{wide}).bytes,
            4u + 2u + (2u + 16u) + (2u + 16u));
}

TEST(BeliefWireFormatTest, ValueBytesAreTheMuValuesOnly) {
  // A query piggyback carries its value as two raw doubles; the
  // fingerprint, position and query structure around it are header.
  QueryMessage query;
  EXPECT_EQ(PayloadWireBreakdown(Payload{query}).value_bytes, 0u);
  query.piggyback = {
      BeliefUpdate{FactorId{1, 2}, 0, Belief::FromProbability(0.9)},
      BeliefUpdate{FactorId{3, 4}, 1, Belief::FromProbability(0.2)}};
  const WireBreakdown piggybacked = PayloadWireBreakdown(Payload{query});
  EXPECT_EQ(piggybacked.value_bytes, 2u * 16u);
  EXPECT_GT(piggybacked.bytes, piggybacked.value_bytes);
  // Discovery traffic carries no µ values (the feedback delta is a
  // closure parameter, not a message value).
  for (const Payload& payload :
       {Payload{ProbeMessage{}}, Payload{FeedbackAnnouncement{}}}) {
    const WireBreakdown breakdown = PayloadWireBreakdown(payload);
    EXPECT_GT(breakdown.bytes, 0u);
    EXPECT_EQ(breakdown.value_bytes, 0u);
  }
}

// --- Quantized belief values ---------------------------------------------------

TEST(QuantizationTest, BudgetPicksEnoughFractionalBits) {
  EXPECT_EQ(ValueBitsForBudget(0.0), 0u);      // disabled
  EXPECT_EQ(ValueBitsForBudget(-1.0), 0u);     // nonsense disables too
  EXPECT_EQ(ValueBitsForBudget(2.0), 2u);      // floor
  EXPECT_EQ(ValueBitsForBudget(1e-3), 13u);    // ceil(log2(8000))
  EXPECT_EQ(ValueBitsForBudget(1e-15), 44u);   // ceiling
  // More budget never means more bits.
  uint32_t previous = kMaxValuePrecisionBits;
  for (double eps : {1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0}) {
    const uint32_t bits = ValueBitsForBudget(eps);
    EXPECT_LE(bits, previous) << "eps=" << eps;
    previous = bits;
  }
}

TEST(QuantizationTest, RoundTripStaysInsideTheBudgetAtEveryTier) {
  for (uint32_t bits : {2u, 8u, 13u, 20u, 44u}) {
    // A bits-tier quantum is 2^-bits wide in log-odds; the worst rounding
    // error is half a quantum, and d(prob)/d(log-odds) = p(1-p) <= 1/4,
    // so probabilities move by at most 2^-(bits+3).
    const double budget = std::ldexp(1.0, -static_cast<int>(bits) - 3);
    for (double p : {1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6}) {
      const Belief original = Belief::FromProbability(p);
      const int64_t quant = QuantizeLogOdds(original, bits);
      const Belief decoded = DequantizeLogOdds(quant, bits);
      EXPECT_NEAR(decoded.ProbabilityCorrect(), p, budget)
          << "bits=" << bits << " p=" << p;
      // Re-quantizing the dequantized belief is a fixed point: the value a
      // receiver absorbs re-encodes to the identical quantum (and bytes).
      EXPECT_EQ(QuantizeLogOdds(decoded, bits), quant);
    }
  }
}

TEST(QuantizationTest, CertaintySurvivesExactlyViaSentinels) {
  for (uint32_t bits : {2u, 13u, 44u}) {
    EXPECT_EQ(QuantizeLogOdds(Belief{1.0, 0.0}, bits), kQuantPosInf);
    EXPECT_EQ(QuantizeLogOdds(Belief{0.0, 1.0}, bits), kQuantNegInf);
    const Belief certain = DequantizeLogOdds(kQuantPosInf, bits);
    EXPECT_EQ(certain.correct, 1.0);
    EXPECT_EQ(certain.incorrect, 0.0);
    const Belief impossible = DequantizeLogOdds(kQuantNegInf, bits);
    EXPECT_EQ(impossible.correct, 0.0);
    EXPECT_EQ(impossible.incorrect, 1.0);
  }
  // The degenerate all-zero measure and NaN-producing inputs quantize to
  // the neutral quantum instead of poisoning the wire.
  EXPECT_EQ(QuantizeLogOdds(Belief{0.0, 0.0}, 8), 0);
}

TEST(QuantizationTest, WireTokensRoundTripIncludingSentinels) {
  EXPECT_EQ(QuantWireToken(kQuantPosInf), 0u);
  EXPECT_EQ(QuantWireToken(kQuantNegInf), 1u);
  EXPECT_EQ(QuantWireToken(0), 2u);  // zigzag(0) + 2
  for (int64_t quant : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1024},
                        int64_t{-1024}, QuantBound(44), -QuantBound(44),
                        kQuantPosInf, kQuantNegInf}) {
    EXPECT_EQ(QuantFromWireToken(QuantWireToken(quant)), quant);
  }
  // Saturated small-tier quanta stay one byte on the wire.
  BeliefMessage neutral;
  neutral.AddGroup(0, FactorId{}, {BeliefEntry{0, Belief{1.0, 1.0}}});
  neutral.QuantizeValues(2);
  EXPECT_EQ(PayloadWireBreakdown(Payload{neutral}).value_bytes, 1u);
}

TEST(SimTransportTest, DeliversAfterDelay) {
  NetworkOptions options;
  options.delay_ticks = 2;
  SimTransport network(3, options);
  network.Send(0, 1, std::nullopt, MakeBelief());
  EXPECT_TRUE(network.Drain(1).empty());  // tick 0
  network.AdvanceTick();
  EXPECT_TRUE(network.Drain(1).empty());  // tick 1
  network.AdvanceTick();
  const auto due = network.Drain(1);      // tick 2
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].from, 0u);
  EXPECT_EQ(due[0].to, 1u);
  EXPECT_TRUE(std::holds_alternative<BeliefMessage>(due[0].payload));
  EXPECT_FALSE(network.HasPendingMessages());
}

TEST(SimTransportTest, FifoWithinPeer) {
  SimTransport network(2, NetworkOptions{});
  for (int i = 0; i < 5; ++i) {
    ProbeMessage probe;
    probe.origin = static_cast<PeerId>(i);
    network.Send(0, 1, std::nullopt, probe);
  }
  network.AdvanceTick();
  const auto due = network.Drain(1);
  ASSERT_EQ(due.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(std::get<ProbeMessage>(due[i].payload).origin,
              static_cast<PeerId>(i));
  }
}

/// A `SimTransport` behind a fault layer running `plan`.
FaultInjectingTransport LossyTransport(size_t peers, FaultPlan plan) {
  return FaultInjectingTransport(
      std::make_unique<SimTransport>(peers, NetworkOptions{}), plan);
}

TEST(FaultLossTest, DroppedEnvelopesAreExcludedFromBytes) {
  FaultPlan drop_all;
  drop_all.drop_rate = 1.0;
  FaultInjectingTransport network = LossyTransport(2, drop_all);
  network.Send(0, 1, std::nullopt, MakeBelief());
  network.set_plan(FaultPlan{});
  network.Send(0, 1, std::nullopt, ProbeMessage{});
  network.AdvanceTick();
  const auto due = network.Drain(1);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<ProbeMessage>(due[0].payload));
  constexpr size_t kBelief = static_cast<size_t>(MessageKind::kBelief);
  EXPECT_EQ(network.stats().sent[kBelief], 1u);
  EXPECT_EQ(network.stats().dropped[kBelief], 1u);
  // Byte accounting excludes dropped envelopes: only the probe's bytes
  // are recorded.
  EXPECT_EQ(network.stats().bytes_sent,
            PayloadWireBreakdown(ProbeMessage{}).bytes);
}

TEST(FaultLossTest, LossRateIsApproximatelyRespected) {
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_rate = 0.7;
  FaultInjectingTransport network = LossyTransport(2, plan);
  const int kMessages = 20000;
  for (int i = 0; i < kMessages; ++i) {
    network.Send(0, 1, std::nullopt, MakeBelief());
  }
  const double delivered_fraction =
      1.0 - static_cast<double>(
                network.stats().dropped[static_cast<size_t>(
                    MessageKind::kBelief)]) /
                kMessages;
  EXPECT_NEAR(delivered_fraction, 0.3, 0.02);
}

TEST(SimTransportTest, StatsCountPerKind) {
  SimTransport network(3, NetworkOptions{});
  network.Send(0, 1, std::nullopt, MakeBelief());
  network.Send(1, 2, std::nullopt, ProbeMessage{});
  network.Send(2, 0, std::nullopt, QueryMessage{});
  EXPECT_EQ(network.stats().TotalSent(), 3u);
  network.AdvanceTick();
  network.Drain(0);
  network.Drain(1);
  network.Drain(2);
  EXPECT_EQ(
      network.stats().delivered[static_cast<size_t>(MessageKind::kQuery)], 1u);
}

/// Every counter of `actual` equals `expected`.
void ExpectSameStats(const TransportStats& actual,
                     const TransportStats& expected) {
  EXPECT_EQ(actual.sent, expected.sent);
  EXPECT_EQ(actual.dropped, expected.dropped);
  EXPECT_EQ(actual.delivered, expected.delivered);
  EXPECT_EQ(actual.bytes_sent, expected.bytes_sent);
  EXPECT_EQ(actual.value_bytes_sent, expected.value_bytes_sent);
  EXPECT_EQ(actual.header_bytes_sent, expected.header_bytes_sent);
}

TEST(SimTransportTest, MailboxDrainsTheDuePrefixInFifoOrder) {
  NetworkOptions options;
  options.delay_ticks = 3;
  SimTransport network(3, options);
  const auto probe = [](PeerId tag) {
    ProbeMessage message;
    message.origin = tag;
    return Payload{message};
  };
  const auto tag_of = [](const Envelope& envelope) {
    return std::get<ProbeMessage>(envelope.payload).origin;
  };
  constexpr size_t kProbe = static_cast<size_t>(MessageKind::kProbe);
  constexpr size_t kQuery = static_cast<size_t>(MessageKind::kQuery);

  // Tick 0: two senders into peer 1 and one into peer 2 (due at tick 3).
  network.Send(0, 1, std::nullopt, probe(10));
  network.Send(2, 1, std::nullopt, probe(11));
  network.Send(0, 2, std::nullopt, probe(20));
  network.AdvanceTick();
  // Tick 1: more for peer 1, due at tick 4 — the same mailbox now holds
  // envelopes of two delivery ticks.
  network.Send(0, 1, std::nullopt, probe(12));
  QueryMessage query;
  query.query_id = 13;
  network.Send(2, 1, std::nullopt, query);
  const TransportStats sent = network.stats();

  // Ticks 1 and 2: nothing is due; draining moves no counter.
  for (int tick = 1; tick <= 2; ++tick) {
    std::vector<Envelope> out(1);  // stale contents are discarded
    network.DrainInto(1, &out);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(network.Drain(2).empty());
    EXPECT_TRUE(network.Drain(0).empty());
    ExpectSameStats(network.stats(), sent);
    EXPECT_TRUE(network.HasPendingMessages());
    network.AdvanceTick();
  }

  // Tick 3: a partial drain — the tick-0 prefix, in send order.
  std::vector<Envelope> due;
  network.DrainInto(1, &due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(tag_of(due[0]), 10u);
  EXPECT_EQ(due[0].from, 0u);
  EXPECT_EQ(tag_of(due[1]), 11u);
  EXPECT_EQ(due[1].from, 2u);
  EXPECT_EQ(network.stats().delivered[kProbe], 2u);
  EXPECT_EQ(network.stats().delivered[kQuery], 0u);
  EXPECT_TRUE(network.HasPendingMessages());
  const auto other = network.Drain(2);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(tag_of(other[0]), 20u);
  EXPECT_EQ(network.stats().delivered[kProbe], 3u);
  EXPECT_TRUE(network.HasPendingMessages());  // peer 1's tick-1 envelopes

  // Tick 4: the rest of peer 1's mailbox, still in send order.
  network.AdvanceTick();
  network.DrainInto(1, &due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(tag_of(due[0]), 12u);
  EXPECT_EQ(std::get<QueryMessage>(due[1].payload).query_id, 13u);
  EXPECT_EQ(network.stats().delivered[kProbe], 4u);
  EXPECT_EQ(network.stats().delivered[kQuery], 1u);
  EXPECT_FALSE(network.HasPendingMessages());

  // Draining empty mailboxes leaves every counter as it was.
  const TransportStats drained = network.stats();
  network.DrainInto(1, &due);
  EXPECT_TRUE(due.empty());
  for (PeerId peer = 0; peer < 3; ++peer) {
    EXPECT_TRUE(network.Drain(peer).empty());
  }
  ExpectSameStats(network.stats(), drained);
  EXPECT_FALSE(network.HasPendingMessages());
}

// --- Wire codec ---------------------------------------------------------------

std::vector<uint8_t> Encoded(const Payload& payload) {
  std::vector<uint8_t> bytes;
  EncodePayload(payload, &bytes);
  return bytes;
}

/// Encode -> decode -> re-encode must reproduce the identical bytes, and
/// the encoded size must equal the accounting the transports charge — the
/// acceptance criterion tying `PayloadWireBreakdown` to real bytes.
void ExpectRoundTrip(const Payload& payload) {
  const std::vector<uint8_t> bytes = Encoded(payload);
  EXPECT_EQ(bytes.size(), PayloadWireBreakdown(payload).bytes);
  auto decoded = DecodePayload(KindOf(payload), bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(KindOf(*decoded), KindOf(payload));
  EXPECT_EQ(Encoded(*decoded), bytes) << "re-encode differs";
}

/// Every proper prefix of a valid encoding must be rejected (counts are
/// declared up front, so a prefix always truncates a promised field), and
/// so must trailing garbage.
void ExpectStrictFraming(const Payload& payload) {
  const std::vector<uint8_t> bytes = Encoded(payload);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto truncated =
        DecodePayload(KindOf(payload), std::span(bytes.data(), cut));
    EXPECT_FALSE(truncated.ok()) << "prefix of " << cut << " bytes accepted";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodePayload(KindOf(payload), padded).ok())
      << "trailing byte accepted";
}

ProbeMessage MakeRichProbe() {
  ProbeMessage probe;
  probe.origin = 3;
  probe.ttl = 5;
  probe.route = {2, 7, 300};
  probe.width = 3;
  probe.trail = {AttributeId{1}, std::nullopt, AttributeId{4},
                 std::nullopt,   AttributeId{0}, std::nullopt,
                 AttributeId{2}, std::nullopt, std::nullopt};
  return probe;
}

FeedbackAnnouncement MakeRichFeedback() {
  FeedbackAnnouncement message;
  message.closure.kind = Closure::Kind::kParallelPaths;
  message.closure.edges = {4, 9, 11};
  message.closure.split = 1;
  message.closure.source = 2;
  message.closure.sink = 6;
  message.delta = 0.125;
  AttributeFeedback positive;
  positive.root_attribute = 0;
  positive.sign = FeedbackSign::kPositive;
  positive.members = {{4, 0}, {9, 3}, {11, MappingVarKey::kWholeMapping}};
  AttributeFeedback negative;
  negative.root_attribute = 7;
  negative.sign = FeedbackSign::kNegative;
  negative.members = {{4, 7}};
  message.feedback = {positive, negative};
  return message;
}

QueryMessage MakeRichQuery() {
  QueryMessage message;
  message.query_id = 0x1122334455667788ull;
  message.origin = 1;
  message.ttl = 4;
  message.query = Query("q7");
  message.query.AddProjection(0);
  message.query.AddSelection(1, "river");
  message.visited = {0, 2, 5};
  message.piggyback = {
      BeliefUpdate{FactorId{0xdead, 0xbeef}, 3, Belief::FromProbability(0.9)}};
  return message;
}

TEST(CodecTest, EveryPayloadAlternativeRoundTripsByteIdentically) {
  ExpectRoundTrip(Payload{ProbeMessage{}});
  ExpectRoundTrip(Payload{MakeRichProbe()});
  ExpectRoundTrip(Payload{FeedbackAnnouncement{}});
  ExpectRoundTrip(Payload{MakeRichFeedback()});
  ExpectRoundTrip(Payload{BeliefMessage{}});
  ExpectRoundTrip(Payload{MakeBelief()});
  ExpectRoundTrip(Payload{QueryMessage{}});
  ExpectRoundTrip(Payload{MakeRichQuery()});

  // The belief shapes the exact-size test above pins down, plus a
  // multi-group bundle exercising alias deltas in both directions.
  BeliefMessage grouped;
  grouped.AddGroup(3, FactorId{},
                   {BeliefEntry{0, Belief::Unit()}, BeliefEntry{1, Belief::Unit()},
                    BeliefEntry{2, Belief::Unit()}});
  grouped.AddGroup(1, FactorId{0x5, 0x6}, {BeliefEntry{64, Belief::Unit()}});
  grouped.epoch = 2;
  grouped.ack = 130;
  ExpectRoundTrip(Payload{grouped});
}

TEST(CodecTest, EncodedSizeMatchesAccountingForAllKinds) {
  // The per-kind acceptance check: real encoded bytes == the breakdown the
  // transports charge (release builds included — this is the non-assert
  // form of the debug cross-check inside EncodePayload).
  for (const Payload& payload :
       {Payload{MakeRichProbe()}, Payload{MakeRichFeedback()},
        Payload{MakeBelief()}, Payload{MakeRichQuery()}}) {
    EXPECT_EQ(Encoded(payload).size(), PayloadWireBreakdown(payload).bytes)
        << MessageKindName(KindOf(payload));
  }
}

TEST(CodecTest, RejectsTruncationAndTrailingGarbageForAllKinds) {
  ExpectStrictFraming(Payload{MakeRichProbe()});
  ExpectStrictFraming(Payload{MakeRichFeedback()});
  ExpectStrictFraming(Payload{MakeBelief()});
  ExpectStrictFraming(Payload{MakeRichQuery()});
}

std::vector<uint8_t> RawVarints(std::initializer_list<uint64_t> values) {
  std::vector<uint8_t> bytes;
  for (uint64_t value : values) {
    while (value >= 0x80) {
      bytes.push_back(static_cast<uint8_t>(value) | 0x80);
      value >>= 7;
    }
    bytes.push_back(static_cast<uint8_t>(value));
  }
  return bytes;
}

TEST(CodecTest, RejectsMalformedVarints) {
  // 11 continuation bytes: longer than any 64-bit varint.
  std::vector<uint8_t> overlong(11, 0x80);
  EXPECT_FALSE(DecodePayload(MessageKind::kBelief, overlong).ok());
  // Ten bytes whose last carries bits beyond the 64th.
  std::vector<uint8_t> overflow(9, 0x80);
  overflow.push_back(0x7f);
  EXPECT_FALSE(DecodePayload(MessageKind::kBelief, overflow).ok());
  // Non-minimal encoding of 0 (0x80 0x00 instead of 0x00): decoding it
  // would re-encode to different bytes, so it is refused outright.
  const std::vector<uint8_t> non_minimal = {0x80, 0x00};
  EXPECT_FALSE(DecodePayload(MessageKind::kBelief, non_minimal).ok());
}

TEST(CodecTest, RejectsOutOfRangeBeliefAliases) {
  // epoch 0, ack 0, value format 0 (raw doubles), one group whose zigzag
  // alias delta lands exactly on the per-session bound.
  const uint64_t zigzag_bound = static_cast<uint64_t>(kMaxAliasesPerSession)
                                << 1;
  auto bytes = RawVarints({0, 0, 0, 1, zigzag_bound << 1, 0});
  const auto beyond = DecodePayload(MessageKind::kBelief, bytes);
  EXPECT_EQ(beyond.status().code(), StatusCode::kOutOfRange);

  // zigzag(-1) = 1: the first group would get alias -1.
  bytes = RawVarints({0, 0, 0, 1, (1ull << 1), 0});
  const auto negative = DecodePayload(MessageKind::kBelief, bytes);
  EXPECT_EQ(negative.status().code(), StatusCode::kOutOfRange);
}

TEST(CodecTest, RejectsCountsLargerThanTheInput) {
  // A probe claiming 2^20 route edges inside a 12-byte message must be
  // refused before any allocation happens.
  std::vector<uint8_t> bytes(8, 0x00);  // origin + ttl
  const auto count = RawVarints({1u << 20});
  bytes.insert(bytes.end(), count.begin(), count.end());
  const auto decoded = DecodePayload(MessageKind::kProbe, bytes);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // A belief group promising more 17-byte entries than bytes remain.
  auto belief = RawVarints({0, 0, 0, 1, 0, 1u << 16});
  EXPECT_EQ(DecodePayload(MessageKind::kBelief, belief).status().code(),
            StatusCode::kInvalidArgument);
}

/// The wire body of a probe over `route` whose trail has one hop per
/// entry of `hop_widths`, each that many (zero) images wide.
std::vector<uint8_t> ProbeBytes(const std::vector<uint32_t>& route,
                                const std::vector<uint64_t>& hop_widths) {
  std::vector<uint8_t> bytes(8, 0x00);  // origin + ttl
  const auto append_varint = [&](uint64_t value) {
    const auto encoded = RawVarints({value});
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  };
  const auto append_fixed32 = [&](uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<uint8_t>(value >> shift));
    }
  };
  append_varint(route.size());
  for (uint32_t edge : route) append_fixed32(edge);
  append_varint(hop_widths.size());
  for (uint64_t width : hop_widths) {
    append_varint(width);
    for (uint64_t a = 0; a < width; ++a) append_fixed32(0);
  }
  return bytes;
}

TEST(CodecTest, RejectsProbesWhoseTrailDoesNotMatchTheRoute) {
  // Well-formed: one hop of equal width per route edge.
  const auto valid =
      DecodePayload(MessageKind::kProbe, ProbeBytes({2, 7}, {3, 3}));
  ASSERT_TRUE(valid.ok()) << valid.status();
  const auto& probe = std::get<ProbeMessage>(*valid);
  EXPECT_EQ(probe.hops(), 2u);
  EXPECT_EQ(probe.width, 3u);

  const auto code = [](const std::vector<uint8_t>& bytes) {
    return DecodePayload(MessageKind::kProbe, bytes).status().code();
  };
  EXPECT_EQ(code(ProbeBytes({2, 7}, {3})), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(ProbeBytes({2}, {3, 3})), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(ProbeBytes({2, 7}, {3, 2})), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(ProbeBytes({2, 7}, {2, 3})), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(ProbeBytes({2}, {0})), StatusCode::kInvalidArgument);

  // Two hops promised, only the first one's images present: refused by
  // the size check before the trail is reserved.
  std::vector<uint8_t> short_trail = ProbeBytes({2, 7}, {3, 3});
  short_trail.resize(short_trail.size() - 13);  // drop hop 2 entirely
  EXPECT_FALSE(DecodePayload(MessageKind::kProbe, short_trail).ok());

  // An in-memory probe whose trail disagrees with its route encodes to
  // bytes the decoder refuses.
  ProbeMessage mismatched;
  mismatched.route = {1, 2};
  mismatched.width = 2;
  mismatched.trail = {AttributeId{0}, std::nullopt};
  EXPECT_EQ(code(Encoded(Payload{mismatched})), StatusCode::kInvalidArgument);
}

BeliefMessage MakeQuantized(uint32_t bits) {
  BeliefMessage message;
  message.AddGroup(0, FactorId{},
                   {BeliefEntry{0, Belief::FromProbability(0.7)},
                    BeliefEntry{1, Belief{1.0, 0.0}},       // +inf sentinel
                    BeliefEntry{2, Belief{0.0, 1.0}},       // -inf sentinel
                    BeliefEntry{3, Belief{1.0, 1.0}}});     // log-odds 0
  message.AddGroup(2, FactorId{0xa, 0xb},
                   {BeliefEntry{64, Belief::FromProbability(1e-4)}});
  message.QuantizeValues(bits);
  return message;
}

TEST(CodecTest, QuantizedBundlesRoundTripByteIdenticallyAtEveryTier) {
  for (uint32_t bits : {2u, 8u, 13u, 20u, 44u}) {
    const BeliefMessage message = MakeQuantized(bits);
    ExpectRoundTrip(Payload{message});
    // The decoded beliefs are exactly the sender's post-quantization
    // realizations — the codec and QuantizeValues agree on dequantization.
    const auto decoded =
        DecodePayload(MessageKind::kBelief, Encoded(Payload{message}));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    const auto& bundle = std::get<BeliefMessage>(*decoded);
    ASSERT_EQ(bundle.entries.size(), message.entries.size());
    for (size_t i = 0; i < bundle.entries.size(); ++i) {
      EXPECT_EQ(bundle.entries[i].quant, message.entries[i].quant);
      EXPECT_EQ(bundle.entries[i].belief.correct,
                message.entries[i].belief.correct);
      EXPECT_EQ(bundle.entries[i].belief.incorrect,
                message.entries[i].belief.incorrect);
    }
    // Framing stays strict under the compact entries: every truncation and
    // any trailing byte is still rejected.
    ExpectStrictFraming(Payload{message});
  }
  // A saturated-workload singleton (log-odds 0) costs 2 bytes of entry
  // against 17 raw — the per-update win the 10k benchmark banks on.
  BeliefMessage steady;
  steady.AddGroup(0, FactorId{}, {BeliefEntry{0, Belief{1.0, 1.0}}});
  steady.QuantizeValues(13);
  EXPECT_EQ(PayloadWireBreakdown(Payload{steady}).bytes, 4u + 2u + 1u + 1u);
  EXPECT_EQ(PayloadWireBreakdown(Payload{steady}).value_bytes, 1u);
}

TEST(CodecTest, MixedPrecisionBundlesCoexistOnOneLink) {
  // Adjacent bundles may carry different per-bundle value formats (the
  // sender steps precision up mid-session); each decodes independently.
  for (uint32_t bits : {0u, 2u, 13u, 44u}) {
    BeliefMessage message = MakeBelief();
    message.QuantizeValues(bits);
    const auto decoded =
        DecodePayload(MessageKind::kBelief, Encoded(Payload{message}));
    ASSERT_TRUE(decoded.ok()) << "bits=" << bits << ": " << decoded.status();
    EXPECT_EQ(std::get<BeliefMessage>(*decoded).value_bits, bits);
  }
}

TEST(CodecTest, RejectsInvalidBeliefValueFormats) {
  // Formats 1 and >44 identify no tier this build knows how to decode.
  for (uint64_t bad_format : {1u, 45u, 255u}) {
    const auto bytes = RawVarints({0, 0, bad_format, 0});
    EXPECT_EQ(DecodePayload(MessageKind::kBelief, bytes).status().code(),
              StatusCode::kInvalidArgument)
        << "format " << bad_format;
  }
}

TEST(CodecTest, RejectsQuantaOutsideThePrecisionBound) {
  // A forged quantum one past the 2-bit tier's bound must be refused —
  // accepted quanta re-encode byte-identically, so out-of-range values
  // would otherwise break the round-trip invariant.
  BeliefMessage forged = MakeBelief();
  forged.QuantizeValues(2);
  forged.entries[0].quant = QuantBound(2) + 1;
  EXPECT_EQ(DecodePayload(MessageKind::kBelief, Encoded(Payload{forged}))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  forged.entries[0].quant = -QuantBound(2) - 1;
  EXPECT_EQ(DecodePayload(MessageKind::kBelief, Encoded(Payload{forged}))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // The bound itself (the saturation value) is legal.
  forged.entries[0].quant = QuantBound(2);
  EXPECT_TRUE(
      DecodePayload(MessageKind::kBelief, Encoded(Payload{forged})).ok());
}

TEST(CodecTest, RejectsBitFlippedQuantizedFrames) {
  // End-to-end: a v4 data frame with any single payload byte corrupted is
  // caught by the frame CRC before the payload codec ever runs.
  DataFrame data;
  data.from = 1;
  data.to = 2;
  data.seq = 7;
  data.payload = MakeQuantized(13);
  std::vector<uint8_t> bytes;
  EncodeFrame(Frame{data}, &bytes);
  for (size_t bit = 0; bit < 8 * bytes.size(); bit += 37) {
    std::vector<uint8_t> flipped = bytes;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    FrameAssembler assembler;
    assembler.Feed(flipped);
    size_t accepted = 0;
    for (;;) {
      Result<std::optional<Frame>> next = assembler.Next();
      if (!next.ok() || !next->has_value()) break;
      ++accepted;
    }
    EXPECT_EQ(accepted, 0u) << "bit " << bit << " accepted";
  }
}

TEST(CodecTest, RejectsUnknownEnumBytes) {
  std::vector<uint8_t> feedback = Encoded(Payload{MakeRichFeedback()});
  feedback[0] = 7;  // closure kind
  EXPECT_FALSE(DecodePayload(MessageKind::kFeedback, feedback).ok());

  // Split beyond the closure's edge count.
  FeedbackAnnouncement bad_split = MakeRichFeedback();
  std::vector<uint8_t> bytes = Encoded(Payload{bad_split});
  bytes[1] = 0x07;  // split varint: 7 > 3 edges
  EXPECT_FALSE(DecodePayload(MessageKind::kFeedback, bytes).ok());
}

// --- Frame codec ---------------------------------------------------------------

std::vector<uint8_t> EncodedFrame(const Frame& frame) {
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  return bytes;
}

/// One frame of every type, in `FrameType` order.
std::vector<Frame> OneFrameOfEachType() {
  DataFrame data;
  data.from = 4;
  data.to = 2;
  data.via = 17;
  data.deliver_at = 9;
  data.seq = 1234;
  data.payload = MakeBelief();

  MarkFrame mark;
  mark.shard = 1;
  mark.phase = 1;
  mark.index = 12;
  mark.frames_sent = 7;
  mark.updates_sent = 21;
  mark.max_change = 0.25;
  mark.pending = true;

  QueryResponseFrame response;
  response.request_id = 99;
  response.ok = true;
  response.reached = 3;
  response.rows = {"peer=0 entity=1 values=Defoe", "peer=2 entity=1 values=Defoe"};

  return {Frame{data},
          Frame{HelloFrame{0, 2, 24, 0x1122334455667788ull, 41}},
          Frame{mark},
          Frame{QueryRequestFrame{5, 1, 4, "SELECT author"}},
          Frame{response},
          Frame{LinkAckFrame{1, 0x1122334455667788ull, 42}},
          Frame{RejoinFrame{1, 0x0123456789abcdefull, 300, "127.0.0.1:40123"}},
          Frame{RejoinAckFrame{0, 300, false, "cut no longer held"}}};
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  for (uint8_t byte : bytes) out += StrFormat("%02x", byte);
  return out;
}

TEST(FrameCodecTest, EveryFrameTypeRoundTripsThroughTheAssembler) {
  const std::vector<Frame> frames = OneFrameOfEachType();
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(static_cast<size_t>(FrameTypeOf(frames[i])), i);
  }

  // Feed the whole stream one byte at a time: the assembler must hold
  // partial frames and release each one exactly once, in order.
  FrameAssembler assembler;
  std::vector<uint8_t> stream;
  for (const Frame& frame : frames) {
    const std::vector<uint8_t> bytes = EncodedFrame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  std::vector<Frame> out;
  for (uint8_t byte : stream) {
    assembler.Feed(std::span(&byte, 1));
    for (;;) {
      auto next = assembler.Next();
      ASSERT_TRUE(next.ok()) << next.status();
      if (!next->has_value()) break;
      out.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(out.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(FrameTypeOf(out[i]), FrameTypeOf(frames[i]));
    EXPECT_EQ(EncodedFrame(out[i]), EncodedFrame(frames[i]))
        << "frame " << i << " re-encode differs";
  }
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(FrameCodecTest, EveryFrameTypeEncodesToItsPinnedBytes) {
  // Shards of one deployment may run different builds of the same wire
  // version, so the frame layout is pinned byte for byte: length prefix,
  // CRC, link sequence (a two-byte varint here), version, type and body.
  const std::vector<std::string> expected = {
      // data
      "3300000053282f58ac0204000402011109d20902000000010101000000000000"
      "0002000000000000000100666666666666e63f343333333333d33f",
      // hello
      "10000000265ae804ad020401000218887766554433221129",
      // mark
      "1200000063ebef2aae02040201010c0715000000000000d03f01",
      // query request
      "150000006d62e84baf0204030501040d53454c45435420617574686f72",
      // query response
      "43000000f0f554fbb002040463010003021c706565723d3020656e746974793d"
      "312076616c7565733d4465666f651c706565723d3220656e746974793d312076"
      "616c7565733d4465666f65",
      // link ack
      "0e0000006471a5aab10204050188776655443322112a",
      // rejoin
      "1f000000078c7760b202040601efcdab8967452301ac020f3132372e302e302e"
      "313a3430313233",
      // rejoin ack
      "1b000000ad59289ab302040700ac020012637574206e6f206c6f6e6765722068"
      "656c64"};
  const std::vector<Frame> frames = OneFrameOfEachType();
  ASSERT_EQ(frames.size(), expected.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    std::vector<uint8_t> bytes;
    EncodeFrame(frames[i], /*link_seq=*/300 + i, &bytes);
    EXPECT_EQ(Hex(bytes), expected[i]) << "frame type " << i;
  }
}

/// Recomputes a framed buffer's CRC32 after the test mutated the body —
/// so the mutation surfaces as the targeted decode error, not DataLoss.
void PatchCrc(std::vector<uint8_t>* bytes) {
  const uint32_t crc = Crc32(std::span<const uint8_t>(
      bytes->data() + kFrameHeaderBytes, bytes->size() - kFrameHeaderBytes));
  for (int i = 0; i < 4; ++i) {
    (*bytes)[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

TEST(FrameCodecTest, Crc32MatchesTheBitwiseDefinitionAtEveryLengthAndOffset) {
  // The standard CRC-32 check value, then every start offset and length
  // around the eight-byte stride against the bit-at-a-time definition.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check), 0xcbf43926u);
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; offset + length <= data.size(); ++length) {
      uint32_t crc = 0xffffffffu;
      for (size_t i = offset; i < offset + length; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit) {
          crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
        }
      }
      EXPECT_EQ(Crc32(std::span<const uint8_t>(data).subspan(offset, length)),
                crc ^ 0xffffffffu)
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(FrameCodecTest, RejectsOversizedAndUndersizedLengthPrefixes) {
  FrameAssembler oversized;
  const std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0xff,
                                     0x00, 0x00, 0x00, 0x00};
  oversized.Feed(huge);
  EXPECT_EQ(oversized.Next().status().code(), StatusCode::kOutOfRange);

  // Length 1 cannot even hold the seq varint + version + type.
  FrameAssembler undersized;
  const std::vector<uint8_t> tiny = {0x01, 0x00, 0x00, 0x00,
                                     0x00, 0x00, 0x00, 0x00, 0x00};
  undersized.Feed(tiny);
  EXPECT_EQ(undersized.Next().status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, RejectsVersionMismatchAndUnknownType) {
  // The checksummed region starts with the (single-byte, seq-0) link
  // sequence varint; version and type follow it.
  std::vector<uint8_t> bytes = EncodedFrame(Frame{HelloFrame{0, 1, 4}});
  bytes[kFrameHeaderBytes + 1] = kWireFormatVersion + 1;
  PatchCrc(&bytes);
  FrameAssembler wrong_version;
  wrong_version.Feed(bytes);
  EXPECT_EQ(wrong_version.Next().status().code(),
            StatusCode::kFailedPrecondition);

  bytes = EncodedFrame(Frame{HelloFrame{0, 1, 4}});
  bytes[kFrameHeaderBytes + 2] = 0x77;  // frame type
  PatchCrc(&bytes);
  FrameAssembler unknown_type;
  unknown_type.Feed(bytes);
  EXPECT_EQ(unknown_type.Next().status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, FlagsChecksumMismatchAsDataLoss) {
  std::vector<uint8_t> bytes = EncodedFrame(Frame{HelloFrame{0, 1, 4}});
  bytes.back() ^= 0x40;  // corrupt the body without touching the framing
  FrameAssembler assembler;
  assembler.Feed(bytes);
  EXPECT_EQ(assembler.Next().status().code(), StatusCode::kDataLoss);
}

TEST(FrameCodecTest, ReportsTheLinkSequenceOfEveryDeliveredFrame) {
  MarkFrame mark;
  mark.shard = 1;
  std::vector<uint8_t> stream;
  EncodeFrame(Frame{HelloFrame{3, 4, 9, 77, 12}}, 0, &stream);
  EncodeFrame(Frame{mark}, 12, &stream);
  EncodeFrame(Frame{mark}, 300, &stream);  // multi-byte varint
  FrameAssembler assembler;
  assembler.Feed(stream);
  const uint64_t expected[] = {0, 12, 300};
  for (uint64_t seq : expected) {
    auto next = assembler.Next();
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_TRUE(next->has_value());
    EXPECT_EQ(assembler.last_seq(), seq);
  }
}

TEST(FrameCodecTest, DataFramePayloadConsumesTheBodyExactly) {
  DataFrame data;
  data.from = 0;
  data.to = 1;
  data.deliver_at = 2;
  data.seq = 3;
  data.payload = MakeRichProbe();
  std::vector<uint8_t> bytes = EncodedFrame(Frame{data});
  // One extra payload byte inside the framed body must be flagged by the
  // payload decoder, not silently ignored.
  bytes.push_back(0x00);
  bytes[0] += 1;  // patch the length prefix to cover the extra byte
  FrameAssembler assembler;
  assembler.Feed(bytes);
  EXPECT_FALSE(assembler.Next().ok());
}

// --- Mail bitmap -----------------------------------------------------------------

/// Randomized sends, ticks and (possibly partial) drains against a model of
/// every mailbox's length: after each step, `NextPeerWithMail(from)` must
/// equal a brute-force scan for the first non-empty mailbox >= from, for
/// every `from`. 150 peers span three bitmap words, so word boundaries and
/// the tail word are both exercised.
void ExpectBitmapMatchesMailboxes(SimTransport& transport, uint64_t seed) {
  const size_t peers = transport.peer_count();
  std::vector<size_t> queued(peers, 0);
  const auto check = [&](size_t step) {
    for (size_t from = 0; from <= peers; ++from) {
      size_t expected = from;
      while (expected < peers && queued[expected] == 0) ++expected;
      ASSERT_EQ(transport.NextPeerWithMail(static_cast<PeerId>(from)),
                expected)
          << "from " << from << " at step " << step;
    }
    size_t total = 0;
    for (size_t n : queued) total += n;
    ASSERT_EQ(transport.HasPendingMessages(), total > 0) << "step " << step;
  };
  Rng rng(seed);
  std::vector<Envelope> due;
  check(0);
  for (size_t step = 1; step <= 3000; ++step) {
    const uint64_t action = rng.NextBounded(10);
    if (action < 5) {
      // Bursts into a few hot peers keep several mailboxes busy at once.
      const auto to = static_cast<PeerId>(
          rng.Bernoulli(0.5) ? rng.Index(4) * 63 % peers : rng.Index(peers));
      transport.Send(static_cast<PeerId>(rng.Index(peers)), to, std::nullopt,
                     MakeBelief());
      ++queued[to];
    } else if (action < 9) {
      const auto peer = static_cast<PeerId>(rng.Index(peers));
      if (rng.Bernoulli(0.5)) {
        transport.DrainInto(peer, &due);
      } else {
        due = transport.Drain(peer);
      }
      ASSERT_LE(due.size(), queued[peer]);
      queued[peer] -= due.size();
    } else {
      transport.AdvanceTick();
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Quiesce: everything becomes due and drains; the bitmap ends empty.
  for (int tick = 0; tick < 4; ++tick) transport.AdvanceTick();
  for (PeerId p = 0; p < peers; ++p) {
    queued[p] -= transport.Drain(p).size();
    ASSERT_EQ(queued[p], 0u) << "peer " << p;
  }
  check(0);
  EXPECT_EQ(transport.NextPeerWithMail(0), peers);
}

TEST(MailBitmapTest, SimTransportBitmapNeverSkipsMail) {
  for (const uint64_t delay : {0, 1, 3}) {
    SCOPED_TRACE(delay);
    NetworkOptions options;
    options.delay_ticks = delay;
    SimTransport transport(150, options);
    ExpectBitmapMatchesMailboxes(transport, 40 + delay);
  }
}

TEST(MailBitmapTest, LossyDropsNeverSetABit) {
  // A dropped message never reaches a mailbox, so it must not mark one.
  FaultPlan drop_all;
  drop_all.drop_rate = 1.0;
  FaultInjectingTransport transport = LossyTransport(70, drop_all);
  for (PeerId p = 0; p < 70; ++p) transport.Send(0, p, std::nullopt, MakeBelief());
  EXPECT_EQ(transport.NextPeerWithMail(0), 70u);
  EXPECT_FALSE(transport.HasPendingMessages());
}

}  // namespace
}  // namespace pdms
