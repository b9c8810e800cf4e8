// Tests for the public API layer (pdms/): builder validation, the
// Transport conformance contract shared by SimTransport (at delay 1 and
// delay 0) and SocketTransport, transport-equivalence of inference
// results and of query reports, query dedup, the session observer hook,
// the steady-state wire gate, and the Result<T> utilities it leans on.

#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "graph/topology.h"
#include "net/codec.h"
#include "net/fault_injection.h"
#include "net/socket_transport.h"
#include "pdms/pdms.h"
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

SchemaMapping Identity(const std::string& name, size_t attrs = kAttrs) {
  SchemaMapping mapping(name, attrs);
  for (AttributeId a = 0; a < attrs; ++a) {
    EXPECT_TRUE(mapping.Set(a, a).ok());
  }
  return mapping;
}

/// The intro example (Figure 4) through the public builder; m24 (EdgeId 4)
/// garbles attribute 0.
PdmsBuilder IntroBuilder(EngineOptions options, uint64_t seed = 17) {
  Rng rng(seed);
  options.probe_ttl = 5;
  PdmsBuilder builder;
  builder.WithOptions(options);
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
  return builder;
}

// --- Builder validation -------------------------------------------------------

TEST(BuilderValidationTest, EmptyNetworkIsRejected) {
  Result<Pdms> built = PdmsBuilder().Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BuilderValidationTest, DuplicateEdgeIsRejected) {
  PdmsBuilder builder;
  builder.AddPeer(MakeSchema("a")).AddPeer(MakeSchema("b"));
  builder.AddMapping(0, 1, Identity("m0"));
  builder.AddMapping(0, 1, Identity("m0_again"));
  Result<Pdms> built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(built.status().message().find("m0_again"), std::string::npos);
}

TEST(BuilderValidationTest, OutOfRangePeerIsRejected) {
  PdmsBuilder builder;
  builder.AddPeer(MakeSchema("a")).AddPeer(MakeSchema("b"));
  builder.AddMapping(0, 7, Identity("m_oor"));
  Result<Pdms> built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(built.status().message().find("m_oor"), std::string::npos);
}

TEST(BuilderValidationTest, SelfLoopIsRejected) {
  PdmsBuilder builder;
  builder.AddPeer(MakeSchema("a")).AddPeer(MakeSchema("b"));
  builder.AddMapping(1, 1, Identity("m_self"));
  Result<Pdms> built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuilderValidationTest, MappingArityMismatchIsRejected) {
  PdmsBuilder builder;
  builder.AddPeer(MakeSchema("a", 11)).AddPeer(MakeSchema("b", 11));
  builder.AddMapping(0, 1, Identity("m_small", 7));  // 7 != 11
  Result<Pdms> built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("m_small"), std::string::npos);
}

TEST(BuilderValidationTest, MappingTargetOutOfSchemaIsRejected) {
  PdmsBuilder builder;
  builder.AddPeer(MakeSchema("a", 4)).AddPeer(MakeSchema("b", 3));
  SchemaMapping mapping("m_target", 4);
  ASSERT_TRUE(mapping.Set(0, 0).ok());
  ASSERT_TRUE(mapping.Set(1, 2).ok());
  ASSERT_TRUE(mapping.Set(2, 3).ok());  // target schema has only 3 attrs
  Result<Pdms> built =
      PdmsBuilder().AddPeer(MakeSchema("a", 4)).AddPeer(MakeSchema("b", 3))
          .AddMapping(0, 1, mapping).Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("m_target"), std::string::npos);
}

TEST(BuilderValidationTest, NullTransportFactoryIsRejected) {
  PdmsBuilder builder;
  builder.AddPeer(MakeSchema("a")).AddPeer(MakeSchema("b"));
  builder.AddMapping(0, 1, Identity("m0"));
  builder.WithTransport([](size_t, const EngineOptions&) {
    return std::unique_ptr<Transport>();
  });
  Result<Pdms> built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuilderValidationTest, HappyPathAssignsSequentialIds) {
  Result<Pdms> built = IntroBuilder(EngineOptions{}).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Pdms pdms = std::move(built).value();
  EXPECT_TRUE(pdms.valid());
  EXPECT_EQ(pdms.peer_count(), 4u);
  EXPECT_EQ(pdms.graph().edge_count(), 5u);
  // AddMapping order is EdgeId order: edge 4 is p2 -> p4.
  EXPECT_EQ(pdms.graph().edge(4).src, 1u);
  EXPECT_EQ(pdms.graph().edge(4).dst, 3u);
  EXPECT_EQ(pdms.peer(1).schema().name(), "p2");
}

TEST(BuilderValidationTest, FromSyntheticRejectsGraphsWithRemovedEdges) {
  Rng rng(3);
  Digraph graph = topology::BarabasiAlbert(8, 2, &rng);
  MappingNetworkOptions network_options;
  network_options.attributes_per_schema = 6;
  SyntheticPdms synthetic = BuildSyntheticPdms(graph, network_options, &rng);
  ASSERT_TRUE(synthetic.graph.RemoveEdge(0).ok());  // tombstone a live edge
  Result<Pdms> built = PdmsBuilder::FromSynthetic(synthetic).Build();
  ASSERT_FALSE(built.ok());
  // Sequential AddMapping cannot reproduce the original edge ids once a
  // hole exists; silently renumbering would misattribute posteriors.
  EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BuilderValidationTest, FromSyntheticPreservesEdgeIds) {
  Rng rng(3);
  const Digraph graph = topology::BarabasiAlbert(12, 2, &rng);
  MappingNetworkOptions network_options;
  network_options.attributes_per_schema = 6;
  const SyntheticPdms synthetic =
      BuildSyntheticPdms(graph, network_options, &rng);
  Result<Pdms> built = PdmsBuilder::FromSynthetic(synthetic).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  for (EdgeId e : graph.LiveEdges()) {
    EXPECT_EQ(built->graph().edge(e).src, graph.edge(e).src) << "edge " << e;
    EXPECT_EQ(built->graph().edge(e).dst, graph.edge(e).dst) << "edge " << e;
  }
}

// --- Transport conformance ----------------------------------------------------

using TransportFactory = std::function<std::unique_ptr<Transport>(size_t)>;

struct TransportCase {
  const char* label;
  TransportFactory make;
};

class TransportConformanceTest
    : public ::testing::TestWithParam<TransportCase> {};

BeliefMessage MakeBelief(double p) {
  BeliefMessage message;
  message.AddGroup(0, FactorId{0x1, 0x2},
                   {BeliefEntry{0, Belief::FromProbability(p)}});
  return message;
}

/// Ticks until `peer` receives something or `limit` ticks pass.
std::vector<Envelope> DrainWithin(Transport& transport, PeerId peer,
                                  int limit = 8) {
  for (int tick = 0; tick <= limit; ++tick) {
    std::vector<Envelope> due = transport.Drain(peer);
    if (!due.empty()) return due;
    transport.AdvanceTick();
  }
  return {};
}

TEST_P(TransportConformanceTest, DeliversToTheRightPeerIntact) {
  auto transport = GetParam().make(3);
  EXPECT_EQ(transport->peer_count(), 3u);
  EXPECT_FALSE(transport->name().empty());
  transport->Send(0, 1, EdgeId{2}, MakeBelief(0.7));
  EXPECT_TRUE(transport->HasPendingMessages());
  EXPECT_TRUE(transport->Drain(2).empty());  // wrong peer gets nothing

  const std::vector<Envelope> due = DrainWithin(*transport, 1);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].from, 0u);
  EXPECT_EQ(due[0].to, 1u);
  ASSERT_TRUE(due[0].via.has_value());
  EXPECT_EQ(*due[0].via, 2u);
  const auto* belief = std::get_if<BeliefMessage>(&due[0].payload);
  ASSERT_NE(belief, nullptr);
  ASSERT_EQ(belief->update_count(), 1u);
  EXPECT_NEAR(belief->entries[0].belief.ProbabilityCorrect(), 0.7, 1e-12);
  EXPECT_FALSE(transport->HasPendingMessages());
}

TEST_P(TransportConformanceTest, PreservesSendOrderPerPeer) {
  auto transport = GetParam().make(2);
  for (int i = 0; i < 5; ++i) {
    ProbeMessage probe;
    probe.origin = static_cast<PeerId>(i);
    transport->Send(0, 1, std::nullopt, probe);
  }
  const std::vector<Envelope> due = DrainWithin(*transport, 1);
  ASSERT_EQ(due.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(std::get<ProbeMessage>(due[i].payload).origin,
              static_cast<PeerId>(i));
  }
}

TEST_P(TransportConformanceTest, CountsSentAndDelivered) {
  auto transport = GetParam().make(2);
  transport->Send(0, 1, std::nullopt, MakeBelief(0.5));
  transport->Send(0, 1, std::nullopt, ProbeMessage{});
  const size_t belief = static_cast<size_t>(MessageKind::kBelief);
  const size_t probe = static_cast<size_t>(MessageKind::kProbe);
  EXPECT_EQ(transport->stats().sent[belief], 1u);
  EXPECT_EQ(transport->stats().sent[probe], 1u);
  EXPECT_EQ(transport->stats().TotalSent(), 2u);
  (void)DrainWithin(*transport, 1);
  EXPECT_EQ(transport->stats().delivered[belief] +
                transport->stats().dropped[belief],
            1u);
  transport->ResetStats();
  EXPECT_EQ(transport->stats().TotalSent(), 0u);
}

TEST_P(TransportConformanceTest, TicksOnlyMoveForward) {
  auto transport = GetParam().make(2);
  const uint64_t start = transport->now();
  transport->AdvanceTick();
  transport->AdvanceTick();
  EXPECT_EQ(transport->now(), start + 2);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, TransportConformanceTest,
    ::testing::Values(
        TransportCase{"sim",
                      [](size_t peers) -> std::unique_ptr<Transport> {
                        return std::make_unique<SimTransport>(
                            peers, NetworkOptions{});
                      }},
        TransportCase{"instant",
                      [](size_t peers) -> std::unique_ptr<Transport> {
                        return std::make_unique<SimTransport>(
                            peers, NetworkOptions{.delay_ticks = 0});
                      }},
        TransportCase{"socket",
                      [](size_t peers) -> std::unique_ptr<Transport> {
                        auto transport =
                            SocketTransport::CreateLoopback(peers);
                        EXPECT_NE(transport, nullptr);
                        return transport;
                      }}),
    [](const ::testing::TestParamInfo<TransportCase>& info) {
      return std::string(info.param.label);
    });

// --- Transport equivalence ----------------------------------------------------

TEST(TransportEquivalenceTest, InstantMatchesLosslessSimPosteriors) {
  // End-to-end: discovery + convergence under the zero-delay transport
  // must land on the same fixed point as the lossless discrete-tick
  // simulator — the timing of message delivery cannot move the result.
  EngineOptions options;
  options.tolerance = 1e-12;

  Pdms sim = IntroBuilder(options).Build().value();
  sim.session().Discover();
  ASSERT_TRUE(sim.session().Converge(2000).converged);

  Pdms instant =
      IntroBuilder(options).WithInstantTransport().Build().value();
  EXPECT_EQ(instant.transport().name(), "instant");
  instant.session().Discover();
  ASSERT_TRUE(instant.session().Converge(2000).converged);

  EXPECT_EQ(instant.UniqueFactorCount(), sim.UniqueFactorCount());
  for (EdgeId e : sim.graph().LiveEdges()) {
    for (AttributeId a = 0; a < kAttrs; ++a) {
      EXPECT_NEAR(instant.Posterior(e, a), sim.Posterior(e, a), 1e-9)
          << "edge " << e << " attr " << a;
    }
  }
}

TEST(TransportEquivalenceTest, InstantNeedsNoTickPerHopForQueries) {
  // Same query results, and the instant transport's whole query exchange
  // finishes without waiting a tick per hop.
  EngineOptions options;
  Pdms instant =
      IntroBuilder(options).WithInstantTransport().Build().value();
  for (PeerId p = 0; p < instant.peer_count(); ++p) {
    instant.peer(p).store().Insert(1, {{0, "Robinson"}, {1, "river"}});
  }
  instant.session().Discover();
  instant.session().Converge(200);
  Query query("q1");
  query.AddProjection(0);
  query.AddSelection(1, "river");
  const QueryReport report = instant.session().Query(1, query, 3);
  EXPECT_EQ(report.reached.size(), 4u);
  EXPECT_EQ(report.rows.size(), 4u);
}

// --- Parallel round execution ---------------------------------------------------

/// Discovery + convergence on a symmetrized scale-free synthetic network,
/// returning every (edge, attribute) posterior. `parallelism` must not
/// change the result: peers only touch their own state during a round and
/// the engine issues transport sends in canonical peer order, so even a
/// fault layer dropping `drop_rate` of the belief envelopes (armed after
/// discovery) draws the same drop sequence.
std::vector<double> ConvergedPosteriorsOn(
    size_t parallelism, double drop_rate,
    PdmsBuilder::TransportFactory transport_factory,
    double value_budget = 0.0,
    const std::function<void(PdmsBuilder&)>& customize = nullptr) {
  constexpr size_t kNetAttrs = 6;
  Rng rng(123);
  Digraph graph = topology::BarabasiAlbert(24, 2, &rng);
  topology::Symmetrize(&graph);
  MappingNetworkOptions network_options;
  network_options.attributes_per_schema = kNetAttrs;
  const SyntheticPdms synthetic =
      BuildSyntheticPdms(graph, network_options, &rng);

  EngineOptions options;
  options.probe_ttl = 3;
  options.closure_limits.min_cycle_length = 2;
  options.closure_limits.max_cycle_length = 3;
  options.parallelism = parallelism;
  // 24 peers would fall below the fan-out threshold and silently run
  // inline — force the pool so this test keeps exercising the actual
  // parallel round path (and TSan keeps seeing it).
  options.min_peers_per_lane = 1;
  PdmsBuilder builder = PdmsBuilder::FromSynthetic(synthetic);
  builder.WithOptions(options).WithValueErrorBudget(value_budget);
  FaultInjectingTransport* faults = nullptr;
  if (drop_rate > 0.0) {
    builder.WithTransport([&faults](size_t peers,
                                    const EngineOptions& engine_options) {
      auto transport = std::make_unique<FaultInjectingTransport>(
          std::make_unique<SimTransport>(peers, engine_options.network),
          FaultPlan{});
      faults = transport.get();
      return transport;
    });
  }
  if (transport_factory) builder.WithTransport(std::move(transport_factory));
  if (customize) customize(builder);
  Pdms pdms = builder.Build().value();
  EXPECT_GT(pdms.session().Discover(), 0u);
  if (faults != nullptr) {
    FaultPlan plan;
    plan.seed = 7;
    plan.drop_rate = drop_rate;
    faults->set_plan(plan);
  }
  pdms.session().Converge(60);

  std::vector<double> posteriors;
  for (EdgeId e : pdms.graph().LiveEdges()) {
    for (AttributeId a = 0; a < kNetAttrs; ++a) {
      posteriors.push_back(pdms.Posterior(e, a));
    }
  }
  return posteriors;
}

std::vector<double> ConvergedPosteriors(size_t parallelism, double drop_rate) {
  return ConvergedPosteriorsOn(parallelism, drop_rate, nullptr);
}

TEST(ParallelDeterminismTest, ParallelPosteriorsMatchSerialBitwise) {
  // Bitwise, not approximate: peers only touch their own state during a
  // round and sends are issued in canonical order, so the alias-grouped
  // encoding must produce value-identical posteriors at every parallelism
  // level — including under lossy transport, where the drop draws depend
  // only on the (canonical) send sequence.
  for (const double drop_rate : {0.0, 0.4}) {
    const std::vector<double> serial = ConvergedPosteriors(1, drop_rate);
    ASSERT_FALSE(serial.empty());
    for (const size_t parallelism : {2, 4, 8}) {
      const std::vector<double> parallel =
          ConvergedPosteriors(parallelism, drop_rate);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(parallel[i], serial[i])
            << "posterior " << i << " at parallelism " << parallelism
            << ", drop rate " << drop_rate;
      }
    }
  }
}

TEST(TransportEquivalenceTest, SocketMatchesSimPosteriorsBitwise) {
  // The socket loopback transport routes every envelope through a real
  // framed TCP self-connection: encode, kernel, decode, deterministic
  // (deliver_at, from, seq) drain order. Against the lossless simulator
  // the posteriors must come back bitwise-identical at every parallelism
  // level — any codec round-trip wobble or delivery reordering shows up
  // here as a hard failure.
  const std::vector<double> reference = ConvergedPosteriors(1, 0.0);
  ASSERT_FALSE(reference.empty());
  for (const size_t parallelism : {1, 2, 4, 8}) {
    const std::vector<double> socket = ConvergedPosteriorsOn(
        parallelism, 0.0,
        [](size_t peers, const EngineOptions&) -> std::unique_ptr<Transport> {
          return SocketTransport::CreateLoopback(peers);
        });
    ASSERT_EQ(socket.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(socket[i], reference[i])
          << "posterior " << i << " over sockets at parallelism "
          << parallelism;
    }
  }
}

TEST(ParallelDeterminismTest, BuilderParallelismKnobIsAppliedAtBuildTime) {
  EngineOptions options;
  Pdms pdms = IntroBuilder(options).WithParallelism(4).Build().value();
  EXPECT_EQ(pdms.options().parallelism, 4u);
  // Order with WithOptions must not matter.
  PdmsBuilder builder = IntroBuilder(options);
  builder.WithParallelism(2).WithOptions(options);
  Pdms reordered = builder.Build().value();
  EXPECT_EQ(reordered.options().parallelism, 2u);
}

TEST(BuilderValidationTest, NegativeValueErrorBudgetIsRejected) {
  EngineOptions options;
  const Result<Pdms> built =
      IntroBuilder(options).WithValueErrorBudget(-0.5).Build();
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(QuantizedValueTest, QuantizedRunsAreParallelDeterministicToo) {
  // The precision ratchet is per-link peer-local state updated inside
  // ComputeRound, so quantized runs keep the bitwise parallel-determinism
  // guarantee — including under loss, where the coarse early bundles are
  // exactly what gets dropped.
  for (const double drop_rate : {0.0, 0.4}) {
    const std::vector<double> serial =
        ConvergedPosteriorsOn(1, drop_rate, nullptr, 1e-3);
    ASSERT_FALSE(serial.empty());
    for (const size_t parallelism : {2, 8}) {
      const std::vector<double> parallel =
          ConvergedPosteriorsOn(parallelism, drop_rate, nullptr, 1e-3);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(parallel[i], serial[i])
            << "posterior " << i << " at parallelism " << parallelism
            << ", drop rate " << drop_rate;
      }
    }
  }
}

TEST(QuantizedValueTest, ConvergedPosteriorsStayWithinTheErrorBudget) {
  // The whole point of the explicit budget: against the exact raw-double
  // run, every converged posterior of the quantized run is within eps.
  constexpr double kBudget = 1e-3;
  const std::vector<double> exact = ConvergedPosteriorsOn(1, 0.0, nullptr);
  const std::vector<double> quantized =
      ConvergedPosteriorsOn(1, 0.0, nullptr, kBudget);
  ASSERT_EQ(quantized.size(), exact.size());
  double worst = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    worst = std::max(worst, std::abs(quantized[i] - exact[i]));
  }
  EXPECT_LE(worst, kBudget);
}

// --- Byzantine resilience -----------------------------------------------------

TEST(BuilderValidationTest, MalformedByzantineGuardIsRejected) {
  auto build_with = [](ByzantineGuardOptions guard) {
    return IntroBuilder(EngineOptions{}).WithByzantineGuard(guard).Build();
  };
  ByzantineGuardOptions guard;
  for (const double threshold :
       {0.0, -1.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    guard.demote_threshold = threshold;
    EXPECT_EQ(build_with(guard).status().code(), StatusCode::kInvalidArgument)
        << threshold;
  }
  // The defaults themselves must build.
  guard = ByzantineGuardOptions{};
  guard.enabled = true;
  EXPECT_TRUE(build_with(guard).ok());
}

TEST(BuilderValidationTest, ByzantinePlanValidatesRatesAndAdversaryRange) {
  ByzantinePlan plan;
  plan.adversaries = {0};
  plan.lie_probability = 1.5;
  EXPECT_EQ(IntroBuilder(EngineOptions{})
                .WithByzantinePlan(plan)
                .Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  plan.lie_probability = 0.5;
  plan.adversaries = {99};  // the intro network has 4 peers
  EXPECT_EQ(IntroBuilder(EngineOptions{})
                .WithByzantinePlan(plan)
                .Build()
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // An unsorted, duplicated list is canonicalized, not rejected —
  // IsAdversary binary searches, so order matters downstream.
  plan.adversaries = {2, 0, 2};
  Pdms pdms =
      IntroBuilder(EngineOptions{}).WithByzantinePlan(plan).Build().value();
  EXPECT_EQ(pdms.options().byzantine.adversaries,
            (std::vector<PeerId>{0, 2}));
}

TEST(ByzantineGuardTest, GuardedAdversarialRunsAreParallelDeterministic) {
  // The guard's decisions are pure functions of peer-local slot history
  // and the chaos draws key on (seed, round, factor, position) — neither
  // depends on worker scheduling, so a guarded run under active
  // adversaries stays bitwise parallel-deterministic, lossy wire included.
  const auto arm = [](PdmsBuilder& builder) {
    ByzantineGuardOptions guard;
    guard.enabled = true;
    ByzantinePlan plan;
    plan.seed = 41;
    plan.lie_probability = 0.3;
    plan.invert_values = true;
    plan.equivocate_rate = 0.1;
    plan.adversaries = {1, 5};
    builder.WithByzantineGuard(guard).WithByzantinePlan(plan);
  };
  for (const double drop_rate : {0.0, 0.4}) {
    const std::vector<double> serial =
        ConvergedPosteriorsOn(1, drop_rate, nullptr, 0.0, arm);
    ASSERT_FALSE(serial.empty());
    for (const size_t parallelism : {2, 4}) {
      const std::vector<double> parallel =
          ConvergedPosteriorsOn(parallelism, drop_rate, nullptr, 0.0,
                                arm);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(parallel[i], serial[i])
            << "posterior " << i << " at parallelism " << parallelism
            << ", drop rate " << drop_rate;
      }
    }
  }
}

TEST(ByzantineGuardTest, ColludingNeighborsAreBothDemoted) {
  // Two colluding adversaries forge the SAME values toward every shared
  // honest neighbor — mutual corroboration that would defeat naive
  // single-link outlier checks. The guard still demotes both: admission
  // violations, equivocation and flip detection are per-link, and the
  // influence-outlier median only trusts clean links.
  constexpr size_t kNetAttrs = 6;
  Rng rng(123);
  Digraph graph = topology::BarabasiAlbert(24, 2, &rng);
  topology::Symmetrize(&graph);
  MappingNetworkOptions network_options;
  network_options.attributes_per_schema = kNetAttrs;
  const SyntheticPdms synthetic =
      BuildSyntheticPdms(graph, network_options, &rng);
  EngineOptions options;
  options.probe_ttl = 3;
  options.closure_limits.min_cycle_length = 2;
  options.closure_limits.max_cycle_length = 3;
  ByzantineGuardOptions guard;
  guard.enabled = true;
  ByzantinePlan plan;
  plan.seed = 9;
  plan.lie_probability = 0.6;
  plan.invert_values = true;
  plan.equivocate_rate = 0.3;
  plan.collude = true;
  plan.adversaries = {1, 2};  // early BA nodes: well-connected hubs
  PdmsBuilder builder = PdmsBuilder::FromSynthetic(synthetic);
  builder.WithOptions(options)
      .WithByzantineGuard(guard)
      .WithByzantinePlan(plan);
  Pdms pdms = builder.Build().value();
  ASSERT_GT(pdms.session().Discover(), 0u);
  pdms.session().Converge(60);

  bool adversary1_demoted = false;
  bool adversary2_demoted = false;
  size_t honest_links = 0;
  size_t honest_demoted = 0;
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    if (plan.IsAdversary(p)) continue;  // only honest receivers' verdicts
    for (const Peer::GuardLinkView& view : pdms.engine().peer(p).GuardViews()) {
      if (view.peer == 1) {
        adversary1_demoted = adversary1_demoted || view.state.demote_level >= 1;
      } else if (view.peer == 2) {
        adversary2_demoted = adversary2_demoted || view.state.demote_level >= 1;
      } else {
        ++honest_links;
        if (view.state.demote_level >= 1) ++honest_demoted;
      }
    }
  }
  EXPECT_TRUE(adversary1_demoted);
  EXPECT_TRUE(adversary2_demoted);
  EXPECT_GT(pdms.engine().GuardRejectedBeliefs(), 0u);
  // Collateral damage stays bounded: honest peers downstream of the liars
  // legitimately oscillate secondhand until demotion cuts the poison off,
  // but demotions must concentrate on the adversaries' own links.
  ASSERT_GT(honest_links, 0u);
  EXPECT_LT(honest_demoted * 10, honest_links)
      << honest_demoted << " of " << honest_links
      << " honest links demoted";

  // The identical guarded network with no adversaries is a clean run:
  // zero rejections, zero demotions — no false positives.
  PdmsBuilder clean_builder = PdmsBuilder::FromSynthetic(synthetic);
  clean_builder.WithOptions(options).WithByzantineGuard(guard);
  Pdms clean = clean_builder.Build().value();
  ASSERT_GT(clean.session().Discover(), 0u);
  clean.session().Converge(60);
  EXPECT_EQ(clean.engine().GuardRejectedBeliefs(), 0u);
  EXPECT_EQ(clean.engine().GuardDemotedLinks(), 0u);
}

TEST(ByzantineGuardTest, GuardOffRunsIgnoreThePlanKnobsBitwise) {
  // With the guard disabled and no plan armed, setting the (default,
  // disabled) knobs explicitly must not perturb posteriors at all.
  const std::vector<double> baseline = ConvergedPosteriors(1, 0.0);
  const std::vector<double> with_knobs = ConvergedPosteriorsOn(
      1, 0.0, nullptr, 0.0, [](PdmsBuilder& builder) {
        builder.WithByzantineGuard(ByzantineGuardOptions{})
            .WithByzantinePlan(ByzantinePlan{});
      });
  ASSERT_EQ(with_knobs.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(with_knobs[i], baseline[i]) << "posterior " << i;
  }
}

// --- Session observers --------------------------------------------------------

class CountingObserver final : public RoundObserver {
 public:
  void OnRound(size_t round, const RoundReport& report,
               const Session& session) override {
    ++calls;
    last_round = round;
    last_change = report.max_posterior_change;
    last_m24 = session.Posterior(4, 0);
  }
  size_t calls = 0;
  size_t last_round = 0;
  double last_change = -1.0;
  double last_m24 = -1.0;
};

TEST(SessionObserverTest, FiresOncePerRoundAcrossStepAndConverge) {
  Pdms pdms = IntroBuilder(EngineOptions{}).Build().value();
  Session& session = pdms.session();
  session.Discover();
  CountingObserver observer;
  session.AddObserver(&observer);
  session.Step();
  EXPECT_EQ(observer.calls, 1u);
  EXPECT_EQ(observer.last_round, 1u);
  const ConvergenceReport report = session.Converge(100);
  EXPECT_EQ(observer.calls, 1u + report.rounds);
  EXPECT_EQ(observer.last_round, session.rounds());
  EXPECT_GE(observer.last_change, 0.0);
  EXPECT_LT(observer.last_m24, 0.45);  // sees through the session surface
}

class SelfRemovingObserver final : public RoundObserver {
 public:
  explicit SelfRemovingObserver(Session* session) : session_(session) {}
  void OnRound(size_t, const RoundReport&, const Session&) override {
    ++calls;
    session_->RemoveObserver(this);  // mutates the list mid-notification
  }
  Session* session_;
  size_t calls = 0;
};

TEST(SessionObserverTest, ObserverMayRemoveItselfDuringNotification) {
  Pdms pdms = IntroBuilder(EngineOptions{}).Build().value();
  Session& session = pdms.session();
  session.Discover();
  SelfRemovingObserver first(&session);
  CountingObserver second;
  session.AddObserver(&first);
  session.AddObserver(&second);
  const ConvergenceReport report = session.Converge(20);
  ASSERT_GT(report.rounds, 1u);
  EXPECT_EQ(first.calls, 1u);              // removal took effect next round
  EXPECT_EQ(second.calls, report.rounds);  // later observers still notified
}

TEST(SessionObserverTest, IndependentSessionsHaveIndependentObservers) {
  Pdms pdms = IntroBuilder(EngineOptions{}).Build().value();
  pdms.session().Discover();
  Session other = pdms.NewSession();
  CountingObserver on_default;
  CountingObserver on_other;
  pdms.session().AddObserver(&on_default);
  other.AddObserver(&on_other);
  pdms.session().Step();
  EXPECT_EQ(on_default.calls, 1u);
  EXPECT_EQ(on_other.calls, 0u);
  other.Step();
  EXPECT_EQ(on_default.calls, 1u);
  EXPECT_EQ(on_other.calls, 1u);
}

// --- Result<T> utilities ------------------------------------------------------

Result<std::string> EchoOrFail(bool fail) {
  if (fail) return Status::NotFound("no echo");
  return std::string("echo");
}

Status UsesAssignOrReturn(bool fail, std::string* out) {
  PDMS_ASSIGN_OR_RETURN(*out, EchoOrFail(fail));
  return Status::Ok();
}

Result<size_t> ChainsAssignOrReturn(bool fail) {
  PDMS_ASSIGN_OR_RETURN(const std::string echoed, EchoOrFail(fail));
  return echoed.size();
}

TEST(ResultTest, AssignOrReturnPropagatesAndAssigns) {
  std::string out;
  EXPECT_TRUE(UsesAssignOrReturn(false, &out).ok());
  EXPECT_EQ(out, "echo");
  const Status failed = UsesAssignOrReturn(true, &out);
  EXPECT_EQ(failed.code(), StatusCode::kNotFound);

  Result<size_t> chained = ChainsAssignOrReturn(false);
  ASSERT_TRUE(chained.ok());
  EXPECT_EQ(*chained, 4u);
  EXPECT_EQ(ChainsAssignOrReturn(true).status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueOrOnRvalueMovesOutTheValue) {
  auto make = [](bool fail) -> Result<std::unique_ptr<int>> {
    if (fail) return Status::Internal("boom");
    return std::make_unique<int>(41);
  };
  // move-only payloads work through the rvalue overload...
  std::unique_ptr<int> value = make(false).value_or(nullptr);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 41);
  // ...and the fallback path of a failed result never touches the
  // disengaged optional.
  std::unique_ptr<int> fallback = make(true).value_or(std::make_unique<int>(7));
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(*fallback, 7);
}

TEST(ResultTest, CopyOfFailedResultStaysFailed) {
  const Result<std::string> failed = Status::Unavailable("down");
  const Result<std::string> copy = failed;  // must not touch the value slot
  EXPECT_FALSE(copy.ok());
  EXPECT_EQ(copy.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(copy.value_or("fallback"), "fallback");
}

// --- Query plane ------------------------------------------------------------------

TEST(QueryDedupTest, FinishedQueryIdsAreForgottenOnEveryPeer) {
  // Each peer dedups queries by id; once a query's traffic quiesces its id
  // can never arrive again, so no peer may keep it.
  Pdms pdms = IntroBuilder(EngineOptions{}).Build().value();
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    pdms.peer(p).store().Insert(1, {{0, "Robinson"}, {1, "river"}});
  }
  pdms.session().Discover();
  pdms.session().Converge(200);
  const uint64_t first_id = pdms.engine().CaptureImage().next_query_id;
  constexpr uint64_t kQueries = 1000;
  Rng rng(5);
  size_t visits = 0;
  for (uint64_t q = 0; q < kQueries; ++q) {
    Query query("q");
    query.AddProjection(static_cast<AttributeId>(rng.Index(kAttrs)));
    visits += pdms.session()
                  .Query(static_cast<PeerId>(rng.Index(pdms.peer_count())),
                         query, 3)
                  .reached.size();
  }
  EXPECT_GT(visits, kQueries);  // the queries did travel past their origin

  const PdmsEngine::EngineImage image = pdms.engine().CaptureImage();
  ASSERT_EQ(image.next_query_id, first_id + kQueries);
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    for (uint64_t id = first_id; id < image.next_query_id; ++id) {
      ASSERT_FALSE(pdms.peer(p).SawQuery(id)) << "peer " << p << " id " << id;
    }
  }
}

TEST(QueryDedupTest, BatchOverACycleReachesEachPeerAtMostOnce) {
  // The intro network has the cycle p1->p2->p3->p4->p1 and the chord
  // p2->p4, so a TTL-5 query reaches p4 along two routes. A concurrent
  // batch still processes every query at most once per peer.
  Pdms pdms = IntroBuilder(EngineOptions{}).Build().value();
  pdms.session().Discover();
  pdms.session().Converge(200);
  std::vector<QueryRequest> requests;
  for (int round = 0; round < 5; ++round) {
    for (PeerId origin = 0; origin < pdms.peer_count(); ++origin) {
      Query query("q");
      query.AddProjection(1);  // attribute 0 is garbled on the chord
      requests.push_back(QueryRequest{origin, query, 5});
    }
  }
  const uint64_t first_id = pdms.engine().CaptureImage().next_query_id;
  const std::vector<QueryReport> reports = pdms.session().QueryAll(requests);
  ASSERT_EQ(reports.size(), requests.size());
  uint64_t messages = 0;
  size_t visits = 0;
  for (const QueryReport& report : reports) {
    const std::set<PeerId> unique(report.reached.begin(), report.reached.end());
    EXPECT_EQ(unique.size(), report.reached.size());
    EXPECT_EQ(report.reached.size(), pdms.peer_count());
    messages += report.messages;
    visits += report.reached.size();
  }
  EXPECT_GT(messages, visits);  // some copies arrived twice and were dropped
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    for (uint64_t id = first_id; id < first_id + requests.size(); ++id) {
      EXPECT_FALSE(pdms.peer(p).SawQuery(id)) << "peer " << p << " id " << id;
    }
  }
}

/// Forwards everything to `inner` but keeps the `Transport` defaults for
/// `DrainInto` and `NextPeerWithMail`, so an engine over it drains every
/// peer on every tick — the reference the mail-indexed path must match.
class ScanAllTransport final : public Transport {
 public:
  explicit ScanAllTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return "scan-all"; }
  size_t peer_count() const override { return inner_->peer_count(); }
  uint64_t now() const override { return inner_->now(); }
  void AdvanceTick() override { inner_->AdvanceTick(); }
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override {
    inner_->Send(from, to, via, std::move(payload));
  }
  std::vector<Envelope> Drain(PeerId peer) override {
    return inner_->Drain(peer);
  }
  bool HasPendingMessages() const override {
    return inner_->HasPendingMessages();
  }
  const TransportStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  std::unique_ptr<Transport> inner_;
};

struct QueryStreamRun {
  std::vector<QueryReport> reports;
  std::vector<double> posteriors;
  uint64_t bytes_sent = 0;
};

/// 500 seeded two-attribute queries over a 150-peer scale-free network
/// (three bitmap words), with a Step every 50 of them; returns every
/// report and the final posteriors.
QueryStreamRun RunQueryStream(ScheduleKind schedule, bool instant,
                              bool scan_all) {
  constexpr size_t kNetAttrs = 6;
  Rng rng(321);
  Digraph graph = topology::BarabasiAlbert(150, 2, &rng);
  topology::Symmetrize(&graph);
  MappingNetworkOptions network_options;
  network_options.attributes_per_schema = kNetAttrs;
  const SyntheticPdms synthetic =
      BuildSyntheticPdms(graph, network_options, &rng);

  EngineOptions options;
  options.probe_ttl = 3;
  options.closure_limits.min_cycle_length = 2;
  options.closure_limits.max_cycle_length = 3;
  options.closure_limits.max_path_length = 1;
  options.schedule = schedule;
  PdmsBuilder builder = PdmsBuilder::FromSynthetic(synthetic);
  builder.WithOptions(options).WithTransport(
      [instant, scan_all](size_t peers, const EngineOptions& engine_options)
          -> std::unique_ptr<Transport> {
        std::unique_ptr<Transport> transport;
        if (instant) {
          transport = std::make_unique<SimTransport>(
              peers, NetworkOptions{.delay_ticks = 0});
        } else {
          transport =
              std::make_unique<SimTransport>(peers, engine_options.network);
        }
        if (scan_all) {
          transport = std::make_unique<ScanAllTransport>(std::move(transport));
        }
        return transport;
      });
  Pdms pdms = builder.Build().value();
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    for (AttributeId a = 0; a < kNetAttrs; ++a) {
      pdms.peer(p).store().Insert(p, {{a, StrFormat("p%u_a%u", p, a)}});
    }
  }
  EXPECT_GT(pdms.session().Discover(), 0u);
  if (schedule == ScheduleKind::kPeriodic) pdms.session().Converge(20);

  QueryStreamRun run;
  Rng stream(99);
  for (size_t q = 0; q < 500; ++q) {
    Query query("q");
    const auto first = static_cast<AttributeId>(stream.Index(kNetAttrs));
    query.AddProjection(first);
    query.AddProjection(static_cast<AttributeId>(
        (first + 1 + stream.Index(kNetAttrs - 1)) % kNetAttrs));
    run.reports.push_back(pdms.session().Query(
        static_cast<PeerId>(stream.Index(pdms.peer_count())), query, 3));
    // Periodic Steps leave belief bundles in flight that the next query's
    // delivery drains alongside its own traffic.
    if ((q + 1) % 50 == 0) pdms.session().Step();
  }
  for (EdgeId e : pdms.graph().LiveEdges()) {
    for (AttributeId a = 0; a < kNetAttrs; ++a) {
      run.posteriors.push_back(pdms.Posterior(e, a));
    }
  }
  run.bytes_sent = pdms.transport().stats().bytes_sent;
  return run;
}

void ExpectSameReports(const QueryStreamRun& expected,
                       const QueryStreamRun& actual) {
  ASSERT_EQ(actual.reports.size(), expected.reports.size());
  for (size_t q = 0; q < expected.reports.size(); ++q) {
    const QueryReport& want = expected.reports[q];
    const QueryReport& got = actual.reports[q];
    ASSERT_EQ(got.reached, want.reached) << "query " << q;
    ASSERT_EQ(got.used_edges, want.used_edges) << "query " << q;
    ASSERT_EQ(got.blocked_edges, want.blocked_edges) << "query " << q;
    ASSERT_EQ(got.messages, want.messages) << "query " << q;
    ASSERT_EQ(got.rows.size(), want.rows.size()) << "query " << q;
    for (size_t r = 0; r < want.rows.size(); ++r) {
      EXPECT_EQ(got.rows[r].first, want.rows[r].first);
      EXPECT_EQ(got.rows[r].second.document, want.rows[r].second.document);
      EXPECT_EQ(got.rows[r].second.entity, want.rows[r].second.entity);
      EXPECT_EQ(got.rows[r].second.values, want.rows[r].second.values);
    }
  }
  ASSERT_EQ(actual.posteriors.size(), expected.posteriors.size());
  for (size_t i = 0; i < expected.posteriors.size(); ++i) {
    ASSERT_EQ(actual.posteriors[i], expected.posteriors[i]) << "posterior " << i;
  }
  EXPECT_EQ(actual.bytes_sent, expected.bytes_sent);
}

TEST(QueryPlaneEquivalenceTest, MailIndexedDeliveryMatchesTheScanAllPath) {
  EXPECT_EQ(ScanAllTransport(std::make_unique<SimTransport>(
                                3, NetworkOptions{.delay_ticks = 0}))
                .NextPeerWithMail(1),
            1u);  // the default hook: "maybe mail" for every peer
  for (const ScheduleKind schedule :
       {ScheduleKind::kPeriodic, ScheduleKind::kLazy}) {
    for (const bool instant : {false, true}) {
      SCOPED_TRACE(StrFormat("%s schedule, %s transport",
                             schedule == ScheduleKind::kLazy ? "lazy"
                                                             : "periodic",
                             instant ? "instant" : "sim"));
      const QueryStreamRun scan = RunQueryStream(schedule, instant, true);
      size_t reached = 0;
      size_t blocked = 0;
      for (const QueryReport& report : scan.reports) {
        reached += report.reached.size();
        blocked += report.blocked_edges.size();
      }
      EXPECT_GT(reached, 2 * scan.reports.size());  // multi-hop traffic
      EXPECT_GT(blocked, 0u);                       // the θ-gate bit
      ExpectSameReports(scan, RunQueryStream(schedule, instant, false));
    }
  }
}

/// Forwards everything to `inner` and keeps a copy of every payload sent,
/// so a test can inspect exactly what went on the wire.
class RecordingTransport final : public Transport {
 public:
  explicit RecordingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return "recording"; }
  size_t peer_count() const override { return inner_->peer_count(); }
  uint64_t now() const override { return inner_->now(); }
  void AdvanceTick() override { inner_->AdvanceTick(); }
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sent_.push_back(payload);
    }
    inner_->Send(from, to, via, std::move(payload));
  }
  std::vector<Envelope> Drain(PeerId peer) override {
    return inner_->Drain(peer);
  }
  void DrainInto(PeerId peer, std::vector<Envelope>* out) override {
    inner_->DrainInto(peer, out);
  }
  bool HasPendingMessages() const override {
    return inner_->HasPendingMessages();
  }
  PeerId NextPeerWithMail(PeerId from) const override {
    return inner_->NextPeerWithMail(from);
  }
  const TransportStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  /// The payloads sent since the last call, in send order.
  std::vector<Payload> TakeSent() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(sent_, {});
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::mutex mutex_;
  std::vector<Payload> sent_;
};

// Steady-state wire gate on the scale bench's smoke shapes (1k-peer
// symmetrized BA and ER networks, length-2 cycles): after the 3-step
// alias negotiation no belief group may carry a fingerprint, and the
// bytes the transport accounts must be exactly the encoded bytes of what
// it was handed.
TEST(WireLedgerTest, SteadyStateRoundsSendNoFingerprints) {
  constexpr size_t kPeers = 1000;
  for (const std::string topology : {"ba", "er"}) {
    Rng rng(2026 + kPeers);
    Digraph graph = topology == "ba"
                        ? topology::BarabasiAlbert(kPeers, 2, &rng)
                        : topology::ErdosRenyi(kPeers, 2.0 / kPeers, &rng);
    topology::Symmetrize(&graph);
    MappingNetworkOptions network_options;
    network_options.attributes_per_schema = 6;
    network_options.error_rate = 0.2;
    const SyntheticPdms synthetic =
        BuildSyntheticPdms(graph, network_options, &rng);
    for (const double budget : {0.0, 1e-3}) {
      for (const size_t parallelism : {1, 2}) {
        SCOPED_TRACE(StrFormat("%s eps=%g p=%zu", topology.c_str(), budget,
                               parallelism));
        EngineOptions options;
        options.probe_ttl = 2;
        options.closure_limits.min_cycle_length = 2;
        options.closure_limits.max_cycle_length = 2;
        options.closure_limits.max_path_length = 1;
        options.parallelism = parallelism;
        RecordingTransport* recorder = nullptr;
        Pdms pdms =
            PdmsBuilder::FromSynthetic(synthetic)
                .WithOptions(options)
                .WithValueErrorBudget(budget)
                .WithTransport([&recorder](size_t peers,
                                           const EngineOptions& engine) {
                  auto transport = std::make_unique<RecordingTransport>(
                      std::make_unique<SimTransport>(peers, engine.network));
                  recorder = transport.get();
                  return transport;
                })
                .Build()
                .value();
        ASSERT_GT(pdms.session().Discover(), 0u);
        for (int warm = 0; warm < 3; ++warm) pdms.session().Step();
        pdms.transport().ResetStats();
        recorder->TakeSent();
        for (int measured = 0; measured < 3; ++measured) pdms.session().Step();

        size_t groups = 0;
        size_t fingerprints = 0;
        uint64_t encoded_bytes = 0;
        std::vector<uint8_t> bytes;
        for (const Payload& payload : recorder->TakeSent()) {
          bytes.clear();
          EncodePayload(payload, &bytes);
          encoded_bytes += bytes.size();
          if (const auto* bundle = std::get_if<BeliefMessage>(&payload)) {
            for (const BeliefGroup& group : bundle->groups) {
              ++groups;
              if (!group.id.IsNil()) ++fingerprints;
            }
          }
        }
        EXPECT_GT(groups, 0u);
        EXPECT_EQ(fingerprints, 0u);
        EXPECT_EQ(encoded_bytes, pdms.transport().stats().bytes_sent);
      }
    }
  }
}

}  // namespace
}  // namespace pdms
