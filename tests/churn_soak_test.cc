// Heavy-churn soak: repeated mapping removal, feedback ingestion and
// undo-session rollback under seeded link faults and parallel lanes,
// asserting the engine leaks no pool slots, alias-session entries, vars
// or probe-cache residue across the churn.

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/topology.h"
#include "mapping/mapping_generator.h"
#include "net/fault_injection.h"
#include "pdms/pdms.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace {

constexpr size_t kAttrs = 11;
constexpr size_t kChurnIterations = 12;

/// Churn iterations per soak loop. The nightly node-soak CI job promotes
/// this suite to a long run via PDMS_SOAK_ITERATIONS; PR runs keep the
/// fast default.
size_t ChurnIterations() {
  if (const char* env = std::getenv("PDMS_SOAK_ITERATIONS")) {
    const unsigned long value = std::strtoul(env, nullptr, 10);
    if (value > 0) return static_cast<size_t>(value);
  }
  return kChurnIterations;
}

Schema MakeSchema(const std::string& name, size_t attrs = kAttrs) {
  Schema schema(name);
  for (size_t a = 0; a < attrs; ++a) {
    EXPECT_TRUE(schema.AddAttribute(name + "_a" + std::to_string(a)).ok());
  }
  return schema;
}

/// The intro example on a fault-injecting simulated network: duplicated,
/// reordered and delayed frames over two worker lanes. With `adversarial`
/// set, peer 1 additionally lies and equivocates per a seeded
/// ByzantinePlan and every peer runs the admission guard.
Pdms MakeChurnPdms(uint64_t seed = 17, bool adversarial = false) {
  Rng rng(seed);
  EngineOptions options;
  options.probe_ttl = 5;
  PdmsBuilder builder;
  builder.WithOptions(options).WithParallelism(2);
  if (adversarial) {
    ByzantineGuardOptions guard;
    guard.enabled = true;
    ByzantinePlan plan;
    plan.seed = 7;
    plan.lie_probability = 0.4;
    plan.invert_values = true;
    plan.equivocate_rate = 0.2;
    plan.adversaries = {1};
    builder.WithByzantineGuard(guard).WithByzantinePlan(plan);
  }
  builder.WithTransport([](size_t peers, const EngineOptions&) {
    FaultPlan plan;
    plan.seed = 4242;
    plan.duplicate_rate = 0.05;
    plan.reorder_rate = 0.10;
    plan.delay_ticks_max = 2;
    return std::unique_ptr<Transport>(std::make_unique<FaultInjectingTransport>(
        std::make_unique<SimTransport>(peers, NetworkOptions{}), plan));
  });
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

/// Every size that could leak, flattened in a fixed traversal order:
/// mapping tables, replica pools, the message/member SoA pools, belief
/// routes, alias-session tables of every link, interned vars and the
/// probe cache — across all peers.
struct Footprint {
  std::vector<size_t> dims;
  bool operator==(const Footprint&) const = default;

  size_t total() const {
    size_t sum = 0;
    for (const size_t d : dims) sum += d;
    return sum;
  }
};

Footprint Measure(const Pdms& pdms) {
  Footprint footprint;
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    const Peer::Image image = pdms.peer(p).CaptureImage();
    footprint.dims.push_back(image.mappings.size());
    footprint.dims.push_back(image.replicas.size());
    footprint.dims.push_back(image.var_to_factor_pool.size());
    footprint.dims.push_back(image.factor_to_var_pool.size());
    footprint.dims.push_back(image.member_pool.size());
    footprint.dims.push_back(image.member_owner_pool.size());
    footprint.dims.push_back(image.owned_pos_pool.size());
    footprint.dims.push_back(image.belief_routes.size());
    footprint.dims.push_back(image.links.size());
    for (const Peer::Link& link : image.links) {
      footprint.dims.push_back(link.tx.id_of.size());
      footprint.dims.push_back(link.rx.id_of.size());
      footprint.dims.push_back(link.replica_of_alias.size());
    }
    footprint.dims.push_back(image.guard_slot_pool.size());
    footprint.dims.push_back(image.vars.size());
    footprint.dims.push_back(image.probe_cache.size());
  }
  return footprint;
}

FeedbackAnnouncement ChurnFeedback(size_t iteration) {
  FeedbackAnnouncement announcement;
  announcement.closure.kind = Closure::Kind::kCycle;
  announcement.closure.edges = {0, 1, 2, 3};
  announcement.closure.split = 4;
  announcement.closure.source = 0;
  announcement.closure.sink = 0;
  announcement.delta = 0.1;
  const AttributeId root = static_cast<AttributeId>(iteration % kAttrs);
  announcement.feedback = {
      {root,
       iteration % 2 == 0 ? FeedbackSign::kNegative : FeedbackSign::kPositive,
       {{0, root}, {1, root}, {2, root}, {3, root}}}};
  return announcement;
}

TEST(ChurnSoakTest, UndoChurnUnderLinkFaultsLeavesNoResidue) {
  Pdms pdms = MakeChurnPdms();
  ASSERT_GT(pdms.session().Discover(), 0u);
  pdms.session().Converge(25);
  const Footprint baseline = Measure(pdms);
  ASSERT_GT(baseline.total(), 0u);

  for (size_t i = 0; i < ChurnIterations(); ++i) {
    {
      UndoSession undo = pdms.StartUndoSession();
      pdms.InjectFeedback(ChurnFeedback(i));
      // Alternate which mapping disappears so every link sees churn.
      ASSERT_TRUE(pdms.RemoveMapping(static_cast<EdgeId>(i % 5)).ok());
      pdms.session().Converge(3);
      EXPECT_NE(Measure(pdms), baseline) << "iteration " << i;
      // Rollback on scope exit.
    }
    EXPECT_EQ(Measure(pdms), baseline) << "iteration " << i;
    // Keep traffic flowing between iterations: stale in-flight frames
    // from the rolled-back execution must drain without growing state.
    pdms.session().Step();
    EXPECT_EQ(Measure(pdms), baseline) << "iteration " << i;
  }
}

TEST(ChurnSoakTest, GuardedAdversarialChurnLeavesNoResidue) {
  // Same churn loop, but peer 1 lies and equivocates while every peer
  // runs the admission guard: rejected entries, equivocation handling,
  // demotion bookkeeping and the per-slot guard history must all churn
  // without leaking state, and rollback must restore guard pools exactly.
  Pdms pdms = MakeChurnPdms(17, /*adversarial=*/true);
  ASSERT_GT(pdms.session().Discover(), 0u);
  pdms.session().Converge(25);
  // The guard actually engaged: the equivocating adversary was caught.
  EXPECT_GT(pdms.engine().GuardRejectedBeliefs(), 0u);
  const Footprint baseline = Measure(pdms);
  ASSERT_GT(baseline.total(), 0u);

  for (size_t i = 0; i < ChurnIterations(); ++i) {
    {
      UndoSession undo = pdms.StartUndoSession();
      pdms.InjectFeedback(ChurnFeedback(i));
      ASSERT_TRUE(pdms.RemoveMapping(static_cast<EdgeId>(i % 5)).ok());
      pdms.session().Converge(3);
      // Rollback on scope exit.
    }
    EXPECT_EQ(Measure(pdms), baseline) << "iteration " << i;
    pdms.session().Step();
    EXPECT_EQ(Measure(pdms), baseline) << "iteration " << i;
  }
}

TEST(ChurnSoakTest, CommittedRemovalsShrinkAndThenHoldSteady) {
  Pdms pdms = MakeChurnPdms();
  ASSERT_GT(pdms.session().Discover(), 0u);
  pdms.session().Converge(25);
  const Footprint baseline = Measure(pdms);

  // Committed removals must actually release state...
  {
    UndoSession undo = pdms.StartUndoSession();
    ASSERT_TRUE(pdms.RemoveMapping(4).ok());
    undo.Commit();
  }
  pdms.session().Converge(10);
  const Footprint shrunk = Measure(pdms);
  EXPECT_LT(shrunk.total(), baseline.total());

  // ...and the smaller footprint must be a fixpoint: further rounds under
  // the same faulty links neither grow nor shrink it.
  for (int i = 0; i < 8; ++i) {
    pdms.session().Step();
    EXPECT_EQ(Measure(pdms), shrunk) << "round " << i;
  }
}

TEST(ChurnSoakTest, RepeatedConvergeCyclesDoNotGrowState) {
  // Converging an already-converged network over lossy, duplicating links
  // must be a no-op for every pool: duplicates and reorders are absorbed
  // without minting new aliases or vars.
  Pdms pdms = MakeChurnPdms();
  ASSERT_GT(pdms.session().Discover(), 0u);
  pdms.session().Converge(25);
  const Footprint converged = Measure(pdms);

  for (int cycle = 0; cycle < 4; ++cycle) {
    pdms.session().Converge(5);
    EXPECT_EQ(Measure(pdms), converged) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace pdms
