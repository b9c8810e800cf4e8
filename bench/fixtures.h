#ifndef PDMS_BENCH_FIXTURES_H_
#define PDMS_BENCH_FIXTURES_H_

#include <utility>
#include <vector>

#include "graph/topology.h"
#include "pdms/pdms.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace bench {

/// Schemas of 11 attributes make every peer's auto-estimated ∆ equal the
/// paper's 1/10 (Section 4.5).
constexpr size_t kIntroAttrs = 11;

struct IntroFixture {
  topology::ExampleEdges edges;
  std::vector<EdgeId> chain;  ///< p1 -> ... -> p2 chain (Figure 8 variant)
  Pdms pdms;
};

/// The running example of Figures 1/4: four peers, five mappings, all
/// concept-identities except m24 which garbles attribute 0 ("Creator").
/// With `inserted` > 0 the Figure 8 construction is used: `inserted` extra
/// peers are spliced into the p1 -> p2 mapping, lengthening cycles f1/f2.
/// `transport`, when set, replaces the default `SimTransport`.
inline IntroFixture MakeIntroFixture(
    EngineOptions options, size_t inserted = 0, uint64_t seed = 17,
    PdmsBuilder::TransportFactory transport = nullptr) {
  IntroFixture fixture;
  Rng rng(seed);
  const Digraph graph =
      topology::ExampleGraphExtended(inserted, &fixture.edges, &fixture.chain);
  options.probe_ttl =
      std::max<uint32_t>(options.probe_ttl, 5 + static_cast<uint32_t>(inserted));
  options.closure_limits.max_cycle_length =
      std::max(options.closure_limits.max_cycle_length, 5 + inserted);

  PdmsBuilder builder;
  builder.WithOptions(options);
  if (transport) builder.WithTransport(std::move(transport));
  for (NodeId p = 0; p < graph.node_count(); ++p) {
    Schema schema(StrFormat("p%u", p + 1));
    for (size_t a = 0; a < kIntroAttrs; ++a) {
      Result<AttributeId> added =
          schema.AddAttribute(StrFormat("p%u_a%zu", p + 1, a));
      (void)added;
    }
    builder.AddPeer(std::move(schema));
  }
  for (EdgeId e : graph.LiveEdges()) {
    const std::vector<AttributeId> wrong =
        e == fixture.edges.m24 ? std::vector<AttributeId>{0}
                               : std::vector<AttributeId>{};
    builder.AddMapping(
        graph.edge(e).src, graph.edge(e).dst,
        MakeConceptMapping(StrFormat("m%u", e), kIntroAttrs, wrong, &rng));
  }
  fixture.pdms = std::move(builder.Build()).value();
  return fixture;
}

/// Injects the paper's exact Section 4.5 feedback over the (possibly
/// extended) example topology for attribute 0 with ∆ = 0.1:
///   f1+ : chain..m23..m34..m41 (cycle)
///   f2− : chain..m24..m41      (cycle)
///   f3−⇒: m24 ‖ m23 -> m34     (parallel paths)
inline void InjectPaperFeedback(IntroFixture& fixture) {
  const topology::ExampleEdges& e = fixture.edges;
  const std::vector<EdgeId> chain =
      fixture.chain.empty() ? std::vector<EdgeId>{e.m12} : fixture.chain;

  auto members = [](const std::vector<EdgeId>& edges) {
    std::vector<MappingVarKey> vars;
    for (EdgeId edge : edges) vars.push_back(MappingVarKey{edge, 0});
    return vars;
  };
  auto cycle = [](std::vector<EdgeId> edges) {
    Closure closure;
    closure.kind = Closure::Kind::kCycle;
    closure.edges = std::move(edges);
    closure.split = closure.edges.size();
    closure.source = 0;
    closure.sink = 0;
    return closure;
  };

  std::vector<EdgeId> f1_edges = chain;
  f1_edges.insert(f1_edges.end(), {e.m23, e.m34, e.m41});
  FeedbackAnnouncement f1;
  f1.closure = cycle(f1_edges);
  f1.delta = 0.1;
  f1.feedback = {{0, FeedbackSign::kPositive, members(f1_edges)}};
  fixture.pdms.InjectFeedback(f1);

  std::vector<EdgeId> f2_edges = chain;
  f2_edges.insert(f2_edges.end(), {e.m24, e.m41});
  FeedbackAnnouncement f2;
  f2.closure = cycle(f2_edges);
  f2.delta = 0.1;
  f2.feedback = {{0, FeedbackSign::kNegative, members(f2_edges)}};
  fixture.pdms.InjectFeedback(f2);

  FeedbackAnnouncement f3;
  f3.closure.kind = Closure::Kind::kParallelPaths;
  f3.closure.edges = {e.m24, e.m23, e.m34};
  f3.closure.split = 1;
  f3.closure.source = 1;
  f3.closure.sink = 3;
  f3.delta = 0.1;
  f3.feedback = {
      {0, FeedbackSign::kNegative, members({e.m24, e.m23, e.m34})}};
  fixture.pdms.InjectFeedback(f3);
}

}  // namespace bench
}  // namespace pdms

#endif  // PDMS_BENCH_FIXTURES_H_
