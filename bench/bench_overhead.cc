// Reproduces the communication-overhead accounting of Section 4.3:
//
//  * Periodic schedule: at most Σ_ci (l_ci − 1) remote messages per peer
//    per period τ (ci = closures through the peer, l_ci their length).
//  * Lazy schedule: zero additional messages — belief updates piggyback on
//    query traffic only.
//
// Measured on the running example and on a scale-free (Barabási–Albert)
// network, whose high clustering the paper argues is typical of semantic
// overlay networks.

#include <cstdio>

#include "bench/fixtures.h"
#include "graph/topology.h"
#include "util/table.h"

namespace pdms {
namespace {

void PeriodicOverhead(Pdms* pdms, const char* label) {
  pdms->session().Discover();
  pdms->session().Step();  // populate messages
  std::printf("periodic schedule on %s:\n", label);
  TextTable table;
  table.SetHeader({"peer", "replicas", "bound sum(l-1)", "actual updates/round"});
  size_t total_bound = 0;
  size_t total_actual = 0;
  for (PeerId p = 0; p < pdms->peer_count(); ++p) {
    const Peer& peer = pdms->peer(p);
    size_t actual = 0;
    for (const Outgoing& outgoing : peer.CollectOutgoingBeliefs()) {
      actual += std::get<BeliefMessage>(outgoing.payload).update_count();
    }
    total_bound += peer.RemoteMessageBound();
    total_actual += actual;
    if (p < 8) {
      table.AddRow({StrFormat("%u", p), StrFormat("%zu", peer.replica_count()),
                    StrFormat("%zu", peer.RemoteMessageBound()),
                    StrFormat("%zu", actual)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("  total: bound=%zu actual=%zu (bound holds: %s)\n\n",
              total_bound, total_actual,
              total_actual <= total_bound ? "yes" : "NO");
}

void LazyOverhead() {
  EngineOptions options;
  options.schedule = ScheduleKind::kLazy;
  options.theta = 0.45;
  bench::IntroFixture fixture = bench::MakeIntroFixture(options);
  Pdms& pdms = fixture.pdms;
  Session& session = pdms.session();
  // Documents so queries return something.
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    pdms.peer(p).store().Insert(0, {{0, "Robinson"}, {1, "river"}});
  }
  session.Discover();
  for (int i = 0; i < 40; ++i) {
    Query query("q");
    query.AddProjection(0);
    query.AddSelection(1, "river");
    session.Query(static_cast<PeerId>(i % 4), query, 4);
    session.Step();
  }
  const auto& stats = pdms.transport().stats();
  std::printf("lazy schedule on example graph (40 queries):\n");
  std::printf("  standalone belief messages: %llu (paper: zero overhead)\n",
              static_cast<unsigned long long>(
                  stats.sent[static_cast<size_t>(MessageKind::kBelief)]));
  std::printf("  query messages:             %llu (beliefs piggyback here)\n",
              static_cast<unsigned long long>(
                  stats.sent[static_cast<size_t>(MessageKind::kQuery)]));
  std::printf("  faulty mapping posterior:   %.4f (< 0.5: identified)\n\n",
              pdms.Posterior(fixture.edges.m24, 0));
}

void DiscoveryCost() {
  std::printf("discovery cost (TTL-5 probes; the default closure limits "
              "forward every simple walk):\n");
  TextTable table;
  table.SetHeader({"network", "peers", "mappings", "clustering", "probes",
                   "feedback msgs", "factors"});
  for (int which = 0; which < 2; ++which) {
    Rng rng(3);
    Digraph graph;
    std::string label;
    if (which == 0) {
      graph = topology::ExampleGraph(nullptr);
      label = "example";
    } else {
      graph = topology::BarabasiAlbert(30, 2, &rng);
      label = "BA(30,2)";
    }
    MappingNetworkOptions network_options;
    network_options.attributes_per_schema = 10;
    network_options.error_rate = 0.2;
    const SyntheticPdms synthetic =
        BuildSyntheticPdms(graph, network_options, &rng);
    EngineOptions options;
    options.probe_ttl = 5;
    Pdms pdms = PdmsBuilder::FromSynthetic(synthetic)
                    .WithOptions(options)
                    .Build()
                    .value();
    const size_t factors = pdms.session().Discover();
    const auto& stats = pdms.transport().stats();
    table.AddRow(
        {label, StrFormat("%zu", graph.node_count()),
         StrFormat("%zu", graph.edge_count()),
         StrFormat("%.3f", ClusteringCoefficient(graph)),
         StrFormat("%llu", static_cast<unsigned long long>(
                               stats.sent[static_cast<size_t>(
                                   MessageKind::kProbe)])),
         StrFormat("%llu", static_cast<unsigned long long>(
                               stats.sent[static_cast<size_t>(
                                   MessageKind::kFeedback)])),
         StrFormat("%zu", factors)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void Run() {
  std::printf("Section 4.3 — communication overhead of the schedules\n\n");
  {
    bench::IntroFixture fixture = bench::MakeIntroFixture(EngineOptions{});
    PeriodicOverhead(&fixture.pdms, "example graph");
  }
  {
    Rng rng(7);
    const Digraph graph = topology::BarabasiAlbert(30, 2, &rng);
    MappingNetworkOptions network_options;
    network_options.attributes_per_schema = 10;
    network_options.error_rate = 0.2;
    const SyntheticPdms synthetic =
        BuildSyntheticPdms(graph, network_options, &rng);
    EngineOptions options;
    options.probe_ttl = 5;
    Pdms pdms = PdmsBuilder::FromSynthetic(synthetic)
                    .WithOptions(options)
                    .Build()
                    .value();
    PeriodicOverhead(&pdms, "BA(30,2) scale-free network");
  }
  LazyOverhead();
  DiscoveryCost();
}

}  // namespace
}  // namespace pdms

int main() {
  pdms::Run();
  return 0;
}
