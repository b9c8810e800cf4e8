#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "graph/closure.h"
#include "graph/digraph.h"
#include "graph/topology.h"
#include "util/rng.h"

namespace pdms {
namespace {

using topology::ExampleEdges;

std::set<EdgeId> EdgeSet(const Closure& closure) {
  return {closure.edges.begin(), closure.edges.end()};
}

TEST(DigraphTest, AddNodesAndEdges) {
  Digraph graph(3);
  EXPECT_EQ(graph.node_count(), 3u);
  Result<EdgeId> e = graph.AddEdge(0, 1);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(graph.edge(*e).src, 0u);
  EXPECT_EQ(graph.edge(*e).dst, 1u);
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_FALSE(graph.HasEdge(1, 0));
}

TEST(DigraphTest, RejectsSelfLoopsAndBadEndpoints) {
  Digraph graph(2);
  EXPECT_FALSE(graph.AddEdge(0, 0).ok());
  EXPECT_FALSE(graph.AddEdge(0, 5).ok());
  EXPECT_FALSE(graph.AddEdge(9, 1).ok());
}

TEST(DigraphTest, MultiEdgesAllowed) {
  Digraph graph(2);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_EQ(graph.out_edges(0).size(), 2u);
}

TEST(DigraphTest, RemoveEdgeTombstones) {
  Digraph graph(3);
  const EdgeId e01 = *graph.AddEdge(0, 1);
  const EdgeId e12 = *graph.AddEdge(1, 2);
  ASSERT_TRUE(graph.RemoveEdge(e01).ok());
  EXPECT_FALSE(graph.edge_alive(e01));
  EXPECT_TRUE(graph.edge_alive(e12));
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_TRUE(graph.out_edges(0).empty());
  EXPECT_TRUE(graph.in_edges(1).empty());
  // Ids remain stable: the next edge gets a fresh id.
  const EdgeId e20 = *graph.AddEdge(2, 0);
  EXPECT_EQ(e20, 2u);
  // Double-remove fails.
  EXPECT_EQ(graph.RemoveEdge(e01).code(), StatusCode::kNotFound);
}

TEST(DigraphTest, AddNodeGrowsGraph) {
  Digraph graph;
  const NodeId a = graph.AddNode();
  const NodeId b = graph.AddNode();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_TRUE(graph.AddEdge(a, b).ok());
}

TEST(DigraphTest, FindEdgeReturnsLiveEdge) {
  Digraph graph(2);
  const EdgeId e = *graph.AddEdge(0, 1);
  Result<EdgeId> found = graph.FindEdge(0, 1);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, e);
  EXPECT_EQ(graph.FindEdge(1, 0).status().code(), StatusCode::kNotFound);
}

TEST(ClusteringTest, TriangleHasCoefficientOne) {
  Digraph graph(3);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  ASSERT_TRUE(graph.AddEdge(2, 0).ok());
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(graph), 1.0);
}

TEST(ClusteringTest, StarHasCoefficientZero) {
  Digraph graph(4);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(0, 2).ok());
  ASSERT_TRUE(graph.AddEdge(0, 3).ok());
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(graph), 0.0);
}

TEST(PathLengthTest, ChainAverage) {
  // 0-1-2: distances 1,1,2 (each direction) -> mean 4/3.
  Digraph graph(3);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  EXPECT_NEAR(AveragePathLength(graph), 4.0 / 3.0, 1e-12);
}

// --- Closures on the paper's example graphs -------------------------------

TEST(ClosureTest, ExampleGraphDirectedCycles) {
  ExampleEdges ids;
  const Digraph graph = topology::ExampleGraph(&ids);
  ClosureFinderOptions options;
  const auto cycles = FindDirectedCycles(graph, options);
  // The paper's f1 = m12->m23->m34->m41 and f2 = m12->m24->m41 (Section 3.3).
  ASSERT_EQ(cycles.size(), 2u);
  std::set<std::set<EdgeId>> found;
  for (const auto& c : cycles) {
    EXPECT_EQ(c.kind, Closure::Kind::kCycle);
    found.insert(EdgeSet(c));
  }
  EXPECT_TRUE(found.count({ids.m12, ids.m23, ids.m34, ids.m41}) > 0);
  EXPECT_TRUE(found.count({ids.m12, ids.m24, ids.m41}) > 0);
}

TEST(ClosureTest, ExampleGraphDirectedParallelPaths) {
  ExampleEdges ids;
  const Digraph graph = topology::ExampleGraphDirected(&ids);
  ClosureFinderOptions options;
  const auto parallels = FindParallelPaths(graph, options);
  // The paper's f3 = m21 || m24->m41, f4 = m24 || m23->m34,
  // f5 = m21 || m23->m34->m41 (Section 3.3, Figure 5).
  ASSERT_EQ(parallels.size(), 3u);
  std::set<std::set<EdgeId>> found;
  for (const auto& c : parallels) {
    EXPECT_EQ(c.kind, Closure::Kind::kParallelPaths);
    found.insert(EdgeSet(c));
  }
  EXPECT_TRUE(found.count({ids.m21, ids.m24, ids.m41}) > 0);
  EXPECT_TRUE(found.count({ids.m24, ids.m23, ids.m34}) > 0);
  EXPECT_TRUE(found.count({ids.m21, ids.m23, ids.m34, ids.m41}) > 0);
}

TEST(ClosureTest, ParallelPathsSharingInteriorVertexExcluded) {
  ExampleEdges ids;
  const Digraph graph = topology::ExampleGraphDirected(&ids);
  ClosureFinderOptions options;
  const auto parallels = FindParallelPaths(graph, options);
  // m24->m41 and m23->m34->m41 share vertex p4 and edge m41: never paired.
  for (const auto& c : parallels) {
    const auto edges = EdgeSet(c);
    EXPECT_NE(edges, (std::set<EdgeId>{ids.m24, ids.m41, ids.m23, ids.m34}));
  }
}

TEST(ClosureTest, MinCycleLengthFiltersTwoCycles) {
  Digraph graph(2);
  const EdgeId ab = *graph.AddEdge(0, 1);
  const EdgeId ba = *graph.AddEdge(1, 0);
  ClosureFinderOptions options;  // default min length 3
  EXPECT_TRUE(FindDirectedCycles(graph, options).empty());
  options.min_cycle_length = 2;
  const auto cycles = FindDirectedCycles(graph, options);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(EdgeSet(cycles[0]), (std::set<EdgeId>{ab, ba}));
}

TEST(ClosureTest, MaxCycleLengthBoundsSearch) {
  const Digraph graph = topology::Ring(6);
  ClosureFinderOptions options;
  options.max_cycle_length = 5;
  EXPECT_TRUE(FindDirectedCycles(graph, options).empty());
  options.max_cycle_length = 6;
  EXPECT_EQ(FindDirectedCycles(graph, options).size(), 1u);
}

TEST(ClosureTest, RingHasExactlyOneCycle) {
  for (size_t n : {3u, 5u, 8u}) {
    const Digraph graph = topology::Ring(n);
    ClosureFinderOptions options;
    options.max_cycle_length = n;
    const auto cycles = FindDirectedCycles(graph, options);
    ASSERT_EQ(cycles.size(), 1u) << "ring size " << n;
    EXPECT_EQ(cycles[0].Length(), n);
  }
}

TEST(ClosureTest, TwoParallelEdgesFormParallelPathPair) {
  Digraph graph(2);
  const EdgeId a = *graph.AddEdge(0, 1);
  const EdgeId b = *graph.AddEdge(0, 1);
  ClosureFinderOptions options;
  const auto parallels = FindParallelPaths(graph, options);
  ASSERT_EQ(parallels.size(), 1u);
  EXPECT_EQ(EdgeSet(parallels[0]), (std::set<EdgeId>{a, b}));
  EXPECT_EQ(parallels[0].split, 1u);
}

TEST(ClosureTest, RemovedEdgesDoNotAppear) {
  ExampleEdges ids;
  Digraph graph = topology::ExampleGraph(&ids);
  ASSERT_TRUE(graph.RemoveEdge(ids.m24).ok());
  ClosureFinderOptions options;
  const auto cycles = FindDirectedCycles(graph, options);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(EdgeSet(cycles[0]),
            (std::set<EdgeId>{ids.m12, ids.m23, ids.m34, ids.m41}));
}

TEST(ClosureTest, ClosureToStringIsReadable) {
  ExampleEdges ids;
  const Digraph graph = topology::ExampleGraph(&ids);
  const auto cycles = FindDirectedCycles(graph, ClosureFinderOptions{});
  ASSERT_FALSE(cycles.empty());
  EXPECT_NE(cycles[0].ToString().find("cycle("), std::string::npos);
}

// --- Figure 8 construction -------------------------------------------------

TEST(TopologyTest, ExtendedExampleLengthensCycles) {
  for (size_t inserted : {0u, 1u, 3u, 6u}) {
    ExampleEdges ids;
    std::vector<EdgeId> chain;
    const Digraph graph =
        topology::ExampleGraphExtended(inserted, &ids, &chain);
    EXPECT_EQ(graph.node_count(), 4 + inserted);
    EXPECT_EQ(chain.size(), inserted + 1);
    ClosureFinderOptions options;
    options.max_cycle_length = 6 + inserted;
    const auto cycles = FindDirectedCycles(graph, options);
    ASSERT_EQ(cycles.size(), 2u) << "inserted " << inserted;
    std::set<size_t> lengths;
    for (const auto& c : cycles) lengths.insert(c.Length());
    // f1 grows to 4 + inserted mappings, f2 to 3 + inserted.
    EXPECT_TRUE(lengths.count(4 + inserted) > 0);
    EXPECT_TRUE(lengths.count(3 + inserted) > 0);
  }
}

TEST(TopologyTest, ExtendedWithZeroEqualsExample) {
  ExampleEdges a;
  ExampleEdges b;
  const Digraph base = topology::ExampleGraph(&a);
  const Digraph extended = topology::ExampleGraphExtended(0, &b, nullptr);
  EXPECT_EQ(base.node_count(), extended.node_count());
  EXPECT_EQ(base.edge_count(), extended.edge_count());
}

// --- Random topologies ------------------------------------------------------

TEST(TopologyTest, ErdosRenyiEdgeDensity) {
  Rng rng(99);
  const Digraph graph = topology::ErdosRenyi(50, 0.1, &rng);
  EXPECT_EQ(graph.node_count(), 50u);
  // E[edges] = 50*49*0.1 = 245; allow generous slack.
  EXPECT_GT(graph.edge_count(), 150u);
  EXPECT_LT(graph.edge_count(), 350u);
}

TEST(TopologyTest, BarabasiAlbertStructure) {
  Rng rng(7);
  const Digraph graph = topology::BarabasiAlbert(100, 2, &rng);
  EXPECT_EQ(graph.node_count(), 100u);
  // Seed clique has 3 links; each of the 97 later nodes adds 2.
  EXPECT_EQ(graph.edge_count(), 3u + 97u * 2u);
  // Scale-free nets have hubs: max degree well above the mean.
  const auto degrees = UndirectedDegrees(graph);
  const size_t max_degree = *std::max_element(degrees.begin(), degrees.end());
  EXPECT_GT(max_degree, 10u);
}

TEST(TopologyTest, BarabasiAlbertClusteringExceedsRandom) {
  Rng rng1(11);
  Rng rng2(11);
  const Digraph ba = topology::BarabasiAlbert(200, 3, &rng1);
  const Digraph er =
      topology::ErdosRenyi(200, static_cast<double>(ba.edge_count()) /
                                    (200.0 * 199.0), &rng2);
  EXPECT_GT(ClusteringCoefficient(ba), ClusteringCoefficient(er));
}

TEST(TopologyTest, WattsStrogatzDegreeAndRewiring) {
  Rng rng(13);
  const Digraph graph = topology::WattsStrogatz(60, 4, 0.1, &rng);
  EXPECT_EQ(graph.node_count(), 60u);
  EXPECT_EQ(graph.edge_count(), 120u);  // n*k/2 links preserved by rewiring
}

TEST(TopologyTest, SymmetrizeAddsMissingReverses) {
  ExampleEdges ids;
  Digraph graph = topology::ExampleGraph(&ids);
  const auto added = topology::Symmetrize(&graph);
  EXPECT_EQ(added.size(), 5u);
  EXPECT_EQ(graph.edge_count(), 10u);
  for (EdgeId id : graph.LiveEdges()) {
    const Edge& e = graph.edge(id);
    EXPECT_TRUE(graph.HasEdge(e.dst, e.src));
  }
}

TEST(TopologyTest, GeneratorsAreDeterministic) {
  Rng rng_a(42);
  Rng rng_b(42);
  const Digraph a = topology::BarabasiAlbert(80, 2, &rng_a);
  const Digraph b = topology::BarabasiAlbert(80, 2, &rng_b);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (EdgeId id : a.LiveEdges()) {
    EXPECT_EQ(a.edge(id).src, b.edge(id).src);
    EXPECT_EQ(a.edge(id).dst, b.edge(id).dst);
  }
}

}  // namespace
}  // namespace pdms
