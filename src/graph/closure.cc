#include "graph/closure.h"

#include <map>
#include <set>

#include "util/string_util.h"

namespace pdms {

std::string Closure::ToString() const {
  auto render = [](const std::vector<EdgeId>& ids, size_t from, size_t to) {
    std::vector<std::string> parts;
    for (size_t i = from; i < to; ++i) parts.push_back(StrFormat("e%u", ids[i]));
    return Join(parts, ",");
  };
  if (kind == Kind::kCycle) {
    return "cycle(" + render(edges, 0, edges.size()) + ")";
  }
  return "parallel(" + render(edges, 0, split) + " | " +
         render(edges, split, edges.size()) + ")";
}

namespace {

/// Bounded DFS state for directed cycle enumeration rooted at `root`.
/// Only nodes with id >= root are explored, so every cycle is reported
/// exactly once, rooted at its smallest node.
class DirectedCycleSearch {
 public:
  DirectedCycleSearch(const Digraph& graph, const ClosureFinderOptions& options,
                      std::vector<Closure>* out)
      : graph_(graph), options_(options), out_(out),
        on_path_(graph.node_count(), false) {}

  void Run() {
    for (NodeId root = 0; root < graph_.node_count(); ++root) {
      if (out_->size() >= options_.max_closures) return;
      root_ = root;
      on_path_[root] = true;
      Dfs(root);
      on_path_[root] = false;
    }
  }

 private:
  void Dfs(NodeId node) {
    if (out_->size() >= options_.max_closures) return;
    for (EdgeId eid : graph_.out_edges(node)) {
      const NodeId next = graph_.edge(eid).dst;
      if (next == root_) {
        const size_t length = path_.size() + 1;
        if (length >= options_.min_cycle_length &&
            length <= options_.max_cycle_length) {
          path_.push_back(eid);
          Closure closure;
          closure.kind = Closure::Kind::kCycle;
          closure.edges = path_;
          closure.split = path_.size();
          closure.source = root_;
          closure.sink = root_;
          out_->push_back(std::move(closure));
          path_.pop_back();
        }
        continue;
      }
      if (next < root_ || on_path_[next]) continue;
      if (path_.size() + 1 >= options_.max_cycle_length) continue;
      on_path_[next] = true;
      path_.push_back(eid);
      Dfs(next);
      path_.pop_back();
      on_path_[next] = false;
    }
  }

  const Digraph& graph_;
  const ClosureFinderOptions& options_;
  std::vector<Closure>* out_;
  std::vector<bool> on_path_;
  std::vector<EdgeId> path_;
  NodeId root_ = 0;
};

/// Collects every simple directed path (as an edge sequence) from `source`
/// of length <= max_path_length, bucketed by destination.
void EnumeratePathsFrom(const Digraph& graph, NodeId source, size_t max_length,
                        size_t max_paths,
                        std::map<NodeId, std::vector<std::vector<EdgeId>>>* by_sink) {
  std::vector<EdgeId> path;
  std::vector<bool> on_path(graph.node_count(), false);
  on_path[source] = true;
  size_t emitted = 0;

  // Iterative DFS with explicit frames: (node, next out-edge index).
  struct Frame {
    NodeId node;
    size_t next_index;
  };
  std::vector<Frame> stack{{source, 0}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto& outs = graph.out_edges(frame.node);
    if (frame.next_index >= outs.size()) {
      on_path[frame.node] = false;
      if (!path.empty()) path.pop_back();
      stack.pop_back();
      continue;
    }
    const EdgeId eid = outs[frame.next_index++];
    const NodeId next = graph.edge(eid).dst;
    if (on_path[next]) continue;
    path.push_back(eid);
    (*by_sink)[next].push_back(path);
    if (++emitted >= max_paths) return;
    if (path.size() < max_length) {
      on_path[next] = true;
      stack.push_back(Frame{next, 0});
    } else {
      path.pop_back();
    }
  }
}

/// True if the two paths share no edge and no vertex other than the shared
/// source and sink.
bool PathsIndependent(const Digraph& graph, const std::vector<EdgeId>& a,
                      const std::vector<EdgeId>& b, NodeId source, NodeId sink) {
  std::set<EdgeId> edges_a(a.begin(), a.end());
  for (EdgeId e : b) {
    if (edges_a.count(e) > 0) return false;
  }
  std::set<NodeId> interior_a;
  for (size_t i = 0; i + 1 < a.size(); ++i) {
    interior_a.insert(graph.edge(a[i]).dst);
  }
  for (size_t i = 0; i + 1 < b.size(); ++i) {
    const NodeId v = graph.edge(b[i]).dst;
    if (v == source || v == sink || interior_a.count(v) > 0) return false;
  }
  return true;
}

}  // namespace

std::vector<Closure> FindDirectedCycles(const Digraph& graph,
                                        const ClosureFinderOptions& options) {
  std::vector<Closure> closures;
  DirectedCycleSearch(graph, options, &closures).Run();
  return closures;
}

std::vector<Closure> FindParallelPaths(const Digraph& graph,
                                       const ClosureFinderOptions& options) {
  std::vector<Closure> closures;
  for (NodeId source = 0; source < graph.node_count(); ++source) {
    std::map<NodeId, std::vector<std::vector<EdgeId>>> by_sink;
    EnumeratePathsFrom(graph, source, options.max_path_length,
                       options.max_closures, &by_sink);
    for (const auto& [sink, paths] : by_sink) {
      for (size_t i = 0; i < paths.size(); ++i) {
        for (size_t j = i + 1; j < paths.size(); ++j) {
          if (closures.size() >= options.max_closures) return closures;
          if (!PathsIndependent(graph, paths[i], paths[j], source, sink)) {
            continue;
          }
          Closure closure;
          closure.kind = Closure::Kind::kParallelPaths;
          closure.edges = paths[i];
          closure.edges.insert(closure.edges.end(), paths[j].begin(),
                               paths[j].end());
          closure.split = paths[i].size();
          closure.source = source;
          closure.sink = sink;
          closures.push_back(std::move(closure));
        }
      }
    }
  }
  return closures;
}

std::vector<Closure> FindAllDirectedClosures(const Digraph& graph,
                                             const ClosureFinderOptions& options) {
  std::vector<Closure> closures = FindDirectedCycles(graph, options);
  std::vector<Closure> parallels = FindParallelPaths(graph, options);
  closures.insert(closures.end(), std::make_move_iterator(parallels.begin()),
                  std::make_move_iterator(parallels.end()));
  return closures;
}

}  // namespace pdms
