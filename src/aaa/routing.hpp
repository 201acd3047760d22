// Shortest-hop routing over the processor/medium bipartite graph. Multi-hop
// routes model store-and-forward through intermediate processors.
#pragma once

#include <vector>

#include "aaa/architecture_graph.hpp"

namespace ecsim::aaa {

/// One hop of a route: data moves from `from_proc` to `to_proc` over `medium`.
struct Hop {
  MediumId medium = 0;
  ProcId from_proc = 0;
  ProcId to_proc = 0;
};

using Route = std::vector<Hop>;

/// All-pairs minimal-hop routes (BFS). Routes are stable per construction.
class RouteTable {
 public:
  explicit RouteTable(const ArchitectureGraph& arch);

  /// Route from p to q (empty when p == q). Throws std::runtime_error if the
  /// architecture is disconnected between p and q.
  const Route& route(ProcId p, ProcId q) const;

  bool connected(ProcId p, ProcId q) const;

 private:
  std::size_t n_ = 0;
  std::vector<Route> routes_;     // n*n, row-major
  std::vector<bool> reachable_;   // n*n
  const Route& at(ProcId p, ProcId q) const { return routes_[p * n_ + q]; }
};

}  // namespace ecsim::aaa
