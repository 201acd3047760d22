#include "aaa/routing.hpp"

#include <deque>
#include <stdexcept>

namespace ecsim::aaa {

RouteTable::RouteTable(const ArchitectureGraph& arch)
    : n_(arch.num_processors()),
      routes_(n_ * n_),
      reachable_(n_ * n_, false) {
  // BFS from each source processor over edges (proc -[medium]-> proc).
  for (ProcId src = 0; src < n_; ++src) {
    std::vector<bool> visited(n_, false);
    std::vector<Hop> via(n_);       // hop that reached each proc
    std::vector<ProcId> parent(n_, kNone);
    visited[src] = true;
    std::deque<ProcId> frontier{src};
    while (!frontier.empty()) {
      const ProcId cur = frontier.front();
      frontier.pop_front();
      for (MediumId m : arch.media_of(cur)) {
        for (ProcId nb : arch.procs_on(m)) {
          if (visited[nb]) continue;
          visited[nb] = true;
          via[nb] = Hop{m, cur, nb};
          parent[nb] = cur;
          frontier.push_back(nb);
        }
      }
    }
    for (ProcId dst = 0; dst < n_; ++dst) {
      if (!visited[dst]) continue;
      reachable_[src * n_ + dst] = true;
      if (dst == src) continue;
      Route rev;
      for (ProcId cur = dst; cur != src; cur = parent[cur]) {
        rev.push_back(via[cur]);
      }
      Route& route = routes_[src * n_ + dst];
      route.assign(rev.rbegin(), rev.rend());
    }
  }
}

const Route& RouteTable::route(ProcId p, ProcId q) const {
  if (p >= n_ || q >= n_) throw std::out_of_range("RouteTable::route");
  if (!reachable_[p * n_ + q]) {
    throw std::runtime_error("RouteTable: processors are not connected");
  }
  return at(p, q);
}

bool RouteTable::connected(ProcId p, ProcId q) const {
  if (p >= n_ || q >= n_) return false;
  return reachable_[p * n_ + q];
}

}  // namespace ecsim::aaa
