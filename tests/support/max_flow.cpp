#include "support/max_flow.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace alvc::graph {

FlowNetwork::FlowNetwork(std::size_t vertex_count) : vertex_count_(vertex_count) {}

std::size_t FlowNetwork::add_edge(std::size_t u, std::size_t v, double capacity) {
  if (u >= vertex_count_ || v >= vertex_count_) {
    throw std::out_of_range("FlowNetwork: vertex out of range");
  }
  if (capacity < 0) throw std::invalid_argument("FlowNetwork: negative capacity");
  const std::size_t forward = arcs_.size();
  arcs_.push_back(Arc{v, forward + 1, capacity, 0});
  arcs_.push_back(Arc{u, forward, 0, 0});
  csr_stale_ = true;
  return forward;
}

void FlowNetwork::ensure_csr() {
  if (!csr_stale_) return;
  // Arc e's owner is the tail vertex — recoverable as the paired residual
  // arc's head. Arcs were pushed in (forward, reverse) order, which is the
  // same global order the old per-vertex push_backs ran in, so filling in
  // arc-index order reproduces each vertex's arc sequence exactly.
  offsets_.assign(vertex_count_ + 1, 0);
  for (const Arc& arc : arcs_) ++offsets_[arcs_[arc.reverse].to + 1];
  for (std::size_t v = 0; v < vertex_count_; ++v) offsets_[v + 1] += offsets_[v];
  arc_index_.resize(arcs_.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t e = 0; e < arcs_.size(); ++e) {
    arc_index_[cursor[arcs_[arcs_[e].reverse].to]++] = e;
  }
  csr_stale_ = false;
}

bool FlowNetwork::bfs_layers(std::size_t s, std::size_t t) {
  level_.assign(vertex_count_, -1);
  frontier_.clear();
  level_[s] = 0;
  frontier_.push_back(s);
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const std::size_t v = frontier_[head];
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const Arc& arc = arcs_[arc_index_[i]];
      if (level_[arc.to] == -1 && arc.capacity - arc.flow > 1e-12) {
        level_[arc.to] = level_[v] + 1;
        frontier_.push_back(arc.to);
      }
    }
  }
  return level_[t] != -1;
}

double FlowNetwork::dfs_push(std::size_t v, std::size_t t, double pushed) {
  if (v == t || pushed <= 0) return pushed;
  for (std::size_t& i = next_arc_[v]; i < offsets_[v + 1]; ++i) {
    Arc& arc = arcs_[arc_index_[i]];
    if (level_[arc.to] != level_[v] + 1) continue;
    const double residual = arc.capacity - arc.flow;
    if (residual <= 1e-12) continue;
    const double got = dfs_push(arc.to, t, std::min(pushed, residual));
    if (got > 0) {
      arc.flow += got;
      arcs_[arc.reverse].flow -= got;
      return got;
    }
  }
  return 0;
}

double FlowNetwork::max_flow(std::size_t s, std::size_t t) {
  if (s >= vertex_count_ || t >= vertex_count_) {
    throw std::out_of_range("FlowNetwork: terminal out of range");
  }
  if (s == t) throw std::invalid_argument("FlowNetwork: source equals sink");
  ensure_csr();
  for (auto& arc : arcs_) arc.flow = 0;
  double total = 0;
  while (bfs_layers(s, t)) {
    next_arc_.assign(offsets_.begin(), offsets_.end() - 1);
    for (;;) {
      const double pushed = dfs_push(s, t, std::numeric_limits<double>::infinity());
      if (pushed <= 0) break;
      total += pushed;
    }
  }
  return total;
}

double FlowNetwork::flow_on(std::size_t e) const { return arcs_.at(e).flow; }

double FlowNetwork::capacity_of(std::size_t e) const { return arcs_.at(e).capacity; }

}  // namespace alvc::graph
