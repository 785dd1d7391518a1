#include "core/bound.h"

#include <algorithm>

namespace aviv {

void CoverBound::reset(const AssignedGraph& graph) {
  graph_ = &graph;
  const size_t n = graph.size();
  height_.assign(n, 0);
  opChain_.assign(n, 0);
  unitLeft_.assign(graph.machine().units().size(), 0);
  busLeft_.assign(graph.machine().buses().size(), 0);

  // Sinks first: a node is finished once every successor is.
  std::vector<AgId> order;
  std::vector<uint32_t> pending(n, 0);
  order.reserve(n);
  for (AgId id = 0; id < n; ++id) {
    const AgNode& node = graph.node(id);
    if (node.deleted()) continue;
    pending[id] = static_cast<uint32_t>(node.succs.size());
    if (pending[id] == 0) order.push_back(id);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    const AgId id = order[head];
    const AgNode& node = graph.node(id);
    int height = 0;
    int chain = 0;
    for (AgId succ : node.succs) {
      height = std::max(height, height_[succ] + 1);
      chain = std::max(chain, opChain_[succ]);
    }
    height_[id] = height;
    opChain_[id] = chain + (node.kind == AgKind::kOp ? 1 : 0);
    for (AgId pred : node.preds)
      if (--pending[pred] == 0) order.push_back(pred);
  }
}

int CoverBound::spillInvariant(const DynBitset& covered) {
  const AssignedGraph& graph = *graph_;
  int bound = 0;
  for (AgId id = 0; id < graph.size(); ++id) {
    if (covered.test(id)) continue;
    const AgNode& node = graph.node(id);
    if (node.kind != AgKind::kOp) continue;
    bound = std::max(bound, std::max(opChain_[id], ++unitLeft_[node.unit]));
  }
  std::fill(unitLeft_.begin(), unitLeft_.end(), 0);
  return bound;
}

int CoverBound::exact(const DynBitset& covered) {
  const AssignedGraph& graph = *graph_;
  int bound = 0;
  for (AgId id = 0; id < graph.size(); ++id) {
    const AgNode& node = graph.node(id);
    if (node.deleted() || covered.test(id)) continue;
    bound = std::max(bound, height_[id] + 1);
    if (node.kind == AgKind::kOp)
      bound = std::max(bound, ++unitLeft_[node.unit]);
    if (node.isTransferish()) busLeft_[graph.busOf(id)] += 1;
  }
  for (size_t bus = 0; bus < busLeft_.size(); ++bus) {
    const int cap = graph.machine().bus(static_cast<BusId>(bus)).capacity;
    bound = std::max(bound, (busLeft_[bus] + cap - 1) / cap);
    busLeft_[bus] = 0;
  }
  std::fill(unitLeft_.begin(), unitLeft_.end(), 0);
  return bound;
}

}  // namespace aviv
