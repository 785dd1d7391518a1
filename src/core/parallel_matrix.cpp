#include "core/parallel_matrix.h"

#include <algorithm>

#include "core/workspace.h"
#include "support/error.h"
#include "support/table.h"

namespace aviv {

ParallelismMatrix::ParallelismMatrix(const AssignedGraph& graph,
                                     int levelWindow) {
  CoverWorkspace ws;
  rebuild(graph, levelWindow, ws);
}

void ParallelismMatrix::rebuild(const AssignedGraph& graph, int levelWindow,
                                CoverWorkspace& ws) {
  const size_t n = graph.size();
  const Machine& machine = graph.machine();
  rows_.resize(n);
  const std::vector<DynBitset>& desc = graph.computeDescendantsInto(ws);

  // Word-parallel: each row starts as every live node, minus the node's
  // descendants and ancestors, minus the nodes it contends with for a
  // resource (one mask per unit and per single-capacity bus), intersected
  // with the level window. The relations are symmetric, so the rows are.
  DynBitset& live = ws.matrixLive;
  live.clearAndResize(n);
  auto resetMasks = [n](std::vector<DynBitset>& masks, size_t count) {
    if (masks.size() < count) masks.resize(count);
    for (size_t i = 0; i < count; ++i) masks[i].clearAndResize(n);
  };
  std::vector<DynBitset>& unitMask = ws.unitMask;
  std::vector<DynBitset>& busMask = ws.busMask;
  std::vector<DynBitset>& ancestors = ws.ancestors;
  resetMasks(unitMask, machine.units().size());
  resetMasks(busMask, machine.buses().size());
  resetMasks(ancestors, n);
  for (AgId a = 0; a < n; ++a) {
    const AgNode& na = graph.node(a);
    if (na.deleted()) continue;
    live.set(a);
    if (na.kind == AgKind::kOp) unitMask[na.unit].set(a);
    if (na.isTransferish()) {
      const BusId bus = graph.busOf(a);
      if (machine.bus(bus).capacity <= 1) busMask[bus].set(a);
    }
    desc[a].forEach([&](size_t d) { ancestors[d].set(a); });
  }

  // Levels over the topological order the descendant pass left in ws
  // (deleted nodes stay at 0, as in AssignedGraph::levelsFromTop).
  std::vector<int>& top = ws.levelTop;
  std::vector<int>& bottom = ws.levelBottom;
  top.assign(n, 0);
  for (size_t i = ws.topoOrder.size(); i-- > 0;) {
    const AgId id = ws.topoOrder[i];
    for (AgId succ : graph.node(id).succs)
      top[id] = std::max(top[id], top[succ] + 1);
  }

  std::vector<DynBitset>& topMask = ws.topLevelMask;
  std::vector<DynBitset>& bottomMask = ws.bottomLevelMask;
  if (levelWindow >= 0) {
    bottom.assign(n, 0);
    for (const AgId id : ws.topoOrder)
      for (AgId pred : graph.node(id).preds)
        bottom[id] = std::max(bottom[id], bottom[pred] + 1);
    const size_t levels = n + 1;
    resetMasks(topMask, levels);
    resetMasks(bottomMask, levels);
    live.forEach([&](size_t a) {
      topMask[static_cast<size_t>(top[a])].set(a);
      bottomMask[static_cast<size_t>(bottom[a])].set(a);
    });
  }
  DynBitset& window = ws.matrixWindow;
  auto levelBand = [&](const std::vector<DynBitset>& masks,
                       int level) -> const DynBitset& {
    window.clearAndResize(n);
    const int lo = std::max(0, level - levelWindow);
    const int hi = std::min(static_cast<int>(n), level + levelWindow);
    for (int l = lo; l <= hi; ++l) window |= masks[static_cast<size_t>(l)];
    return window;
  };

  for (AgId a = 0; a < n; ++a) {
    DynBitset& row = rows_[a];
    row.clearAndResize(n);
    const AgNode& na = graph.node(a);
    if (na.deleted()) continue;
    row |= live;
    row.reset(a);
    row.andNot(desc[a]);
    row.andNot(ancestors[a]);
    if (na.kind == AgKind::kOp) row.andNot(unitMask[na.unit]);
    if (na.isTransferish()) {
      const BusId bus = graph.busOf(a);
      if (machine.bus(bus).capacity <= 1) row.andNot(busMask[bus]);
    }
    if (levelWindow >= 0) {
      row &= levelBand(topMask, top[a]);
      row &= levelBand(bottomMask, bottom[a]);
    }
  }
#if AVIV_DCHECKS_ENABLED
  // A deleted node participates in no instruction: its row must stay empty,
  // or the clique generator would schedule a ghost.
  for (AgId a = 0; a < n; ++a)
    if (graph.node(a).deleted())
      AVIV_DCHECK_MSG(rows_[a].none(),
                      "deleted node has parallelism-matrix entries");
#endif
}

std::string ParallelismMatrix::str(
    const std::vector<AgId>& subset,
    const std::vector<std::string>& labels) const {
  AVIV_CHECK(subset.size() == labels.size());
  std::vector<std::string> headers{""};
  headers.insert(headers.end(), labels.begin(), labels.end());
  TextTable table(headers);
  for (size_t i = 0; i < subset.size(); ++i) {
    std::vector<std::string> row{labels[i]};
    for (size_t j = 0; j < subset.size(); ++j) {
      const bool conflict =
          i != j ? !parallel(subset[i], subset[j]) : false;
      row.push_back(conflict ? "1" : "0");
    }
    table.addRow(std::move(row));
  }
  return table.str();
}

}  // namespace aviv
