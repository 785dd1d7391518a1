// Admissible lower bounds on the VLIW instructions still needed to finish
// covering an AssignedGraph from a given covered set. One module serves both
// searches that bound: the covering engine, which abandons a candidate
// assignment that can no longer beat the incumbent (paper Section IV-D's
// "heuristic branch-and-bound"), and the exact schedule search of
// baseline/optimal.
//
// Terms, each a count of instructions no schedule of the remaining nodes
// can do without:
//   * per functional unit, the uncovered ops assigned to it (one op per
//     unit per instruction);
//   * the op chain: the most ops on one dependency path of uncovered nodes
//     (each op on a path needs a later instruction than the one before);
//   * the critical path: the most nodes of any kind on one such path;
//   * per bus, the uncovered transfers on it divided by its capacity.
//
// Only the first two are spill-invariant. A spill adds store/reload hops
// and deletes transfer hops, but never adds, removes or reassigns an op,
// and every dependency between two uncovered ops survives it (a consumer
// rewired onto a reload still descends from the spilled value's producer).
// The critical path and the bus counts can shrink: a spill can replace a
// 3-hop transfer chain with a store and a reload. So the covering engine,
// which spills, may use only spillInvariant(); exact() is for searches that
// never spill.
#pragma once

#include <vector>

#include "core/assigned.h"
#include "support/bitset.h"

namespace aviv {

class CoverBound {
 public:
  // Precomputes the per-node path lengths of `graph`.
  explicit CoverBound(const AssignedGraph& graph) { reset(graph); }

  // Recomputes after the graph changed (a spill grew it).
  void reset(const AssignedGraph& graph);

  // max(per-unit uncovered ops, op-chain length) over the uncovered nodes.
  [[nodiscard]] int spillInvariant(const DynBitset& covered);

  // max(critical path, per-unit ops, per-bus transfers / capacity) over the
  // uncovered nodes. Valid only while no spill can change the graph.
  [[nodiscard]] int exact(const DynBitset& covered);

 private:
  const AssignedGraph* graph_ = nullptr;
  std::vector<int> height_;   // nodes on the longest path to a sink, minus 1
  std::vector<int> opChain_;  // ops on the longest path to a sink
  std::vector<int> unitLeft_;  // scratch, indexed by UnitId
  std::vector<int> busLeft_;   // scratch, indexed by BusId
};

}  // namespace aviv
