#include "core/legality.h"

#include <algorithm>

#include "support/error.h"

namespace aviv {

namespace {

// Per-call scratch for findViolatingNode: bus loads in arrays indexed by
// BusId (a machine has a handful of buses), plus the op selections for the
// constraint check. Reused across every clique of one enforceLegality call.
struct LegalityScratch {
  std::vector<int> busLoad;
  std::vector<AgId> busLast;  // highest-id member using the bus
  std::vector<OpSel> sels;
  std::vector<AgId> selNodes;

  explicit LegalityScratch(const Machine& machine)
      : busLoad(machine.buses().size(), 0),
        busLast(machine.buses().size(), kNoAg) {}
};

// Returns kNoAg when legal, else a node whose removal repairs (part of) the
// violation.
AgId findViolatingNode(const DynBitset& clique, const AssignedGraph& graph,
                       const ConstraintDatabase& constraints,
                       LegalityScratch& scratch) {
  const Machine& machine = graph.machine();
  // Bus capacities: the first oversubscribed bus (in bus order) gives up
  // its highest-id transfer.
  bool anyTransfer = false;
  clique.forEach([&](size_t i) {
    const AgId id = static_cast<AgId>(i);
    if (!graph.node(id).isTransferish()) return;
    const BusId bus = graph.busOf(id);
    scratch.busLoad[bus] += 1;
    scratch.busLast[bus] = id;
    anyTransfer = true;
  });
  if (anyTransfer) {
    AgId offender = kNoAg;
    for (size_t bus = 0; bus < scratch.busLoad.size(); ++bus) {
      if (offender == kNoAg &&
          scratch.busLoad[bus] >
              machine.bus(static_cast<BusId>(bus)).capacity)
        offender = scratch.busLast[bus];
      scratch.busLoad[bus] = 0;
    }
    if (offender != kNoAg) return offender;
  }

  // ISDL constraints over the operation selections.
  if (constraints.size() > 0) {
    std::vector<OpSel>& sels = scratch.sels;
    std::vector<AgId>& selNodes = scratch.selNodes;
    sels.clear();
    selNodes.clear();
    clique.forEach([&](size_t i) {
      const AgNode& n = graph.node(static_cast<AgId>(i));
      if (n.kind == AgKind::kOp) {
        sels.push_back({n.unit, n.machineOp});
        selNodes.push_back(static_cast<AgId>(i));
      }
    });
    if (const Constraint* violated = constraints.firstViolated(sels)) {
      // Drop the last clique member participating in the constraint.
      for (size_t i = selNodes.size(); i-- > 0;) {
        for (const OpSel& sel : violated->together) {
          if (sels[i] == sel) return selNodes[i];
        }
      }
      AVIV_UNREACHABLE("violated constraint without participating node");
    }
  }
  return kNoAg;
}

}  // namespace

bool cliqueIsLegal(const DynBitset& clique, const AssignedGraph& graph,
                   const ConstraintDatabase& constraints) {
  LegalityScratch scratch(graph.machine());
  return findViolatingNode(clique, graph, constraints, scratch) == kNoAg;
}

std::vector<DynBitset> enforceLegality(std::vector<DynBitset> cliques,
                                       const AssignedGraph& graph,
                                       const ConstraintDatabase& constraints) {
  LegalityScratch scratch(graph.machine());
  std::vector<DynBitset> legal;
  legal.reserve(cliques.size());
  bool split = false;
  // Worklist: split until every piece is legal.
  while (!cliques.empty()) {
    DynBitset clique = std::move(cliques.back());
    cliques.pop_back();
    const AgId offender =
        findViolatingNode(clique, graph, constraints, scratch);
    if (offender == kNoAg) {
      legal.push_back(std::move(clique));
      continue;
    }
    AVIV_CHECK(clique.count() >= 2);
    // Split into {clique - offender} and {offender} — both strictly
    // smaller, so this terminates; singletons are always legal.
    split = true;
    DynBitset rest = clique;
    rest.reset(offender);
    DynBitset alone(clique.size());
    alone.set(offender);
    cliques.push_back(std::move(rest));
    cliques.push_back(std::move(alone));
  }

  // Canonical order (larger first, then lexicographic), deduplicated.
  std::sort(legal.begin(), legal.end(),
            [](const DynBitset& a, const DynBitset& b) {
              if (a.count() != b.count()) return a.count() > b.count();
              return a.lexLess(b);
            });
  legal.erase(std::unique(legal.begin(), legal.end()), legal.end());
  // Distinct maximal cliques are never subsets of one another, so without a
  // split the sorted set is the answer. A split can leave pieces that are
  // strict subsets of other cliques: drop them.
  if (!split) return legal;
  std::vector<DynBitset> result;
  for (DynBitset& clique : legal) {
    bool subset = false;
    for (const DynBitset& kept : result) {
      if (clique.isSubsetOf(kept)) {
        subset = true;
        break;
      }
    }
    if (!subset) result.push_back(std::move(clique));
  }
  return result;
}

}  // namespace aviv
