#include "baseline/optimal.h"

#include <algorithm>
#include <map>

#include "core/assign_explore.h"
#include "core/assigned.h"
#include "core/bound.h"
#include "core/legality.h"
#include "core/spill.h"
#include "support/error.h"
#include "support/timer.h"

namespace aviv {

namespace {

struct BitsetLess {
  bool operator()(const DynBitset& a, const DynBitset& b) const {
    return a.lexLess(b);
  }
};

// Branch-and-bound over schedules of one assignment.
class ScheduleSearch {
 public:
  ScheduleSearch(const AssignedGraph& graph, const ConstraintDatabase& cons,
                 const WallTimer& timer, double deadline, int* best,
                 size_t* statesVisited)
      : graph_(graph),
        cons_(cons),
        timer_(timer),
        deadline_(deadline),
        best_(best),
        states_(statesVisited),
        bound_(graph) {}

  // True when the search space was exhausted (not cut by the deadline).
  bool run() {
    DynBitset covered(graph_.size());
    for (AgId id = 0; id < graph_.size(); ++id)
      if (graph_.node(id).deleted()) covered.set(id);
    expired_ = false;
    dfs(covered, 0);
    return !expired_;
  }

 private:
  void dfs(const DynBitset& covered, int depth) {
    if (expired_) return;
    if ((++*states_ & 0x3ff) == 0 && timer_.seconds() > deadline_) {
      expired_ = true;
      return;
    }
    size_t coveredCount = covered.count();
    if (coveredCount == graph_.size()) {
      *best_ = std::min(*best_, depth);
      return;
    }
    if (depth + bound_.exact(covered) >= *best_) return;

    // Dominance: a state reached at equal-or-smaller depth before subsumes
    // this one.
    if (const auto it = memo_.find(covered);
        it != memo_.end() && it->second <= depth)
      return;
    memo_[covered] = depth;

    // Ready nodes.
    std::vector<AgId> ready;
    for (AgId id = 0; id < graph_.size(); ++id) {
      if (covered.test(id)) continue;
      bool allPreds = true;
      for (AgId pred : graph_.node(id).preds)
        allPreds &= covered.test(pred);
      if (allPreds) ready.push_back(id);
    }
    AVIV_CHECK(!ready.empty());

    // Enumerate every legal nonempty subset of ready nodes, larger first.
    std::vector<DynBitset> subsets;
    DynBitset current(graph_.size());
    enumerateSubsets(ready, 0, current, covered, subsets);
    std::sort(subsets.begin(), subsets.end(),
              [](const DynBitset& a, const DynBitset& b) {
                return a.count() > b.count();
              });
    for (const DynBitset& subset : subsets) {
      DynBitset next = covered;
      next |= subset;
      dfs(next, depth + 1);
      if (expired_) return;
    }
  }

  void enumerateSubsets(const std::vector<AgId>& ready, size_t idx,
                        DynBitset& current, const DynBitset& covered,
                        std::vector<DynBitset>& out) {
    if (idx == ready.size()) {
      if (current.none()) return;
      if (!cliqueIsLegal(current, graph_, cons_)) return;
      if (!pressureWithinLimits(graph_,
                                bankPressure(graph_, covered, &current)))
        return;
      out.push_back(current);
      return;
    }
    // Exclude ready[idx].
    enumerateSubsets(ready, idx + 1, current, covered, out);
    // Include ready[idx] if structurally compatible so far (unit clash
    // pruning; bus/constraint/pressure checked at the leaf).
    const AgNode& n = graph_.node(ready[idx]);
    bool clash = false;
    if (n.kind == AgKind::kOp) {
      current.forEach([&](size_t i) {
        const AgNode& o = graph_.node(static_cast<AgId>(i));
        clash |= o.kind == AgKind::kOp && o.unit == n.unit;
      });
    }
    if (!clash) {
      current.set(ready[idx]);
      enumerateSubsets(ready, idx + 1, current, covered, out);
      current.reset(ready[idx]);
    }
  }

  const AssignedGraph& graph_;
  const ConstraintDatabase& cons_;
  const WallTimer& timer_;
  double deadline_;
  int* best_;
  size_t* states_;
  CoverBound bound_;  // no spills here, so the exact bound applies
  bool expired_ = false;
  std::map<DynBitset, int, BitsetLess> memo_;
};

}  // namespace

OptimalResult optimalCodeSize(const BlockDag& ir, const Machine& machine,
                              const MachineDatabases& dbs,
                              const OptimalOptions& options) {
  WallTimer timer;
  OptimalResult result;

  CodegenOptions coreOptions = CodegenOptions::heuristicsOff();
  coreOptions.enableComplexPatterns = options.enableComplexPatterns;
  coreOptions.outputsToMemory = options.outputsToMemory;
  coreOptions.maxAssignments = options.maxAssignments;

  const SplitNodeDag snd = SplitNodeDag::build(ir, machine, dbs, coreOptions);
  AssignmentExplorer explorer(snd, coreOptions);
  ExploreStats exploreStats;
  const std::vector<Assignment> assignments = explorer.explore(&exploreStats);

  int best = options.incumbent;
  bool allExhausted = !exploreStats.capped;
  for (const Assignment& assignment : assignments) {
    if (timer.seconds() > options.timeLimitSeconds) {
      allExhausted = false;
      break;
    }
    AssignedGraph graph =
        AssignedGraph::materialize(snd, assignment, coreOptions);
    ScheduleSearch search(graph, dbs.constraints, timer,
                          options.timeLimitSeconds, &best,
                          &result.statesVisited);
    allExhausted &= search.run();
    result.assignmentsSearched += 1;
  }

  result.instructions = best == INT32_MAX ? -1 : best;
  // "Proven" requires exhausting the space; an unprimed incumbent that was
  // never beaten means infeasible-without-spills, which is also a proof
  // when the space was exhausted.
  result.proven = allExhausted;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace aviv
