// The covering engine (paper Sections IV-D and IV-E): selects a minimum-
// cost set of maximal cliques covering every node of an assignment, which
// simultaneously fixes the VLIW instruction grouping, the schedule (cliques
// are selected bottom-up, producers before consumers), and the register-bank
// allocation feasibility (a running liveness upper bound per bank; when all
// remaining selectable cliques would exceed a bank, a victim value is
// spilled: a store chain is appended, pending consumers are rewired onto
// reload chains, redundant transfers are deleted — Fig 9 — and the cliques
// are regenerated).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/assigned.h"
#include "core/options.h"
#include "core/workspace.h"
#include "isdl/databases.h"
#include "support/bitset.h"
#include "support/deadline.h"

namespace aviv {

// The covering solution: one inner vector per VLIW instruction, in schedule
// order; members are AgNode ids (ascending within an instruction).
struct Schedule {
  std::vector<std::vector<AgId>> instrs;

  [[nodiscard]] int numInstructions() const {
    return static_cast<int>(instrs.size());
  }
  // cycle[agId] = instruction index; -1 for unscheduled/deleted nodes.
  [[nodiscard]] std::vector<int> cycles(size_t graphSize) const;
};

struct CoverStats {
  size_t cliquesGenerated = 0;  // across all regeneration rounds
  size_t cliqueRounds = 0;
  size_t cliqueRecursions = 0;      // branch-and-bound recursions in clique
                                    // generation, summed across rounds
  size_t cliquePruned = 0;          // clique branches cut by the bound
  size_t candidatesEvaluated = 0;   // clique ∩ ready candidates scored
  size_t candidatesAbandoned = 0;   // candidates abandoned with no fitting
                                    // member subset (register pressure)
  int spillsInserted = 0;  // victim values spilled (Table I "#Spills")
  // Largest (instructions emitted + spill-invariant remaining bound) seen at
  // any round start: a lower bound on this candidate's final instruction
  // count, and what the abandon test compares with the incumbent.
  int lowerBound = 0;
};

class CoveringEngine {
 public:
  // `graph` is mutated when spills are inserted. `xferDb` provides spill
  // store/load routes. When `deadline` is non-null it is polled once per
  // covering round; expiry throws DeadlineExceeded (the partially covered
  // schedule is unusable — callers keep an earlier complete candidate or
  // degrade to the baseline). When `ws` is given all per-round/per-clique
  // scratch (bitsets, pressure vectors, the parallelism matrix, the clique
  // recursion arena) lives in it, so a warm workspace covers a candidate
  // without touching malloc; otherwise a private workspace is created.
  CoveringEngine(AssignedGraph& graph, const TransferDatabase& xferDb,
                 const ConstraintDatabase& constraints,
                 const CodegenOptions& options,
                 const Deadline* deadline = nullptr,
                 CoverWorkspace* ws = nullptr);

  // Runs the covering; throws aviv::Error when the register files are too
  // small to hold the block's outputs / any feasible schedule.
  [[nodiscard]] Schedule run(CoverStats* stats = nullptr);

  // Branch-and-bound form: at the start of every round, abandons the
  // candidate (returns nullopt) when the instructions
  // emitted plus the spill-invariant bound on the rest (core/bound.h)
  // exceed `incumbent`. The test is strict, so an abandoned candidate could
  // neither beat nor tie the incumbent. Otherwise identical to run().
  [[nodiscard]] std::optional<Schedule> run(CoverStats* stats, int incumbent);

 private:
  AssignedGraph& graph_;
  const TransferDatabase& xferDb_;
  const ConstraintDatabase& constraints_;
  const CodegenOptions& options_;
  const Deadline* deadline_;
  CoverWorkspace* ws_;
  std::unique_ptr<CoverWorkspace> ownedWs_;  // fallback when ws == nullptr
};

// Asserts (AVIV_REQUIRE — recoverable, so a daemon request that trips an
// invariant fails without killing the process) that `schedule` is a valid
// execution of `graph`: every active node exactly once, dependencies
// strictly earlier, unit/bus/constraint legality per instruction, and
// per-bank register pressure within the machine's register counts.
void verifySchedule(const AssignedGraph& graph, const Schedule& schedule,
                    const ConstraintDatabase& constraints);

}  // namespace aviv
