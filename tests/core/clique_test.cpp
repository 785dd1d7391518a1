#include "core/clique.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/assign_explore.h"
#include "core/assigned.h"
#include "core/cover.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/rng.h"

namespace aviv {
namespace {

// The hot-path generator (pivoted Bron–Kerbosch) against the paper's Fig 8
// algorithm as the independent oracle: same canonical clique set.
void expectSameCliques(const ParallelismMatrix& matrix,
                       const DynBitset& active) {
  CliqueGenStats stats;
  const auto bronKerbosch =
      generateMaximalCliques(matrix, active, 100000, &stats);
  const auto fig8 = fig8MaximalCliques(matrix, active, 100000);
  EXPECT_FALSE(stats.capped);
  ASSERT_EQ(bronKerbosch.size(), fig8.size());
  for (size_t i = 0; i < fig8.size(); ++i) EXPECT_EQ(bronKerbosch[i], fig8[i]);
}

TEST(CliqueGen, MatchesBronKerboschOnRealBlocks) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  for (const char* block : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
    const BlockDag dag = loadBlock(block);
    const CodegenOptions options;
    const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
    const auto assignment =
        AssignmentExplorer(snd, options).explore().front();
    const AssignedGraph graph =
        AssignedGraph::materialize(snd, assignment, options);
    const ParallelismMatrix matrix(graph, /*levelWindow=*/-1);
    DynBitset active(graph.size(), true);
    expectSameCliques(matrix, active);
  }
}

// Property test on random graphs: build a synthetic AssignedGraph-like
// parallelism structure by generating random matrices directly. Since
// ParallelismMatrix requires a graph, we instead probe the generator
// through random *subsets* of a real graph's nodes.
TEST(CliqueGen, MatchesBronKerboschOnRandomActiveSubsets) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex4");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);

  Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    DynBitset active(graph.size());
    for (size_t i = 0; i < graph.size(); ++i)
      if (rng.chance(0.6)) active.set(i);
    expectSameCliques(matrix, active);
  }
}

TEST(CliqueGen, EveryNodeCoveredByAtLeastOneClique) {
  const Machine machine = loadMachine("arch2");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex2");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  const auto cliques = generateMaximalCliques(matrix, active, 100000);
  DynBitset covered(graph.size());
  for (const DynBitset& clique : cliques) covered |= clique;
  EXPECT_EQ(covered, active);
}

TEST(CliqueGen, CliquesArePairwiseParallelAndMaximal) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex3");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  const auto cliques = generateMaximalCliques(matrix, active, 100000);
  ASSERT_FALSE(cliques.empty());
  for (const DynBitset& clique : cliques) {
    const auto members = clique.toIndices();
    for (size_t i = 0; i < members.size(); ++i)
      for (size_t j = i + 1; j < members.size(); ++j)
        EXPECT_TRUE(matrix.parallel(static_cast<AgId>(members[i]),
                                    static_cast<AgId>(members[j])));
    // Maximality: no outside node parallel with every member.
    for (size_t n = 0; n < graph.size(); ++n) {
      if (clique.test(n) || !active.test(n)) continue;
      bool withAll = true;
      for (size_t m : members)
        withAll &= matrix.parallel(static_cast<AgId>(n),
                                   static_cast<AgId>(m));
      EXPECT_FALSE(withAll) << "clique not maximal: can add " << n;
    }
  }
}

TEST(CliqueGen, LevelWindowReducesCliqueCount) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex5");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  DynBitset active(graph.size(), true);

  const ParallelismMatrix full(graph, -1);
  const ParallelismMatrix windowed(graph, 1);
  CliqueGenStats fullStats;
  CliqueGenStats windowedStats;
  (void)generateMaximalCliques(full, active, 1000000, &fullStats);
  (void)generateMaximalCliques(windowed, active, 1000000, &windowedStats);
  EXPECT_LE(windowedStats.emitted, fullStats.emitted);
}

// The cap is deterministic and exact: a capped run returns the first
// maxCliques cliques of the generator's fixed enumeration order (a subset of
// the full canonical set, itself in canonical order), and `capped` is set
// iff at least one maximal clique was dropped.
TEST(CliqueGen, CapSetsFlag) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex5");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  CliqueGenStats fullStats;
  const auto full = generateMaximalCliques(matrix, active, 100000, &fullStats);
  ASSERT_GT(full.size(), 2u);
  EXPECT_FALSE(fullStats.capped);

  CliqueGenStats stats;
  const auto cliques = generateMaximalCliques(matrix, active, 2, &stats);
  EXPECT_EQ(cliques.size(), 2u);
  EXPECT_TRUE(stats.capped);
  EXPECT_TRUE(std::is_sorted(
      cliques.begin(), cliques.end(),
      [](const DynBitset& a, const DynBitset& b) { return a.lexLess(b); }));
  for (const DynBitset& clique : cliques)
    EXPECT_NE(std::find(full.begin(), full.end(), clique), full.end());
  CliqueGenStats again;
  EXPECT_EQ(generateMaximalCliques(matrix, active, 2, &again), cliques);
  EXPECT_EQ(again.recursions, stats.recursions);

  // Exactly at the clique count nothing is dropped; one below, one is.
  CliqueGenStats exact;
  EXPECT_EQ(generateMaximalCliques(matrix, active, full.size(), &exact), full);
  EXPECT_FALSE(exact.capped);
  CliqueGenStats oneShort;
  EXPECT_EQ(
      generateMaximalCliques(matrix, active, full.size() - 1, &oneShort)
          .size(),
      full.size() - 1);
  EXPECT_TRUE(oneShort.capped);
}

// A capped round may miss nodes; the covering engine backfills singletons,
// so a covering under a tiny cap still schedules every node legally
// (CoveringEngine::run verifies its schedule before returning).
TEST(CliqueGen, CappedRoundsStillCoverEveryNode) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  for (const char* block : {"ex2", "ex5"}) {
    CodegenOptions options;
    options.maxCliquesPerRound = 1;
    const BlockDag dag = loadBlock(block);
    const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
    const auto assignment =
        AssignmentExplorer(snd, options).explore().front();
    AssignedGraph graph = AssignedGraph::materialize(snd, assignment, options);
    CoveringEngine engine(graph, dbs.transfers, dbs.constraints, options);
    CoverStats stats;
    const Schedule schedule = engine.run(&stats);
    EXPECT_GT(schedule.numInstructions(), 0) << block;
  }
}

TEST(CliqueGen, SingleNodeGraphGivesSingletonClique) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = ~a; }");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  // Load then compl: serial chain -> two singleton cliques.
  DynBitset active(graph.size(), true);
  const auto cliques = generateMaximalCliques(matrix, active, 100);
  EXPECT_EQ(cliques.size(), 2u);
  for (const auto& clique : cliques) EXPECT_EQ(clique.count(), 1u);
}

}  // namespace
}  // namespace aviv
