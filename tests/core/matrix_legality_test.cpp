#include <gtest/gtest.h>

#include "core/assign_explore.h"
#include "core/clique.h"
#include "core/legality.h"
#include "core/parallel_matrix.h"
#include "core/spill.h"
#include "core/workspace.h"
#include "ir/parser.h"
#include "isdl/parser.h"

namespace aviv {
namespace {

// Fixture resources for one materialized assignment.
struct Materialized {
  BlockDag dag;
  Machine machine;
  MachineDatabases dbs;
  SplitNodeDag snd;
  AssignedGraph graph;

  Materialized(const std::string& source, const std::string& machineName,
               CodegenOptions options = {})
      : dag(parseBlock(source)),
        machine(loadMachine(machineName)),
        dbs(machine),
        snd(SplitNodeDag::build(dag, machine, dbs, options)),
        graph(AssignedGraph::materialize(
            snd, AssignmentExplorer(snd, options).explore().front(),
            options)) {}
};

TEST(ParallelismMatrix, DependentNodesConflict) {
  Materialized m("block t { input a, b; output y; y = (a + b) * a; }",
                 "arch1");
  const ParallelismMatrix matrix(m.graph, -1);
  // Every (pred, succ) pair conflicts.
  for (AgId id = 0; id < m.graph.size(); ++id) {
    for (AgId succ : m.graph.node(id).succs)
      EXPECT_FALSE(matrix.parallel(id, succ));
  }
}

TEST(ParallelismMatrix, SameUnitOpsConflict) {
  // Two independent adds; force both onto U1 via a machine with one unit.
  const Machine machine = parseMachine(R"(
    machine M {
      regfile A size 8;
      memory DM size 64 data;
      bus X capacity 4;
      unit U regfile A { op ADD; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases dbs(machine);
  const BlockDag dag = parseBlock(
      "block t { input a, b, c, d; output y, z; y = a + b; z = c + d; }");
  CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const AssignedGraph graph = AssignedGraph::materialize(
      snd, AssignmentExplorer(snd, options).explore().front(), options);
  const ParallelismMatrix matrix(graph, -1);
  std::vector<AgId> ops;
  for (AgId id = 0; id < graph.size(); ++id)
    if (graph.node(id).kind == AgKind::kOp) ops.push_back(id);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_FALSE(matrix.parallel(ops[0], ops[1]));
}

TEST(ParallelismMatrix, SingleCapacityBusTransfersConflict) {
  Materialized m(
      "block t { input a, b, c, d; output y, z; y = a + b; z = c - d; }",
      "arch1");
  const ParallelismMatrix matrix(m.graph, -1);
  std::vector<AgId> loads;
  for (AgId id = 0; id < m.graph.size(); ++id)
    if (m.graph.node(id).isTransferish()) loads.push_back(id);
  ASSERT_GE(loads.size(), 2u);
  for (size_t i = 0; i < loads.size(); ++i)
    for (size_t j = i + 1; j < loads.size(); ++j)
      EXPECT_FALSE(matrix.parallel(loads[i], loads[j]));
}

TEST(ParallelismMatrix, MultiCapacityBusAllowsPairs) {
  const Machine machine = parseMachine(R"(
    machine M {
      regfile A size 8;
      regfile B size 8;
      memory DM size 64 data;
      bus X capacity 2;
      unit U1 regfile A { op ADD; }
      unit U2 regfile B { op SUB; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases dbs(machine);
  const BlockDag dag = parseBlock(
      "block t { input a, b, c, d; output y, z; y = a + b; z = c - d; }");
  CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const AssignedGraph graph = AssignedGraph::materialize(
      snd, AssignmentExplorer(snd, options).explore().front(), options);
  const ParallelismMatrix matrix(graph, -1);
  std::vector<AgId> loads;
  for (AgId id = 0; id < graph.size(); ++id)
    if (graph.node(id).isTransferish()) loads.push_back(id);
  ASSERT_GE(loads.size(), 2u);
  EXPECT_TRUE(matrix.parallel(loads[0], loads[1]));
}

TEST(ParallelismMatrix, LevelWindowFiltersDistantPairs) {
  Materialized m(
      "block t { input a, b, c; output y; y = ((a + b) * c) - a; }",
      "arch1");
  const ParallelismMatrix full(m.graph, -1);
  const ParallelismMatrix windowed(m.graph, 0);
  size_t fullPairs = 0;
  size_t windowedPairs = 0;
  for (AgId i = 0; i < m.graph.size(); ++i) {
    for (AgId j = i + 1; j < m.graph.size(); ++j) {
      fullPairs += full.parallel(i, j) ? 1 : 0;
      windowedPairs += windowed.parallel(i, j) ? 1 : 0;
    }
  }
  EXPECT_LE(windowedPairs, fullPairs);
}

TEST(ParallelismMatrix, StrRendersFig7StyleMatrix) {
  Materialized m("block t { input a, b; output y; y = a + b; }", "arch1");
  std::vector<AgId> subset;
  std::vector<std::string> labels;
  for (AgId id = 0; id < m.graph.size(); ++id) {
    subset.push_back(id);
    labels.push_back("N" + std::to_string(id));
  }
  const std::string text = m.graph.size() > 0
                               ? ParallelismMatrix(m.graph, -1).str(subset, labels)
                               : "";
  EXPECT_NE(text.find("N0"), std::string::npos);
  EXPECT_NE(text.find("| 0"), std::string::npos);
}

// Regression for the latent deleted-row issue: the matrix stores one row
// per node *including* kDeleted nodes, and the covering engine relies on
// those rows being empty (a deleted node in a clique would resurrect it).
// Spill-induced transfer deletions are the only way nodes die in practice,
// so stage one and check every deleted row — through both the constructor
// and the workspace rebuild() path the engine actually uses.
TEST(ParallelismMatrix, DeletedNodeRowsStayEmptyAfterSpill) {
  const BlockDag dag = loadBlock("fig2");
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  // The Fig 9 staging from spill_test: ADD on U3 feeding SUB on U2 through
  // a pending RF3->RF2 transfer; spilling the ADD deletes that transfer.
  Assignment assignment;
  assignment.chosenAlt.assign(dag.size(), kNoSnd);
  auto pick = [&](Op op, const char* unitName) {
    for (NodeId id = 0; id < dag.size(); ++id) {
      if (dag.node(id).op != op) continue;
      for (SndId alt : snd.altsOf(id))
        if (machine.unit(snd.node(alt).unit).name == unitName)
          assignment.chosenAlt[id] = alt;
    }
  };
  pick(Op::kAdd, "U3");
  pick(Op::kMul, "U2");
  pick(Op::kSub, "U2");
  AssignedGraph graph = AssignedGraph::materialize(snd, assignment, options);

  AgId add = kNoAg;
  for (AgId id = 0; id < graph.size(); ++id) {
    const AgNode& n = graph.node(id);
    if (n.kind == AgKind::kOp && n.machineOp == Op::kAdd) add = id;
  }
  ASSERT_NE(add, kNoAg);
  DynBitset covered(graph.size());
  covered.set(add);
  for (AgId pred : graph.node(add).preds) covered.set(pred);
  SpillState state;
  (void)performSpill(graph, dbs.transfers, covered, state);

  std::vector<AgId> deleted;
  for (AgId id = 0; id < graph.size(); ++id)
    if (graph.node(id).deleted()) deleted.push_back(id);
  ASSERT_FALSE(deleted.empty()) << "spill staged no deletion";

  const ParallelismMatrix fresh(graph, -1);
  CoverWorkspace ws;
  ParallelismMatrix rebuilt;
  rebuilt.rebuild(graph, /*levelWindow=*/-1, ws);
  for (AgId dead : deleted) {
    for (AgId other = 0; other < graph.size(); ++other) {
      EXPECT_FALSE(fresh.parallel(dead, other)) << dead << " " << other;
      EXPECT_FALSE(fresh.parallel(other, dead)) << other << " " << dead;
      EXPECT_FALSE(rebuilt.parallel(dead, other)) << dead << " " << other;
      EXPECT_FALSE(rebuilt.parallel(other, dead)) << other << " " << dead;
    }
  }
}

// --- legality / constraint splitting ----------------------------------

TEST(Legality, BusOverloadDetectedAndSplit) {
  const Machine machine = parseMachine(R"(
    machine M {
      regfile A size 8;
      regfile B size 8;
      memory DM size 64 data;
      bus X capacity 2;
      unit U1 regfile A { op ADD; }
      unit U2 regfile B { op SUB; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases dbs(machine);
  const BlockDag dag = parseBlock(R"(
    block t { input a, b, c, d, e, f; output x, y, z;
      x = a + b; y = c - d; z = e + f; }
  )");
  CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const AssignedGraph graph = AssignedGraph::materialize(
      snd, AssignmentExplorer(snd, options).explore().front(), options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  // With capacity 2, the pairwise matrix allows 3+ transfers together; the
  // legality pass must split any clique with > 2 transfers.
  auto cliques = generateMaximalCliques(matrix, active, 100000);
  bool sawOverloaded = false;
  for (const auto& clique : cliques)
    sawOverloaded |= !cliqueIsLegal(clique, graph, dbs.constraints);
  EXPECT_TRUE(sawOverloaded);

  const auto legal = enforceLegality(std::move(cliques), graph, dbs.constraints);
  for (const auto& clique : legal)
    EXPECT_TRUE(cliqueIsLegal(clique, graph, dbs.constraints));
  // Coverage preserved.
  DynBitset covered(graph.size());
  for (const auto& clique : legal) covered |= clique;
  EXPECT_EQ(covered, active);
}

TEST(Legality, ConstraintViolationSplit) {
  const Machine machine = loadMachine("arch4");
  const MachineDatabases dbs(machine);
  const BlockDag dag = parseBlock(
      "block t { input a, b, c, d; output y, z; y = a * b; z = c * d; }");
  CodegenOptions options = CodegenOptions::heuristicsOff();
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  // Find the assignment putting one MUL on U2 and one on U3.
  const auto assignments = AssignmentExplorer(snd, options).explore();
  const UnitId u2 = *machine.findUnit("U2");
  const UnitId u3 = *machine.findUnit("U3");
  for (const Assignment& a : assignments) {
    std::vector<UnitId> units;
    for (NodeId id = 0; id < dag.size(); ++id)
      if (a.chosenAlt[id] != kNoSnd &&
          snd.node(a.chosenAlt[id]).machineOp == Op::kMul)
        units.push_back(snd.node(a.chosenAlt[id]).unit);
    if (units.size() != 2 ||
        !((units[0] == u2 && units[1] == u3) ||
          (units[0] == u3 && units[1] == u2)))
      continue;
    const AssignedGraph graph =
        AssignedGraph::materialize(snd, a, options);
    const ParallelismMatrix matrix(graph, -1);
    DynBitset active(graph.size(), true);
    const auto legal = enforceLegality(
        generateMaximalCliques(matrix, active, 100000), graph,
        dbs.constraints);
    for (const auto& clique : legal) {
      EXPECT_TRUE(cliqueIsLegal(clique, graph, dbs.constraints));
    }
    return;
  }
  FAIL() << "no assignment with MULs on both U2 and U3 found";
}

TEST(Legality, LegalCliquesPassThroughUnchanged) {
  Materialized m("block t { input a, b; output y; y = a + b; }", "arch1");
  const ParallelismMatrix matrix(m.graph, -1);
  DynBitset active(m.graph.size(), true);
  auto cliques = generateMaximalCliques(matrix, active, 1000);
  const size_t before = cliques.size();
  const auto legal =
      enforceLegality(std::move(cliques), m.graph, m.dbs.constraints);
  EXPECT_EQ(legal.size(), before);
}

// Over every assignment of the shipped blocks on machines with ISDL
// constraints (arch4, zoo/constrained) and multi-capacity buses (zoo/asym,
// zoo/wide): the hot-path generator matches the Fig 8 oracle, and the
// legality pass returns legal, covering groupings none of which is a subset
// of another — whether or not it had to split (it skips the subset filter
// when nothing was split).
TEST(Legality, SameLegalCliquesFromBothGenerators) {
  for (const char* machineName :
       {"arch4", "zoo/constrained", "zoo/asym", "zoo/wide"}) {
    const Machine machine = loadMachine(machineName);
    const MachineDatabases dbs(machine);
    for (const char* block : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
      const BlockDag dag = loadBlock(block);
      const CodegenOptions options;
      const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
      for (const Assignment& assignment :
           AssignmentExplorer(snd, options).explore()) {
        const AssignedGraph graph =
            AssignedGraph::materialize(snd, assignment, options);
        const ParallelismMatrix matrix(graph, -1);
        DynBitset active(graph.size(), true);
        auto cliques = generateMaximalCliques(matrix, active, 100000);
        ASSERT_EQ(cliques, fig8MaximalCliques(matrix, active, 100000))
            << block << " on " << machineName;
        const auto legal =
            enforceLegality(std::move(cliques), graph, dbs.constraints);
        DynBitset covered(graph.size());
        for (size_t i = 0; i < legal.size(); ++i) {
          EXPECT_TRUE(cliqueIsLegal(legal[i], graph, dbs.constraints));
          covered |= legal[i];
          for (size_t j = 0; j < legal.size(); ++j)
            if (i != j)
              EXPECT_FALSE(legal[i].isSubsetOf(legal[j]))
                  << block << " on " << machineName;
        }
        EXPECT_EQ(covered, active) << block << " on " << machineName;
      }
    }
  }
}

}  // namespace
}  // namespace aviv
