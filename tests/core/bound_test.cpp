// Branch-and-bound covering properties, over every shipped block on every
// shipped machine (machines/ and machines/zoo/), every block × machine of
// the fuzz corpus (tests/corpus/), and the 30 random 16–20-op shapes the
// dag-scale benchmark compiles (makeRandomDag on arch1, arch2 and dsp16):
//
//   * admissibility: at every round of every candidate covering,
//     instructions emitted + the spill-invariant bound never exceeds the
//     candidate's final instruction count, and a candidate given its own
//     final count as the incumbent is never abandoned;
//   * accounting: every candidate coverBlock tried was covered, abandoned by
//     the bound, or register-infeasible — exactly one of the three;
//   * jobs-invariance: SearchStats (assignmentsBounded included) and the
//     schedule are equal at jobs=1, 2 and 4.
#include "core/bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/codegen.h"
#include "ir/parser.h"
#include "ir/passes.h"
#include "ir/random_dag.h"
#include "isdl/parser.h"
#include "support/io.h"
#include "support/thread_pool.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

// One block × machine pair. The block is a file (blocks/ or the corpus,
// possibly one block of a multi-block program) or a random shape.
struct BoundCase {
  std::string label;
  std::string machinePath;
  std::string blockPath;   // empty for a random shape
  size_t programBlock = 0;
  int randomOps = 0;
  uint64_t randomSeed = 0;
};

std::vector<std::string> filesWithExtension(const std::string& dir,
                                            const std::string& ext) {
  std::vector<std::string> paths;
  if (!fs::exists(dir)) return paths;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ext) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string stem(const std::string& path) { return fs::path(path).stem(); }

std::vector<BoundCase> allCases() {
  std::vector<BoundCase> cases;
  std::vector<std::string> machines = filesWithExtension(machineDir(), ".isdl");
  for (const std::string& zoo :
       filesWithExtension(machineDir() + "/zoo", ".isdl"))
    machines.push_back(zoo);
  for (const std::string& machine : machines) {
    const std::string m = (fs::path(machine).parent_path().filename() == "zoo"
                               ? "zoo_"
                               : "") +
                          stem(machine);
    for (const std::string& block : filesWithExtension(blockDir(), ".blk"))
      cases.push_back({stem(block) + "_" + m, machine, block});
  }

  for (const std::string& machine :
       filesWithExtension(AVIV_CORPUS_DIR, ".isdl")) {
    for (const std::string& block :
         filesWithExtension(AVIV_CORPUS_DIR, ".blk")) {
      const Program program =
          parseProgram(readFile(block), stem(block));
      for (size_t b = 0; b < program.numBlocks(); ++b)
        cases.push_back({"corpus_" + stem(block) + "_" + std::to_string(b) +
                             "_" + stem(machine),
                         machine, block, b});
    }
  }

  // The dag-scale benchmark's shapes: two per op count on each machine.
  const char* const scaleMachines[] = {"arch1", "arch2", "dsp16"};
  for (int t = 0; t < 3; ++t)
    for (int ops = 16; ops <= 20; ++ops)
      for (int k = 1; k <= 2; ++k)
        cases.push_back({"dag" + std::to_string(ops) + "_" +
                             std::to_string(k) + "_" + scaleMachines[t],
                         machinePath(scaleMachines[t]), "", 0, ops,
                         static_cast<uint64_t>(1000 * k + ops + 100 * t)});
  return cases;
}

BlockDag loadCaseBlock(const BoundCase& c) {
  if (c.blockPath.empty()) {
    RandomDagSpec spec;
    spec.numOps = c.randomOps;
    spec.numInputs = std::max(2, c.randomOps / 3);
    spec.seed = c.randomSeed;
    return optimize(makeRandomDag(spec));
  }
  return parseProgram(readFile(c.blockPath), stem(c.blockPath))
      .block(c.programBlock);
}

class BranchAndBound : public ::testing::TestWithParam<BoundCase> {
 protected:
  void SetUp() override {
    try {
      machine_.emplace(parseMachine(readFile(GetParam().machinePath),
                                    GetParam().machinePath));
      dbs_.emplace(*machine_);
      dag_.emplace(loadCaseBlock(GetParam()));
    } catch (const Error& e) {
      GTEST_SKIP() << "rejected before covering: " << e.what();
    }
    options_ = CodegenOptions::heuristicsOn();
  }

  // coverBlock with the driver's outputs-to-memory retry. nullopt when the
  // pair is rejected either way (12 shipped pairs are, by design).
  std::optional<CoreResult> cover(int jobs, TelemetryNode& tel) {
    CodegenOptions options = options_;
    options.jobs = jobs;
    std::optional<ThreadPool> pool;
    if (jobs > 1) pool.emplace(jobs);
    ThreadPool* poolPtr = pool.has_value() ? &*pool : nullptr;
    for (const bool toMemory : {false, true}) {
      options.outputsToMemory = toMemory;
      tel = TelemetryNode("block");
      try {
        std::optional<CoreResult> result;
        result.emplace(
            coverBlock(*dag_, *machine_, *dbs_, options, poolPtr, &tel));
        options_.outputsToMemory = toMemory;
        return result;
      } catch (const Error&) {
      }
    }
    return std::nullopt;
  }

  std::optional<Machine> machine_;
  std::optional<MachineDatabases> dbs_;
  std::optional<BlockDag> dag_;
  CodegenOptions options_;
};

TEST_P(BranchAndBound, BoundIsAdmissibleAtEveryRound) {
  TelemetryNode tel("block");
  if (!cover(1, tel).has_value()) return;
  // Every candidate coverBlock's first pass tries, covered unbounded.
  const SplitNodeDag snd =
      SplitNodeDag::build(*dag_, *machine_, *dbs_, options_);
  const std::vector<Assignment> assignments =
      AssignmentExplorer(snd, explorationOptions(*dag_, snd, options_))
          .explore();
  for (size_t i = 0; i < assignments.size(); ++i) {
    AssignedGraph graph =
        AssignedGraph::materialize(snd, assignments[i], options_);
    CoveringEngine engine(graph, dbs_->transfers, dbs_->constraints,
                          options_);
    CoverStats stats;
    Schedule schedule;
    try {
      schedule = engine.run(&stats);
    } catch (const Error&) {
      continue;  // register-infeasible
    }
    EXPECT_LE(stats.lowerBound, schedule.numInstructions())
        << "candidate " << i;

    // Its own final count as the incumbent: never abandoned (the test is
    // strict), and the covering is unchanged.
    AssignedGraph again =
        AssignedGraph::materialize(snd, assignments[i], options_);
    CoveringEngine rerun(again, dbs_->transfers, dbs_->constraints,
                         options_);
    CoverStats rerunStats;
    const std::optional<Schedule> bounded =
        rerun.run(&rerunStats, schedule.numInstructions());
    ASSERT_TRUE(bounded.has_value()) << "candidate " << i;
    EXPECT_EQ(bounded->instrs, schedule.instrs) << "candidate " << i;
    // One below its final count: abandoned at the latest when the bound
    // reaches it, which may be only at the last round — or never, when the
    // last instructions hold transfers alone. Either way never a schedule
    // better than the incumbent.
    AssignedGraph below =
        AssignedGraph::materialize(snd, assignments[i], options_);
    CoveringEngine tight(below, dbs_->transfers, dbs_->constraints, options_);
    CoverStats tightStats;
    const std::optional<Schedule> cut =
        tight.run(&tightStats, schedule.numInstructions() - 1);
    if (cut.has_value())
      EXPECT_EQ(cut->instrs, schedule.instrs) << "candidate " << i;
    else
      EXPECT_GT(tightStats.lowerBound, schedule.numInstructions() - 1)
          << "candidate " << i;
  }
}

TEST_P(BranchAndBound, EveryCandidateAccountedFor) {
  TelemetryNode tel("block");
  const std::optional<CoreResult> result = cover(1, tel);
  if (!result.has_value()) return;
  const TelemetryNode* cover = tel.findChild("cover");
  ASSERT_NE(cover, nullptr);
  const CoreStats& stats = result->stats;
  EXPECT_EQ(stats.assignmentsCovered + stats.search.assignmentsBounded +
                stats.assignmentsFailed,
            static_cast<size_t>(cover->counter("candidates")));
  EXPECT_GT(stats.assignmentsCovered, 0u);
  // The telemetry view carries the same counts.
  const CoreStats view = coreStatsView(tel);
  EXPECT_EQ(view.assignmentsCovered, stats.assignmentsCovered);
  EXPECT_EQ(view.assignmentsFailed, stats.assignmentsFailed);
  EXPECT_EQ(view.search.assignmentsBounded, stats.search.assignmentsBounded);
  EXPECT_EQ(cover->counter("assignmentsBounded"),
            static_cast<int64_t>(stats.search.assignmentsBounded));
}

TEST_P(BranchAndBound, SearchStatsEqualAcrossJobs) {
  TelemetryNode serialTel("block");
  const std::optional<CoreResult> serial = cover(1, serialTel);
  if (!serial.has_value()) return;
  for (const int jobs : {2, 4}) {
    TelemetryNode tel("block");
    const std::optional<CoreResult> parallel = cover(jobs, tel);
    ASSERT_TRUE(parallel.has_value()) << "jobs=" << jobs;
    const SearchStats& a = serial->stats.search;
    const SearchStats& b = parallel->stats.search;
    EXPECT_EQ(a.nodesVisited, b.nodesVisited) << "jobs=" << jobs;
    EXPECT_EQ(a.prunedByBound, b.prunedByBound) << "jobs=" << jobs;
    EXPECT_EQ(a.backtracks, b.backtracks) << "jobs=" << jobs;
    EXPECT_EQ(a.candidatesAbandoned, b.candidatesAbandoned) << "jobs=" << jobs;
    EXPECT_EQ(a.assignmentsBounded, b.assignmentsBounded) << "jobs=" << jobs;
    EXPECT_EQ(a.arenaCalls, b.arenaCalls) << "jobs=" << jobs;
    EXPECT_EQ(a.arenaBytes, b.arenaBytes) << "jobs=" << jobs;
    EXPECT_EQ(a.arenaHighWater, b.arenaHighWater) << "jobs=" << jobs;
    EXPECT_EQ(serial->stats.assignmentsCovered,
              parallel->stats.assignmentsCovered)
        << "jobs=" << jobs;
    EXPECT_EQ(serial->stats.assignmentsFailed,
              parallel->stats.assignmentsFailed)
        << "jobs=" << jobs;
    EXPECT_EQ(serial->schedule.instrs, parallel->schedule.instrs)
        << "jobs=" << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, BranchAndBound,
                         ::testing::ValuesIn(allCases()),
                         [](const auto& info) {
                           std::string name = info.param.label;
                           for (char& ch : name)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return name;
                         });

// The exact bound dominates the spill-invariant one: it adds the critical
// path and the per-bus terms to the same per-unit counts, and the critical
// path counts every op of the op chain.
TEST(CoverBound, ExactDominatesSpillInvariant) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  for (const char* block : {"ex1", "ex3", "ex5"}) {
    const BlockDag dag = loadBlock(block);
    const CodegenOptions options;
    const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
    const AssignedGraph graph = AssignedGraph::materialize(
        snd, AssignmentExplorer(snd, options).explore().front(), options);
    CoverBound bound(graph);
    DynBitset covered(graph.size());
    const int exact = bound.exact(covered);
    const int invariant = bound.spillInvariant(covered);
    EXPECT_GE(exact, invariant) << block;
    EXPECT_GT(invariant, 0) << block;
    covered.setAll();
    EXPECT_EQ(bound.exact(covered), 0) << block;
    EXPECT_EQ(bound.spillInvariant(covered), 0) << block;
  }
}

}  // namespace
}  // namespace aviv
