// Work-counter gate: the covering search's deterministic counters, summed
// over the golden matrix (every shipped block on every shipped machine,
// machines/zoo/ included, heuristicsOn(), jobs=1), must stay within the
// ceilings below. Wall time on shared hosts swings by tens of percent from
// run to run; these counters do not move at all unless the search itself
// changes, so a regression in search work fails here exactly.
//
// When a change lowers a total, lower its ceiling to the new value (the
// test prints the totals). Raising a ceiling is a deliberate decision that
// belongs in the change's description.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "driver/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/io.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

// Candidate assignments taken through a complete covering.
constexpr size_t kMaxCandidatesCovered = 631;
// Clique-generation recursions across every candidate covering, complete or
// not (SearchStats::nodesVisited minus the exploration states).
constexpr size_t kMaxCliqueRecursions = 150572;

std::vector<std::string> stemsWithExtension(const std::string& dir,
                                            const std::string& ext) {
  std::vector<std::string> stems;
  if (!fs::exists(dir)) return stems;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ext)
      stems.push_back(entry.path().stem().string());
  std::sort(stems.begin(), stems.end());
  return stems;
}

TEST(WorkCounters, GoldenMatrixWithinCeilings) {
  std::vector<std::string> machines =
      stemsWithExtension(machineDir(), ".isdl");
  for (const std::string& zoo :
       stemsWithExtension(machineDir() + "/zoo", ".isdl"))
    machines.push_back("zoo/" + zoo);
  const std::vector<std::string> blocks =
      stemsWithExtension(blockDir(), ".blk");

  size_t compiled = 0;
  size_t covered = 0;
  size_t bounded = 0;
  size_t recursions = 0;
  for (const std::string& machineName : machines) {
    const Machine machine = loadMachine(machineName);
    for (const std::string& blockName : blocks) {
      DriverOptions options;
      options.core = CodegenOptions::heuristicsOn();
      options.core.jobs = 1;
      CodeGenerator generator(machine, options);
      SymbolTable symbols;
      try {
        const CompiledBlock block =
            generator.compileBlock(loadBlock(blockName), symbols);
        const CoreStats& stats = block.core.stats;
        ++compiled;
        covered += stats.assignmentsCovered;
        bounded += stats.search.assignmentsBounded;
        recursions +=
            stats.search.nodesVisited - stats.explore.statesExpanded;
      } catch (const Error&) {
        // Rejected by design (the golden file records the error).
      }
    }
  }
  std::printf(
      "golden matrix: %zu pairs compiled, %zu candidates covered, %zu "
      "bounded, %zu clique recursions\n",
      compiled, covered, bounded, recursions);
  EXPECT_GT(compiled, 0u);
  EXPECT_LE(covered, kMaxCandidatesCovered);
  EXPECT_LE(recursions, kMaxCliqueRecursions);
}

}  // namespace
}  // namespace aviv
