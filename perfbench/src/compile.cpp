// Compile workloads: `paper-cold` (every shipped block on every shipped
// machine, jobs=1) and `dag-scale` (random DAGs past the paper's 16-node
// ceiling, jobs=2). Both compile in-process through CodeGenerator with no
// cache, time each compileBlock call, and check every distinct output
// against the reference interpreter outside the timed region.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include <unistd.h>

#include "bench.h"
#include "core/codegen.h"
#include "core/workspace.h"
#include "driver/codegen.h"
#include "ir/parser.h"
#include "ir/passes.h"
#include "ir/random_dag.h"
#include "isdl/parser.h"
#include "net/frame.h"
#include "service/cache.h"
#include "service/fingerprint.h"
#include "service/request.h"
#include "regalloc/peephole.h"
#include "regalloc/regalloc.h"
#include "support/error.h"
#include "support/io.h"
#include "support/rng.h"
#include "verify/verify.h"

namespace perfbench {

using namespace aviv;
namespace fs = std::filesystem;

namespace {

constexpr int kVerifyVectors = 8;  // input vectors per verified output

// --- inputs -------------------------------------------------------------------

struct Target {
  Target(std::string name, Machine loaded)
      : name(std::move(name)), machine(std::move(loaded)), dbs(machine) {}

  std::string name;  // "arch1", "zoo/tiny"
  Machine machine;
  MachineDatabases dbs;
  std::unique_ptr<CodeGenerator> gen;
};

struct Input {
  std::string label;  // block@machine
  size_t target = 0;
  size_t dag = 0;
  std::string expectedError;  // golden "ERROR:" message; empty = compiles
};

// What the warm-up compile of an input produced; every later compile of
// the input must reproduce it exactly.
struct Reference {
  bool ok = false;
  std::string error;
  int instrs = 0;
  int spills = 0;
  std::string asmText;
  SearchStats search;
};

struct Setup {
  double isdlMs = 0.0;  // loadMachine + MachineDatabases
  double irMs = 0.0;    // loadBlock / makeRandomDag + optimize
  std::vector<std::unique_ptr<Target>> targets;
  std::vector<BlockDag> dags;
  std::vector<Input> inputs;
  std::vector<Reference> refs;
};

DriverOptions driverOptions(int jobs) {
  DriverOptions options;
  options.core = CodegenOptions::heuristicsOn();
  options.core.jobs = jobs;
  return options;
}

std::unique_ptr<Target> makeTarget(const std::string& name, int jobs,
                                   double& isdlMs) {
  std::unique_ptr<Target> target;
  {
    const Span span("isdl", "loadMachine+MachineDatabases");
    target = std::make_unique<Target>(name, loadMachine(name));
    isdlMs += span.ms();
  }
  target->gen =
      std::make_unique<CodeGenerator>(target->machine, driverOptions(jobs));
  return target;
}

// A seeded variant of `base`: inputs renamed by a random permutation and
// commutative operands randomly swapped. The block the compiler sees, and
// its emitted code, change with the seed while the shape, and with it the
// covering work, stays that of `base`.
BlockDag variantOf(const BlockDag& base, Rng& rng, const std::string& name) {
  const std::vector<std::string> names = base.inputNames();
  std::vector<std::string> renamed = names;
  for (size_t i = renamed.size(); i > 1; --i)
    std::swap(renamed[i - 1], renamed[rng.below(i)]);
  std::map<std::string, std::string> rename;
  for (size_t i = 0; i < names.size(); ++i) rename[names[i]] = renamed[i];

  BlockDag out(name, /*cse=*/false);
  for (NodeId id = 0; id < base.size(); ++id) {
    const DagNode& node = base.node(id);
    NodeId added = kNoNode;
    if (node.op == Op::kInput) {
      added = out.addInput(rename.at(node.name));
    } else if (node.op == Op::kConst) {
      added = out.addConst(node.value);
    } else {
      std::vector<NodeId> operands = node.operands;
      if (operands.size() == 2 && isCommutative(node.op) && rng.chance(0.5))
        std::swap(operands[0], operands[1]);
      added = out.addOp(node.op, std::move(operands));
    }
    AVIV_CHECK(added == id);
  }
  for (const auto& [outName, id] : base.outputs()) out.markOutput(outName, id);
  out.verify();
  return out;
}

// --- workloads' input sets ---------------------------------------------------

// paper-cold: every .blk block x every machine (machines/ + machines/zoo/).
void buildPaperInputs(Setup& s, int jobs) {
  const std::vector<std::string> machines = paperMachines();
  const std::vector<std::string> blocks = paperBlocks();
  for (const std::string& m : machines)
    s.targets.push_back(makeTarget(m, jobs, s.isdlMs));
  for (const std::string& b : blocks) {
    const Span span("ir", "loadBlock+optimize");
    s.dags.push_back(optimize(loadBlock(b)));
    s.irMs += span.ms();
  }
  for (size_t t = 0; t < machines.size(); ++t)
    for (size_t b = 0; b < blocks.size(); ++b)
      s.inputs.push_back(Input{blocks[b] + "@" + machines[t], t, b,
                               goldenError(blocks[b], machines[t])});
}

// dag-scale: kShapesPerSize makeRandomDag shapes for each op count 16..20
// on each machine, from fixed generator seeds, each compiled as a variant
// drawn from the run's seed. Why fixed shapes: at this size one shape in
// thirty costs ten times the median, so a fresh draw of shapes per seed
// moves throughput by more than any bound worth gating on.
constexpr int kShapesPerSize = 2;
const char* const kScaleMachines[] = {"arch1", "arch2", "dsp16"};

void buildScaleInputs(Setup& s, uint64_t seed, int jobs) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  for (size_t t = 0; t < std::size(kScaleMachines); ++t) {
    s.targets.push_back(makeTarget(kScaleMachines[t], jobs, s.isdlMs));
    for (int ops = 16; ops <= 20; ++ops) {
      for (int k = 1; k <= kShapesPerSize; ++k) {
        const Span span("ir", "makeRandomDag+optimize");
        RandomDagSpec spec;
        spec.numOps = ops;
        spec.numInputs = std::max(2, ops / 3);
        spec.seed = static_cast<uint64_t>(1000 * k + ops + 100 * t);
        const std::string name = "dag" + std::to_string(ops) + "_" +
                                 std::to_string(k) + "_" + kScaleMachines[t];
        s.dags.push_back(
            optimize(variantOf(makeRandomDag(spec), rng, name)));
        s.irMs += span.ms();
        s.inputs.push_back(Input{name, t, s.dags.size() - 1, ""});
      }
    }
  }
}

// --- compiling -------------------------------------------------------------------

Reference compileReference(Target& target, const BlockDag& dag) {
  Reference ref;
  try {
    SymbolTable symbols;
    const CompiledBlock block = target.gen->compileBlock(dag, symbols);
    ref.ok = true;
    ref.instrs = block.numInstructions();
    ref.spills = block.core.stats.cover.spillsInserted;
    ref.asmText = block.image.asmText(target.machine);
    ref.search = block.core.stats.search;
  } catch (const Error& e) {
    ref.error = e.what();
  }
  return ref;
}

Setup buildSetup(const RunOptions& options, bool scale, int jobs,
                 double* seconds) {
  const Clock::time_point start = Clock::now();
  Setup s;
  if (scale) {
    buildScaleInputs(s, options.seed, jobs);
  } else {
    buildPaperInputs(s, jobs);
  }
  // One untimed warm-up compile of every input; it is also the reference
  // every later compile must repeat.
  for (const Input& input : s.inputs)
    s.refs.push_back(
        compileReference(*s.targets[input.target], s.dags[input.dag]));
  *seconds = secondsSince(start);
  return s;
}

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Window {
  int64_t compiles = 0;
  int64_t mismatches = 0;
  std::vector<std::vector<Slice>> perInput;  // one slice per compile
};

// Compiles `order` in full passes until `seconds` have elapsed, so every
// input is compiled equally often. Only the instruction and spill counts
// are read inside the window; they must equal the warm-up reference.
Window timedWindow(Setup& s, const std::vector<size_t>& order, double seconds,
                   bool traced, Result& result) {
  Window w;
  w.perInput.resize(s.inputs.size());
  const Clock::time_point start = Clock::now();
  while (secondsSince(start) < seconds) {
    for (const size_t i : order) {
      const Input& input = s.inputs[i];
      const Reference& ref = s.refs[i];
      Target& target = *s.targets[input.target];
      SymbolTable symbols;
      bool ok = false;
      int instrs = 0;
      int spills = 0;
      const Clock::time_point t0 = Clock::now();
      try {
        std::optional<Span> span;
        if (traced) span.emplace("driver", "compileBlock");
        const CompiledBlock block =
            target.gen->compileBlock(s.dags[input.dag], symbols);
        ok = true;
        instrs = block.numInstructions();
        spills = block.core.stats.cover.spillsInserted;
      } catch (const Error&) {
      }
      const double ms = msSince(t0);
      w.perInput[i].push_back(Slice{ms / 1e3, 1, {ms}});
      ++w.compiles;
      if (ok != ref.ok || instrs != ref.instrs || spills != ref.spills) {
        ++w.mismatches;
        if (w.mismatches <= 3)
          result.fail(input.label + ": compile did not repeat its warm-up "
                      "outcome");
      }
    }
  }
  return w;
}

// Output checks, untimed: rejected pairs must match their golden error;
// every compiled output is re-encoded in scope-independent form, must equal
// the timed output, and must pass differential verification against the
// reference interpreter.
void checkOutputs(Setup& s, Result& result, double* verifyMs,
                  int64_t* vectors) {
  std::map<size_t, std::unique_ptr<CodeGenerator>> recorders;
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kAll;
  vopts.vectors = kVerifyVectors;
  for (size_t i = 0; i < s.inputs.size(); ++i) {
    const Input& input = s.inputs[i];
    const Reference& ref = s.refs[i];
    ++result.attempted;
    if (!input.expectedError.empty() || !ref.ok) {
      if (ref.ok || ref.error != input.expectedError) {
        ++result.failed;
        result.fail(input.label + ": expected rejection '" +
                    input.expectedError + "', got " +
                    (ref.ok ? "a compile" : "'" + ref.error + "'"));
      }
      continue;
    }
    Target& target = *s.targets[input.target];
    auto& recorder = recorders[input.target];
    if (!recorder) {
      DriverOptions options = driverOptions(1);
      options.recordSymbolNames = true;
      recorder = std::make_unique<CodeGenerator>(target.machine, options);
    }
    const BlockDag& dag = s.dags[input.dag];
    SymbolTable symbols;
    const CompiledBlock block = recorder->compileBlock(dag, symbols);
    bool passed = block.image.asmText(target.machine) == ref.asmText;
    if (!passed)
      result.fail(input.label + ": recorded compile differs from timed one");
    const Span span("verify", "verifyCompiledBlock");
    const Clock::time_point t0 = Clock::now();
    const VerifyReport report = verifyCompiledBlock(
        target.machine, dag, block.portableImage, block.symbolNames, vopts);
    *verifyMs += msSince(t0);
    *vectors += report.vectorsRun;
    if (!report.passed) {
      passed = false;
      result.fail(input.label + ": verification failed: " + report.detail());
    }
    if (!passed) ++result.failed;
  }
}

// --- staged replay ------------------------------------------------------------

struct StageTotals {
  double splitnodeMs = 0, exploreMs = 0, materializeMs = 0, coverMs = 0;
  double peepholeMs = 0, allocMs = 0, encodeMs = 0;
  int64_t sndNodes = 0, exploreStates = 0, candidates = 0, cliques = 0;
  int64_t cliqueRecursions = 0, covered = 0, useful = 0, spills = 0;
  int64_t spillCodeRemoved = 0;

  [[nodiscard]] double sumMs() const {
    return splitnodeMs + exploreMs + materializeMs + coverMs + peepholeMs +
           allocMs + encodeMs;
  }
  [[nodiscard]] bool sameCounts(const StageTotals& o) const {
    return sndNodes == o.sndNodes && exploreStates == o.exploreStates &&
           candidates == o.candidates && cliques == o.cliques &&
           cliqueRecursions == o.cliqueRecursions && covered == o.covered &&
           useful == o.useful && spills == o.spills &&
           spillCodeRemoved == o.spillCodeRemoved;
  }
};

struct ReplayCandidate {
  int instructions = 0;
  int spills = 0;
  size_t index = 0;
  AssignedGraph graph;
  Schedule schedule;
};

// coverBlock's stages, called one by one in its order with the same
// options, workspace discipline and (instructions, spills, index) winner
// rule. Throws aviv::Error exactly where coverBlock would.
std::optional<ReplayCandidate> replayCover(const BlockDag& dag,
                                           const Target& target,
                                           const CodegenOptions& options,
                                           StageTotals& st) {
  Clock::time_point t0 = Clock::now();
  const SplitNodeDag snd = [&] {
    const Span span("core", "SplitNodeDag::build");
    return SplitNodeDag::build(dag, target.machine, target.dbs, options);
  }();
  st.splitnodeMs += msSince(t0);
  st.sndNodes += static_cast<int64_t>(snd.size());

  CodegenOptions exploreOptions = options;
  if (options.smallSpaceExhaustive > 0) {
    size_t space = 1;
    for (NodeId id = 0; id < dag.size(); ++id) {
      if (isLeafOp(dag.node(id).op)) continue;
      space *= snd.altsOf(id).size();
      if (space > options.smallSpaceExhaustive) break;
    }
    if (space <= options.smallSpaceExhaustive) {
      exploreOptions.assignPruneIncremental = false;
      exploreOptions.assignBeamWidth = 0;
      exploreOptions.assignKeepBest = 1 << 30;
    }
  }
  CoverWorkspace ws;
  std::optional<ReplayCandidate> best;
  auto tryAll = [&](const CodegenOptions& exploreWith) {
    ExploreStats es;
    t0 = Clock::now();
    const std::vector<Assignment> candidates = [&] {
      const Span span("core", "AssignmentExplorer::explore");
      const AssignmentExplorer explorer(snd, exploreWith, nullptr, &ws.arena);
      return explorer.explore(&es);
    }();
    st.exploreMs += msSince(t0);
    st.exploreStates += static_cast<int64_t>(es.statesExpanded);
    st.candidates += static_cast<int64_t>(candidates.size());
    std::vector<int> finished;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const ArenaScope scope(ws.arena);
      ws.arena.resetHighWater();
      t0 = Clock::now();
      AssignedGraph graph = [&] {
        const Span span("core", "AssignedGraph::materialize");
        return AssignedGraph::materialize(snd, candidates[i], options, &ws);
      }();
      st.materializeMs += msSince(t0);
      CoveringEngine engine(graph, target.dbs.transfers,
                            target.dbs.constraints, options, nullptr, &ws);
      CoverStats cs;
      Schedule schedule;
      bool ok = true;
      t0 = Clock::now();
      try {
        const Span span("core", "CoveringEngine::run");
        schedule = engine.run(&cs);
      } catch (const Error&) {
        ok = false;
      }
      st.coverMs += msSince(t0);
      st.cliques += static_cast<int64_t>(cs.cliquesGenerated);
      st.cliqueRecursions += static_cast<int64_t>(cs.cliqueRecursions);
      st.spills += cs.spillsInserted;
      if (!ok) continue;
      ++st.covered;
      const int instructions = schedule.numInstructions();
      finished.push_back(instructions);
      const bool better =
          !best.has_value() ||
          std::tie(instructions, cs.spillsInserted, i) <
              std::tie(best->instructions, best->spills, best->index);
      if (better)
        best = ReplayCandidate{instructions, cs.spillsInserted, i,
                               std::move(graph), std::move(schedule)};
    }
    if (best.has_value())
      st.useful += std::count(finished.begin(), finished.end(),
                              best->instructions);
  };
  tryAll(exploreOptions);
  if (!best.has_value()) {
    CodegenOptions wide = options;
    wide.assignPruneIncremental = false;
    wide.assignBeamWidth = 256;
    wide.assignKeepBest = 64;
    tryAll(wide);
  }
  if (!best.has_value())
    throw Error("block '" + dag.name() + "': no feasible schedule found");
  best->graph.detachPayloads();
  return best;
}

// The driver's pipeline for one block, stage by stage: covering (with the
// driver's outputs-to-memory retry), peephole, register allocation and
// encoding. Returns the assembly text.
std::string replayBlock(const BlockDag& dag, const Target& target,
                        StageTotals& st) {
  const CodegenOptions options = driverOptions(1).core;
  std::optional<ReplayCandidate> best;
  try {
    best = replayCover(dag, target, options, st);
  } catch (const Error&) {
    CodegenOptions retry = options;
    retry.outputsToMemory = true;
    best = replayCover(dag, target, retry, st);
  }
  PeepholeStats ps;
  Clock::time_point t0 = Clock::now();
  {
    const Span span("regalloc", "peepholeOptimize");
    peepholeOptimize(best->graph, best->schedule, target.dbs.constraints, &ps);
  }
  st.peepholeMs += msSince(t0);
  st.spillCodeRemoved += ps.reloadsRemoved + ps.spillStoresRemoved;
  t0 = Clock::now();
  const RegAssignment regs = [&] {
    const Span span("regalloc", "allocateRegisters");
    return allocateRegisters(best->graph, best->schedule);
  }();
  st.allocMs += msSince(t0);
  t0 = Clock::now();
  SymbolTable symbols;
  const CodeImage image = [&] {
    const Span span("asmgen", "encodeBlock");
    return encodeBlock(best->graph, best->schedule, regs, symbols);
  }();
  st.encodeMs += msSince(t0);
  return image.asmText(target.machine);
}

bool sameSearch(const SearchStats& a, const SearchStats& b) {
  return a.nodesVisited == b.nodesVisited &&
         a.prunedByBound == b.prunedByBound && a.backtracks == b.backtracks &&
         a.candidatesAbandoned == b.candidatesAbandoned &&
         a.arenaCalls == b.arenaCalls && a.arenaBytes == b.arenaBytes &&
         a.arenaHighWater == b.arenaHighWater;
}

// One pass over every compilable input with fresh generators at `jobs`;
// returns its wall time and fails the run when an output or a search count
// differs from the warm-up reference.
double jobsPass(Setup& s, int jobs, Result& result,
                std::vector<double>* perInputMs, int64_t* allocs) {
  std::vector<std::unique_ptr<CodeGenerator>> gens;
  for (const auto& t : s.targets)
    gens.push_back(
        std::make_unique<CodeGenerator>(t->machine, driverOptions(jobs)));
  double wall = 0.0;
  for (size_t i = 0; i < s.inputs.size(); ++i) {
    const Reference& ref = s.refs[i];
    if (!ref.ok) continue;
    const Input& input = s.inputs[i];
    SymbolTable symbols;
    const int64_t allocsBefore = allocCount();
    setAllocCounting(allocs != nullptr);
    const Clock::time_point t0 = Clock::now();
    const CompiledBlock block =
        gens[input.target]->compileBlock(s.dags[input.dag], symbols);
    const double ms = msSince(t0);
    setAllocCounting(false);
    if (allocs != nullptr) *allocs += allocCount() - allocsBefore;
    wall += ms / 1e3;
    if (perInputMs != nullptr) (*perInputMs)[i] = ms;
    if (block.image.asmText(s.targets[input.target]->machine) != ref.asmText ||
        !sameSearch(block.core.stats.search, ref.search)) {
      ++result.failed;
      result.fail(input.label + ": jobs=" + std::to_string(jobs) +
                  " output or search counts differ from the reference");
    }
  }
  return wall;
}

// --- per-layer probes ------------------------------------------------------------

// The service and frame layers, called in-process on every compilable
// input: request-line parse, compile fingerprint, cache store and a
// memory-tier lookup on a private cache, and the wire codecs with the
// input's assembly as the response body.
void probeService(Setup& s, const RunOptions& options, Result& result) {
  CacheConfig config;
  config.dir = options.scratchDir + "/probe-cache";
  ResultCache cache(config);
  const RequestDefaults defaults;
  Samples parseUs, fingerprintUs, storeUs, lookupUs, frameUs;
  const auto us = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  std::map<size_t, std::unique_ptr<CodeGenerator>> recorders;
  for (size_t i = 0; i < s.inputs.size(); ++i) {
    if (!s.refs[i].ok) continue;
    const Input& input = s.inputs[i];
    Target& target = *s.targets[input.target];
    const BlockDag& dag = s.dags[input.dag];
    const std::string line = "machine=" + target.name + " block=" + dag.name();

    Clock::time_point t0 = Clock::now();
    {
      const Span span("service", "parseRequestLine");
      if (!parseRequestLine(line, 0, defaults).ok())
        result.fail(line + ": request line rejected");
    }
    parseUs.add(us(t0));

    auto& recorder = recorders[input.target];
    if (!recorder) {
      DriverOptions dopts = driverOptions(1);
      dopts.recordSymbolNames = true;
      recorder = std::make_unique<CodeGenerator>(target.machine, dopts);
    }
    SymbolTable symbols;
    const CompiledBlock block = recorder->compileBlock(dag, symbols);
    t0 = Clock::now();
    const Hash128 key = [&] {
      const Span span("service", "compileFingerprint");
      return compileFingerprint(recorder->context(), dag,
                                recorder->options().core, true, true, 0);
    }();
    fingerprintUs.add(us(t0));
    CacheEntry entry;
    entry.blockName = dag.name();
    entry.machineName = target.machine.name();
    entry.symbolNames = block.symbolNames;
    entry.image = block.portableImage;
    t0 = Clock::now();
    {
      const Span span("service", "ResultCache::store");
      cache.store(key, std::move(entry));
    }
    storeUs.add(us(t0));
    t0 = Clock::now();
    {
      const Span span("service", "ResultCache::lookup");
      if (cache.lookup(key) == nullptr)
        result.fail(input.label + ": stored cache entry not found");
    }
    lookupUs.add(us(t0));

    net::ResponsePayload response;
    response.id = i;
    response.detail = "block=" + dag.name();
    response.body = s.refs[i].asmText;
    t0 = Clock::now();
    {
      const Span span("net", "frame codecs");
      net::FrameDecoder decoder;
      const std::string wire =
          encodeFrame(net::FrameType::kRequest,
                      net::encodeRequestPayload({i, true, line})) +
          encodeFrame(net::FrameType::kHit,
                      net::encodeResponsePayload(response));
      decoder.feed(wire.data(), wire.size());
      net::Frame frame;
      bool ok = decoder.next(&frame) == net::FrameDecoder::Status::kFrame &&
                net::decodeRequestPayload(frame.payload).line == line &&
                decoder.next(&frame) == net::FrameDecoder::Status::kFrame &&
                net::decodeResponsePayload(frame.payload).body ==
                    response.body;
      if (!ok) result.fail(input.label + ": frame round trip failed");
    }
    frameUs.add(us(t0));
  }
  result.set("service.request_parse_us", parseUs.median(), "us");
  result.set("service.fingerprint_us", fingerprintUs.median(), "us");
  result.set("service.store_us", storeUs.median(), "us");
  result.set("service.lookup_us", lookupUs.median(), "us");
  result.set("net.frame_us", frameUs.median(), "us");
  std::error_code ec;
  fs::remove_all(config.dir, ec);
}

// The compile layers: jobs=1 and jobs=2 passes (same outputs and search
// counts; their wall ratio is the pool speedup), the staged replay checked
// against the jobs=1 compile, the service probes, and the parse costs of
// the setup.
void probeCompile(Setup& s, const RunOptions& options, Result& result) {
  std::vector<double> compileMs(s.inputs.size(), 0.0);
  int64_t allocs = 0;
  const double wall1 = jobsPass(s, 1, result, &compileMs, &allocs);
  const double wall2 = jobsPass(s, 2, result, nullptr, nullptr);

  // The replay runs twice: every count must repeat exactly, and the second
  // (warm) pass gives the stage times.
  StageTotals first, st;
  int64_t replayed = 0, mismatches = 0, arenaBytes = 0;
  double compileTotal = 0.0;
  for (StageTotals* totals : {&first, &st}) {
    replayed = mismatches = arenaBytes = 0;
    compileTotal = 0.0;
    for (size_t i = 0; i < s.inputs.size(); ++i) {
      const Reference& ref = s.refs[i];
      if (!ref.ok) continue;
      const Input& input = s.inputs[i];
      std::string asmText;
      try {
        asmText =
            replayBlock(s.dags[input.dag], *s.targets[input.target], *totals);
      } catch (const Error& e) {
        asmText = std::string("ERROR: ") + e.what();
      }
      ++replayed;
      compileTotal += compileMs[i];
      arenaBytes += static_cast<int64_t>(ref.search.arenaBytes);
      if (asmText != ref.asmText) {
        ++mismatches;
        result.fail(input.label +
                    ": staged replay emitted different assembly");
      }
    }
  }
  if (!first.sameCounts(st)) {
    ++mismatches;
    result.fail("staged replay counts differ between two passes");
  }
  result.attempted += replayed;
  result.failed += mismatches;
  result.notes.push_back("staged replay: " + std::to_string(replayed) +
                         " inputs twice, " + std::to_string(mismatches) +
                         " mismatches");
  probeService(s, options, result);

  const auto n = static_cast<double>(std::max<int64_t>(replayed, 1));
  result.set("trace.replay_mismatches", static_cast<double>(mismatches),
             "count");
  result.set("isdl.parse_ms",
             s.isdlMs / static_cast<double>(s.targets.size()), "ms");
  result.set("ir.parse_ms", s.irMs / static_cast<double>(s.dags.size()),
             "ms");
  result.set("core.splitnode_ms", st.splitnodeMs / n, "ms");
  result.set("core.snd_nodes", static_cast<double>(st.sndNodes), "count");
  result.set("core.explore_ms", st.exploreMs / n, "ms");
  result.set("core.explore_states", static_cast<double>(st.exploreStates),
             "count");
  result.set("core.candidates", static_cast<double>(st.candidates), "count");
  result.set("core.materialize_ms", st.materializeMs / n, "ms");
  result.set("core.cover_ms", st.coverMs / n, "ms");
  result.set("core.cliques", static_cast<double>(st.cliques), "count");
  result.set("core.clique_recursions",
             static_cast<double>(st.cliqueRecursions), "count");
  result.set("core.candidates_covered", static_cast<double>(st.covered),
             "count");
  result.set("core.cover_useful_share",
             st.covered > 0 ? static_cast<double>(st.useful) /
                                  static_cast<double>(st.covered)
                            : 0.0,
             "ratio");
  result.set("core.arena_bytes", static_cast<double>(arenaBytes), "bytes");
  result.set("core.spills", static_cast<double>(st.spills), "count");
  result.set("regalloc.peephole_ms", st.peepholeMs / n, "ms");
  result.set("regalloc.spill_code_removed",
             static_cast<double>(st.spillCodeRemoved), "count");
  result.set("regalloc.alloc_ms", st.allocMs / n, "ms");
  result.set("asmgen.encode_ms", st.encodeMs / n, "ms");
  result.set("driver.compile_ms", compileTotal / n, "ms");
  result.set("driver.unattributed_share",
             compileTotal > 0 ? (compileTotal - st.sumMs()) / compileTotal
                              : 0.0,
             "ratio");
  result.set("driver.heap_allocs", static_cast<double>(allocs) / n, "count");
  result.set("support.pool_speedup", wall2 > 0 ? wall1 / wall2 : 0.0, "ratio");
}

void setVerifyMetrics(double verifyMs, int64_t vectors, size_t checked,
                      Result& out) {
  out.set("verify.check_ms",
          verifyMs / static_cast<double>(std::max<size_t>(checked, 1)), "ms");
  out.set("verify.vectors", static_cast<double>(vectors), "count");
}

size_t compilable(const Setup& s) {
  return static_cast<size_t>(
      std::count_if(s.refs.begin(), s.refs.end(),
                    [](const Reference& r) { return r.ok; }));
}

// --- the workloads ---------------------------------------------------------------

void runCompileWorkload(const RunOptions& options, bool scale,
                        Result& result) {
  const int jobs = scale ? 2 : 1;
  std::vector<double> setupSeconds;
  Setup s;
  for (int k = 0; k < kSetups; ++k) {
    s = Setup{};  // release the previous setup before timing the next
    double seconds = 0.0;
    s = buildSetup(options, scale, jobs, &seconds);
    setupSeconds.push_back(seconds);
  }
  std::vector<size_t> order(s.inputs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(options.seed * 0x2545f4914f6cdd1dull + 17);
  for (size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  if (!options.trace) {
    const Window w = timedWindow(s, order, options.seconds, false, result);
    result.attempted += w.compiles;
    result.failed += w.mismatches;
    double verifyMs = 0.0;
    int64_t vectors = 0;
    checkOutputs(s, result, &verifyMs, &vectors);
    int64_t instrs = 0, spills = 0;
    for (const Reference& ref : s.refs) {
      instrs += ref.instrs;
      spills += ref.spills;
    }
    const Steady steady = fastestTenth(w.perInput);
    result.notes.push_back(
        "latency samples: " + std::to_string(steady.latency.size()) +
        ", the fastest " + std::to_string(steady.perGroup) +
        " compiles of each input (" + std::to_string(steady.slices) +
        " compiles in the window)");
    result.set("throughput_per_s", steady.throughputPerS, "1/s");
    result.set("latency_ms_p50",
               steady.latency.percentile(0.5, "p50", result), "ms");
    result.set("latency_ms_p90",
               steady.latency.percentile(0.9, "p90", result), "ms");
    result.set("code_instrs", static_cast<double>(instrs), "count");
    result.set("code_spills", static_cast<double>(spills), "count");
    result.set("peak_rss_mb", peakRssMb(getpid()), "MB");
    result.set("setup_s", medianOf(setupSeconds), "s");
    return;
  }

  // Traced run: untraced and traced halves of the window give the tracing
  // overhead.
  const Window plain =
      timedWindow(s, order, options.seconds / 2, false, result);
  const Window traced =
      timedWindow(s, order, options.seconds / 2, true, result);
  result.attempted += plain.compiles + traced.compiles;
  result.failed += plain.mismatches + traced.mismatches;
  result.set("trace.overhead_share",
             1.0 - fastestTenth(traced.perInput).throughputPerS /
                       fastestTenth(plain.perInput).throughputPerS,
             "ratio");

  probeCompile(s, options, result);
  double verifyMs = 0.0;
  int64_t vectors = 0;
  checkOutputs(s, result, &verifyMs, &vectors);
  setVerifyMetrics(verifyMs, vectors, compilable(s), result);
}

}  // namespace

void runPaperCold(const RunOptions& options, Result& result) {
  runCompileWorkload(options, false, result);
}

void runDagScale(const RunOptions& options, Result& result) {
  runCompileWorkload(options, true, result);
}

void probePaperLayers(const RunOptions& options, Result& result) {
  double seconds = 0.0;
  Setup s = buildSetup(options, false, 1, &seconds);
  probeCompile(s, options, result);
  double verifyMs = 0.0;
  int64_t vectors = 0;
  Result checks;
  checkOutputs(s, checks, &verifyMs, &vectors);
  for (const std::string& why : checks.failures) result.fail(why);
  result.attempted += checks.attempted;
  result.failed += checks.failed;
  setVerifyMetrics(verifyMs, vectors, compilable(s), result);
}

}  // namespace perfbench
