// avivbench — one run of one workload of the AVIV end-to-end benchmark.
//
//   avivbench --workload paper-cold|dag-scale|serve-mixed
//             --seed N --seconds S --trace 0|1 --avivd PATH
//             --scratch DIR [--trace-out trace.json]
//
// Prints human-readable notes, then one line "RESULT {json}" with the
// attempted/failed counts, the failures, the metrics (end-to-end when
// --trace 0, per-layer when --trace 1) and the run's timing context.
// run.py builds this program, adds the machine context and prints the
// benchmark's final JSON line.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

// Per-layer metrics a traced run reports on every workload; a layer that is
// not on a workload's path (the server-side net and proc layers on the
// compile workloads) reads 0.
const char* const kPerLayer[] = {
    "isdl.parse_ms",          "ir.parse_ms",
    "core.splitnode_ms",      "core.snd_nodes",
    "core.explore_ms",        "core.explore_states",
    "core.candidates",        "core.materialize_ms",
    "core.cover_ms",          "core.cliques",
    "core.clique_recursions", "core.candidates_covered",
    "core.cover_useful_share", "core.arena_bytes",
    "core.spills",            "regalloc.peephole_ms",
    "regalloc.spill_code_removed", "regalloc.alloc_ms",
    "asmgen.encode_ms",       "verify.check_ms",
    "verify.vectors",         "driver.compile_ms",
    "driver.unattributed_share", "driver.heap_allocs",
    "support.pool_speedup",   "service.request_parse_us",
    "service.fingerprint_us", "service.lookup_us",
    "service.store_us",       "service.hit_ratio",
    "net.frame_us",           "net.server_ms_p50",
    "net.transport_ms_p50",   "net.queue_ms_p50",
    "net.shed_share",         "proc.crashes",
    "proc.respawns",          "proc.retries",
    "proc.server_ms_p50",
    "trace.replay_mismatches", "trace.overhead_share",
};

// A fixed integer loop that does not touch the program: its time at the
// start and end of a run shows how fast the host was running.
double calibrationMs() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return secondsSince(start) * 1e3;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "avivbench: %s\nusage: avivbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --avivd PATH --scratch DIR "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--avivd") {
      options.avivd = value;
    } else if (flag == "--scratch") {
      options.scratchDir = value;
    } else if (flag == "--trace-out") {
      options.traceOut = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.scratchDir.empty()) return usage("--scratch is required");
  std::filesystem::create_directories(options.scratchDir);

  const double calibrationStart = calibrationMs();
  if (options.trace) Spans::instance().enable();
  Result result;
  try {
    if (options.workload == "paper-cold") {
      runPaperCold(options, result);
    } else if (options.workload == "dag-scale") {
      runDagScale(options, result);
    } else if (options.workload == "serve-mixed") {
      runServe(options, result);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    result.fail(std::string("aborted: ") + e.what());
  }
  const double calibrationEnd = calibrationMs();

  if (options.trace) {
    for (const char* name : kPerLayer)
      if (result.metrics.count(name) == 0)
        result.set(name, 0.0,
                   std::strstr(name, "_ms") != nullptr      ? "ms"
                   : std::strstr(name, "_share") != nullptr ? "ratio"
                   : std::strstr(name, "_ratio") != nullptr ? "ratio"
                                                             : "count");
    const auto selfTimes = Spans::instance().selfTimes();
    std::printf("layer self time (traced spans):\n");
    for (const auto& [layer, t] : selfTimes)
      std::printf("  %-10s %12.3f ms %10lld spans\n", layer.c_str(), t.selfMs,
                  static_cast<long long>(t.count));
    if (!options.traceOut.empty() &&
        !Spans::instance().writeChromeTrace(options.traceOut))
      result.fail("could not write " + options.traceOut);
  } else {
    result.set("ok_share",
               result.attempted > 0
                   ? static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted)
                   : 0.0,
               "ratio");
  }
  if (result.attempted == 0) result.fail("nothing was attempted");

  for (const std::string& note : result.notes)
    std::printf("%s\n", note.c_str());
  std::string json = "{\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) +
                     ",\"failures\":[";
  for (size_t i = 0; i < result.failures.size(); ++i)
    json += (i ? ",\"" : "\"") + jsonEscape(result.failures[i]) + "\"";
  json += "],\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : result.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += std::string(first ? "" : ",") + "\"" + name +
            "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit + "\"}";
    first = false;
  }
  std::snprintf(buf, sizeof buf, "%.3f,\"end\":%.3f}", calibrationStart,
                calibrationEnd);
  json += "},\"calibration_ms\":{\"start\":" + std::string(buf) + "}";
  std::printf("RESULT %s\n", json.c_str());
  return 0;
}
