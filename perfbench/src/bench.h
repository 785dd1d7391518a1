// Shared plumbing of the AVIV end-to-end benchmark: run options, the result
// record every workload fills, latency samples, the benchmark's own span
// recorder (spans wrap calls into the library from outside; nothing inside
// the program is instrumented), the counting allocator and process probes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string avivd;      // path of the avivd binary (serve workloads)
  std::string traceOut;   // Chrome trace JSON written by traced runs
  std::string scratchDir; // per-run directory for sockets and caches
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one invocation reports. `metrics` holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one; `failures`
// lists every check that failed (the run is then not correct).
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // printed before the JSON line

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) { failures.push_back(why); }
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Latency samples in milliseconds. percentile() reports the value only
// when at least ten samples lie beyond it; otherwise it records a failure
// in `result` (a percentile resting on fewer samples is noise).
class Samples {
 public:
  void add(double ms) { values_.push_back(ms); }
  [[nodiscard]] size_t size() const { return values_.size(); }
  [[nodiscard]] double percentile(double q, const std::string& name,
                                  Result& result) const;
  [[nodiscard]] double median() const;

 private:
  std::vector<double> values_;
};

[[nodiscard]] double medianOf(std::vector<double> values);

// A timed window is recorded as slices of equal work: each compile of an
// input on a compile workload, each cycle of the request stream on the
// serve workload. The host these runs share changes speed by up to 1.8x for
// tens of seconds at a time (noisy neighbours; no steal shows), so the
// timing metrics are taken over the fastest tenth of the slices of each
// group (each input; all the cycles), the same number from every group,
// grown until the selection holds kMinSteadySamples latencies. That is the
// code's speed when the host is least contended; because every group gives
// the same share, choosing by speed does not choose easier inputs.
struct Slice {
  double seconds = 0.0;
  int64_t completed = 0;
  std::vector<double> latencyMs;
};

// Enough for a p90 with at least ten samples beyond it.
inline constexpr size_t kMinSteadySamples = 120;

struct Steady {
  double throughputPerS = 0.0;  // completed / seconds over the selection
  Samples latency;
  size_t perGroup = 0;  // slices taken from each group
  size_t slices = 0;    // slices recorded in all groups
};

[[nodiscard]] Steady fastestTenth(
    const std::vector<std::vector<Slice>>& groups);


// Span recorder: complete ('X') events kept in memory, written once at the
// end as Chrome trace JSON. `layer` is the repository module whose public
// function the span wraps; self time per layer excludes nested spans.
class Spans {
 public:
  static Spans& instance();

  void enable() { on_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const {
    return on_.load(std::memory_order_relaxed);
  }
  void record(const char* layer, const char* name, Clock::time_point start,
              Clock::time_point end);

  struct LayerTotals {
    double selfMs = 0.0;
    int64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTotals> selfTimes() const;
  [[nodiscard]] bool writeChromeTrace(const std::string& path) const;

 private:
  struct Event {
    const char* layer;
    const char* name;
    int64_t startNs;
    int64_t endNs;
    int tid;
  };
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Event> events_;
  Clock::time_point epoch_ = Clock::now();
};

// RAII span; records nothing when tracing is off.
class Span {
 public:
  Span(const char* layer, const char* name)
      : layer_(layer), name_(name), start_(Clock::now()) {}
  ~Span() {
    if (Spans::instance().on())
      Spans::instance().record(layer_, name_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  const char* layer_;
  const char* name_;
  Clock::time_point start_;
};

// setup_s is the median of this many set-ups per run.
inline constexpr int kSetups = 5;

// The paper matrix: every machine in machines/ and machines/zoo/ ("zoo/x")
// and every .blk block, sorted; and a pair's golden outcome from
// tests/golden/ — the error message when the pair is recorded as rejected,
// empty when it compiles.
[[nodiscard]] std::vector<std::string> paperMachines();
[[nodiscard]] std::vector<std::string> paperBlocks();
[[nodiscard]] std::string goldenError(const std::string& block,
                                      const std::string& machine);

// Counting allocator (global operator new replacement): counts every
// allocation in the process while enabled.
void setAllocCounting(bool on);
[[nodiscard]] int64_t allocCount();

// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
[[nodiscard]] double peakRssMb(int pid);

// Chrome-trace/metrics-safe JSON string escaping.
[[nodiscard]] std::string jsonEscape(const std::string& s);

// Workloads (compile.cpp / serve.cpp).
void runPaperCold(const RunOptions& options, Result& result);
void runDagScale(const RunOptions& options, Result& result);
void runServe(const RunOptions& options, Result& result);
// The compile, verify and service layers probed over the paper matrix
// (traced serve runs, whose own path runs them only inside avivd).
void probePaperLayers(const RunOptions& options, Result& result);

}  // namespace perfbench
