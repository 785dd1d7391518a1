#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include "bench.h"
#include "support/io.h"

namespace perfbench {

double medianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Samples::median() const { return medianOf(values_); }

double Samples::percentile(double q, const std::string& name,
                           Result& result) const {
  if (values_.empty()) {
    result.fail(name + ": no samples");
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const size_t beyond = sorted.size() - 1 - lo;
  if (beyond < 10)
    result.fail(name + ": only " + std::to_string(beyond) +
                " samples beyond the percentile (" +
                std::to_string(sorted.size()) + " total, need 10 beyond)");
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Steady fastestTenth(const std::vector<std::vector<Slice>>& groups) {
  std::vector<std::vector<const Slice*>> sorted;
  size_t smallest = SIZE_MAX;
  Steady steady;
  for (const std::vector<Slice>& group : groups) {
    std::vector<const Slice*> bySpeed;
    for (const Slice& slice : group)
      if (slice.seconds > 0) bySpeed.push_back(&slice);
    std::sort(bySpeed.begin(), bySpeed.end(),
              [](const Slice* a, const Slice* b) {
                return static_cast<double>(a->completed) / a->seconds >
                       static_cast<double>(b->completed) / b->seconds;
              });
    smallest = std::min(smallest, bySpeed.size());
    steady.slices += bySpeed.size();
    sorted.push_back(std::move(bySpeed));
  }
  if (sorted.empty() || smallest == 0) return steady;
  size_t take = (smallest + 9) / 10;
  const auto samplesIn = [&](size_t k) {
    size_t n = 0;
    for (const auto& group : sorted)
      for (size_t i = 0; i < k; ++i) n += group[i]->latencyMs.size();
    return n;
  };
  while (take < smallest && samplesIn(take) < kMinSteadySamples) ++take;
  double seconds = 0.0;
  int64_t completed = 0;
  for (const auto& group : sorted) {
    for (size_t i = 0; i < take; ++i) {
      seconds += group[i]->seconds;
      completed += group[i]->completed;
      for (const double ms : group[i]->latencyMs) steady.latency.add(ms);
    }
  }
  steady.perGroup = take;
  steady.throughputPerS =
      seconds > 0 ? static_cast<double>(completed) / seconds : 0.0;
  return steady;
}

// --- spans -----------------------------------------------------------------

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

namespace {
int threadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}
}  // namespace

void Spans::record(const char* layer, const char* name,
                   Clock::time_point start, Clock::time_point end) {
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  const Event event{layer, name, ns(start), ns(end), threadIndex()};
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::map<std::string, Spans::LayerTotals> Spans::selfTimes() const {
  std::vector<Event> events;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  // Parents start no later and end no earlier than their children; order
  // by (tid, start, longest first) and walk a containment stack.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.startNs != b.startNs) return a.startNs < b.startNs;
    return a.endNs > b.endNs;
  });
  std::map<std::string, LayerTotals> totals;
  std::vector<double> selfNs(events.size(), 0.0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    while (!stack.empty() && (events[stack.back()].tid != e.tid ||
                              events[stack.back()].endNs <= e.startNs))
      stack.pop_back();
    const auto dur = static_cast<double>(e.endNs - e.startNs);
    selfNs[i] = dur;
    if (!stack.empty()) selfNs[stack.back()] -= dur;
    stack.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    LayerTotals& t = totals[events[i].layer];
    t.selfMs += selfNs[i] / 1e6;
    t.count += 1;
  }
  return totals;
}

bool Spans::writeChromeTrace(const std::string& path) const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  {
    const std::lock_guard<std::mutex> lock(mu_);
    char buf[64];
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << jsonEscape(e.name)
          << "\",\"cat\":\"" << jsonEscape(e.layer)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid;
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f}",
                    static_cast<double>(e.startNs) / 1e3,
                    static_cast<double>(e.endNs - e.startNs) / 1e3);
      out << buf;
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

// --- the paper matrix -------------------------------------------------------

namespace {
std::vector<std::string> stems(const std::string& dir, const std::string& ext) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ext)
      out.push_back(entry.path().stem().string());
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace

std::vector<std::string> paperMachines() {
  std::vector<std::string> machines = stems(aviv::machineDir(), ".isdl");
  for (const std::string& zoo : stems(aviv::machineDir() + "/zoo", ".isdl"))
    machines.push_back("zoo/" + zoo);
  return machines;
}

std::vector<std::string> paperBlocks() {
  return stems(aviv::blockDir(), ".blk");
}

std::string goldenError(const std::string& block, const std::string& machine) {
  std::string flat = machine;
  std::replace(flat.begin(), flat.end(), '/', '_');
  std::ifstream in(std::filesystem::path(aviv::blockDir()) / ".." / "tests" /
                   "golden" / (block + "_" + flat + ".asm"));
  std::ostringstream text;
  text << in.rdbuf();
  const std::string s = text.str();
  if (s.rfind("ERROR: ", 0) != 0) return "";
  std::string message = s.substr(7);
  while (!message.empty() && message.back() == '\n') message.pop_back();
  return message;
}

// --- process probes ----------------------------------------------------------

double peakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// --- counting allocator --------------------------------------------------------

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<int64_t> g_allocs{0};

void* countedAlloc(std::size_t size) {
  if (g_countAllocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_countAllocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

void setAllocCounting(bool on) {
  g_countAllocs.store(on, std::memory_order_relaxed);
}

int64_t allocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::countedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::countedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::countedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
