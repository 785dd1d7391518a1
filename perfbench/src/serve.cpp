// The serve workload: `serve-mixed` spawns avivd listening on a unix socket
// with a fresh cache directory and drives it from one single-threaded
// client running a closed loop over two connections (a build tool waits
// for each reply before sending its next request). Its traced run also
// drives `avivd --isolate-workers` briefly, to measure the proc layer.
//
// The stream is the paper matrix's compilable block x machine pairs as
// request lines, in cycles: each cycle names every pair kHitsPerMiss times
// as a repeat the memory tier serves and once with a never-repeating
// `timeout=` token, in a seeded order. The timeout is part of the compile
// fingerprint but far longer than any compile, so a miss is a cold compile
// of an ordinary pair that then takes the cache store path. Every cycle
// holds the same work, whatever the seed.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "net/frame.h"
#include "net/socket.h"
#include "service/request.h"
#include "support/error.h"
#include "support/io.h"
#include "support/rng.h"

namespace perfbench {

using namespace aviv;
namespace fs = std::filesystem;

namespace {

constexpr int kConnections = 2;
constexpr int kServerJobs = 2;
constexpr int kCheckThreads = 4;  // in-process compiles of the served lines
// One request in kHitsPerMiss + 1 is a cache miss. A hit takes ~0.2 ms and
// a miss is a cold compile of 0.5-15 ms, so the 4% of misses sit above p90
// and neither percentile lands on the hit/miss boundary.
constexpr size_t kHitsPerMiss = 24;

// Request lines for every pair of the paper matrix whose golden outcome is
// a compile (pairs recorded as rejected would only test error responses).
std::vector<std::string> paperLines() {
  std::vector<std::string> lines;
  for (const std::string& m : paperMachines())
    for (const std::string& b : paperBlocks())
      if (goldenError(b, m).empty())
        lines.push_back("machine=" + m + " block=" + b);
  return lines;
}

// --- the server process ----------------------------------------------------------

class Server {
 public:
  Server(const RunOptions& options, bool isolated, int index) {
    dir_ = options.scratchDir + "/server" + std::to_string(index);
    fs::create_directories(dir_);
    socket_ = dir_ + "/s.sock";
    log_ = dir_ + "/avivd.log";
    std::vector<std::string> args = {
        options.avivd, "--listen",   "unix:" + socket_,
        "--jobs",      std::to_string(kServerJobs),
        "--cache-dir", dir_ + "/cache"};
    if (isolated) {
      args.push_back("--isolate-workers");
      args.push_back(std::to_string(kServerJobs));
    }
    pid_ = ::fork();
    if (pid_ < 0) throw Error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const std::string& socketPath() const { return socket_; }

  // Readiness: poll connect() until the listener accepts.
  void waitReady(double timeoutSeconds) {
    const net::Endpoint endpoint = net::parseEndpoint("unix:" + socket_);
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < timeoutSeconds) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw Error("avivd exited during startup; see " + log_);
      }
      try {
        net::Fd probe = net::connectTo(endpoint);
        if (probe.valid()) return;
      } catch (const Error&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw Error("avivd did not accept connections within the timeout");
  }

  // VmHWM of the server and every process it forked.
  [[nodiscard]] double peakRssMb() const {
    double total = perfbench::peakRssMb(pid_);
    const fs::path tasks = "/proc/" + std::to_string(pid_) + "/task";
    std::error_code ec;
    for (const auto& task : fs::directory_iterator(tasks, ec)) {
      std::ifstream in(task.path() / "children");
      int child = 0;
      while (in >> child) total += perfbench::peakRssMb(child);
    }
    return total;
  }

  // SIGTERM (graceful drain), wait, and return the server's log.
  std::string stop() {
    if (pid_ <= 0) return "";
    ::kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point start = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (secondsSince(start) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    std::ifstream in(log_);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }

 private:
  std::string dir_;
  std::string socket_;
  std::string log_;
  int pid_ = -1;
};

// --- the client ------------------------------------------------------------------

struct Reply {
  std::string line;
  net::FrameType type = net::FrameType::kError;
  double latencyMs = 0.0;
  double wallMs = 0.0;
  double queueMs = 0.0;
  std::string detail;
  std::string body;
};

// Closed loop over kConnections: each connection sends its next request as
// soon as the reply to the previous one arrives.
class Client {
 public:
  explicit Client(const std::string& socketPath) {
    const net::Endpoint endpoint = net::parseEndpoint("unix:" + socketPath);
    for (int i = 0; i < kConnections; ++i) conns_.emplace_back(endpoint);
  }

  // Runs until `next` returns nullopt, then drains outstanding requests.
  // Every reply is handed to `onReply`. Returns false on a protocol or
  // transport failure.
  template <class Next, class OnReply>
  bool run(Next&& next, OnReply&& onReply, bool traced) {
    bool sending = true;
    for (;;) {
      size_t outstanding = 0;
      for (Conn& c : conns_) {
        if (!c.pending && sending) {
          std::optional<std::string> line = next();
          if (!line) {
            sending = false;
          } else if (!send(c, std::move(*line), traced)) {
            return false;
          }
        }
        if (c.pending) ++outstanding;
      }
      if (outstanding == 0) return true;
      std::vector<pollfd> fds;
      for (Conn& c : conns_) fds.push_back({c.fd.get(), POLLIN, 0});
      const int ready = ::poll(fds.data(), fds.size(), 30000);
      if (ready <= 0) {
        error_ = "no reply within 30 s";
        return false;
      }
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents == 0) continue;
        if (!receive(conns_[i], onReply, traced)) return false;
      }
    }
  }

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  struct Pending {
    uint64_t id = 0;
    std::string line;
    Clock::time_point sent;
  };
  struct Conn {
    explicit Conn(const net::Endpoint& endpoint)
        : fd(net::connectTo(endpoint)) {}
    net::Fd fd;
    net::FrameDecoder decoder;
    std::optional<Pending> pending;
  };

  bool send(Conn& c, std::string line, bool traced) {
    Pending p{++lastId_, std::move(line), Clock::now()};
    std::string wire;
    {
      std::optional<Span> span;
      if (traced) span.emplace("net", "encode request");
      wire = net::encodeFrame(net::FrameType::kRequest,
                              net::encodeRequestPayload({p.id, true, p.line}));
    }
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::write(c.fd.get(), wire.data() + off,
                                wire.size() - off);
      if (n <= 0) {
        error_ = "write failed";
        return false;
      }
      off += static_cast<size_t>(n);
    }
    c.pending = std::move(p);
    return true;
  }

  template <class OnReply>
  bool receive(Conn& c, OnReply&& onReply, bool traced) {
    char buf[65536];
    const ssize_t n = ::read(c.fd.get(), buf, sizeof buf);
    if (n <= 0) {
      error_ = "connection closed by server";
      return false;
    }
    c.decoder.feed(buf, static_cast<size_t>(n));
    net::Frame frame;
    for (;;) {
      const net::FrameDecoder::Status status = c.decoder.next(&frame);
      if (status == net::FrameDecoder::Status::kNeedMore) return true;
      if (status == net::FrameDecoder::Status::kError || !c.pending) {
        error_ = "protocol error: " + c.decoder.error();
        return false;
      }
      const Clock::time_point now = Clock::now();
      net::ResponsePayload payload;
      {
        std::optional<Span> span;
        if (traced) span.emplace("net", "decode response");
        payload = net::decodeResponsePayload(frame.payload);
      }
      if (payload.id != c.pending->id) {
        error_ = "reply id mismatch";
        return false;
      }
      if (traced)
        Spans::instance().record("net", "request round trip",
                                 c.pending->sent, now);
      Reply reply;
      reply.line = std::move(c.pending->line);
      reply.type = frame.type;
      reply.latencyMs =
          std::chrono::duration<double, std::milli>(now - c.pending->sent)
              .count();
      reply.wallMs = static_cast<double>(payload.wallMicros) / 1e3;
      reply.queueMs = static_cast<double>(payload.queueMicros) / 1e3;
      reply.detail = std::move(payload.detail);
      reply.body = std::move(payload.body);
      c.pending.reset();
      onReply(std::move(reply));
    }
  }

  std::vector<Conn> conns_;
  uint64_t lastId_ = 0;
  std::string error_;
};

// --- the workload ---------------------------------------------------------------

bool servedOk(net::FrameType type) {
  return type == net::FrameType::kOk || type == net::FrameType::kHit;
}

class Stream {
 public:
  Stream(const std::vector<std::string>& lines, uint64_t seed)
      : lines_(lines), rng_(seed * 0xd1b54a32d192ed03ull + 3) {}

  // Requests in one cycle; the timed window's slices are cycles.
  [[nodiscard]] size_t cycleLength() const {
    return lines_.size() * (kHitsPerMiss + 1);
  }

  std::string next() {
    if (at_ == cycle_.size()) refill();
    return std::move(cycle_[at_++]);
  }

 private:
  void refill() {
    cycle_.clear();
    for (const std::string& line : lines_) {
      for (size_t k = 0; k < kHitsPerMiss; ++k) cycle_.push_back(line);
      cycle_.push_back(line + " timeout=" + std::to_string(1000 + misses_++));
    }
    for (size_t i = cycle_.size(); i > 1; --i)
      std::swap(cycle_[i - 1], cycle_[rng_.below(i)]);
    at_ = 0;
  }

  const std::vector<std::string>& lines_;
  Rng rng_;
  std::vector<std::string> cycle_;
  size_t at_ = 0;
  uint64_t misses_ = 0;
};

struct Window {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t bad = 0;
  int64_t hits = 0;
  int64_t shed = 0;
  std::vector<Slice> slices;
  Samples serverMs, queueMs, transportMs;
};

void warmUp(Server& server, const std::vector<std::string>& lines,
            std::map<std::string, std::string>& served, Result& result) {
  Client client(server.socketPath());
  size_t i = 0;
  const bool ok = client.run(
      [&]() -> std::optional<std::string> {
        if (i == lines.size()) return std::nullopt;
        return lines[i++];
      },
      [&](Reply reply) {
        if (servedOk(reply.type)) {
          served.emplace(reply.line, std::move(reply.body));
        } else {
          result.fail("warm-up: " + reply.line + ": " +
                      net::frameTypeName(reply.type) + " " + reply.detail);
        }
      },
      false);
  if (!ok) result.fail("warm-up: " + client.error());
}

Window timedWindow(Server& server, Stream& stream, double seconds,
                   bool traced, std::map<std::string, std::string>& served,
                   Result& result) {
  Window w;
  Client client(server.socketPath());
  const Clock::time_point start = Clock::now();
  Clock::time_point sliceStart = start;
  Slice slice;
  size_t inSlice = 0;
  const bool ok = client.run(
      [&]() -> std::optional<std::string> {
        if (secondsSince(start) >= seconds) return std::nullopt;
        ++w.sent;
        return stream.next();
      },
      [&](Reply reply) {
        if (servedOk(reply.type)) {
          slice.latencyMs.push_back(reply.latencyMs);
          ++slice.completed;
        }
        if (++inSlice == stream.cycleLength()) {
          slice.seconds = secondsSince(sliceStart);
          w.slices.push_back(std::move(slice));
          slice = Slice{};
          sliceStart = Clock::now();
          inSlice = 0;
        }
        w.serverMs.add(reply.wallMs);
        w.queueMs.add(reply.queueMs);
        w.transportMs.add(reply.latencyMs - reply.wallMs);
        if (reply.type == net::FrameType::kRetryAfter) ++w.shed;
        if (reply.type == net::FrameType::kHit) ++w.hits;
        bool good = servedOk(reply.type);
        if (good) {
          // Every response must repeat the first one served for its line;
          // that one is checked against an in-process compile afterwards.
          const auto [it, first] =
              served.try_emplace(reply.line, std::move(reply.body));
          good = first || it->second == reply.body;
        }
        if (good) {
          ++w.ok;
        } else if (++w.bad <= 3) {
          result.fail(reply.line + ": " + net::frameTypeName(reply.type) +
                      " " + reply.detail +
                      (servedOk(reply.type) ? " (assembly changed)" : ""));
        }
      },
      traced);
  if (!ok) result.fail("timed window: " + client.error());
  return w;
}

// Counts from the "avivd: workers:" summary line (isolated mode).
std::map<std::string, double> workerSummary(const std::string& log) {
  std::map<std::string, double> counts;
  const size_t at = log.find("avivd: workers: ");
  if (at == std::string::npos) return counts;
  std::istringstream in(log.substr(at + 16, log.find('\n', at) - at - 16));
  std::string item;
  while (std::getline(in, item, ',')) {
    std::istringstream fields(item);
    double value = 0;
    std::string name;
    fields >> value >> name;
    counts[name] = value;
  }
  return counts;
}

// Every distinct served line is compiled once in-process through the same
// request path; the served assembly must match it byte for byte. The
// repeated lines (every pair of the matrix, served in the warm-up) also
// give the code-size totals: instructions from the status line, spills
// from a direct compile of the pair.
void checkServed(const std::map<std::string, std::string>& served,
                 Result& result, int64_t* instrs, int64_t* spills) {
  const std::vector<std::pair<std::string, std::string>> lines(
      served.begin(), served.end());
  std::vector<RequestOutcome> outcomes(lines.size());
  std::vector<int> lineSpills(lines.size(), 0);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    const RequestDefaults defaults;
    RequestExecConfig exec;
    exec.wantAsm = true;
    for (size_t i; (i = next.fetch_add(1)) < lines.size();) {
      const RequestParse parse = parseRequestLine(lines[i].first, 0, defaults);
      if (!parse.ok()) continue;
      TelemetryNode tel("check");
      outcomes[i] = executeRequest(*parse.request, exec, tel);
      if (lines[i].first.find(" timeout=") != std::string::npos) continue;
      const ParsedRequest& request = *parse.request;
      try {
        CodeGenerator generator(loadMachine(request.machineSpec),
                                request.options);
        SymbolTable symbols;
        lineSpills[i] =
            generator.compileBlock(loadBlock(request.blockSpec), symbols)
                .core.stats.cover.spillsInserted;
      } catch (const std::exception&) {
        outcomes[i].ok = false;  // fails the line below
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < lines.size(); ++i) {
    const auto& [line, body] = lines[i];
    const RequestOutcome& outcome = outcomes[i];
    ++result.attempted;
    if (!outcome.ok || outcome.asmText != body) {
      ++result.failed;
      result.fail(line + ": served assembly differs from the in-process "
                  "compile");
      continue;
    }
    *spills += lineSpills[i];
    if (line.find(" timeout=") != std::string::npos) continue;
    const size_t at = outcome.statusDetail.find(" instrs=");
    if (at != std::string::npos)
      *instrs += std::stoll(outcome.statusDetail.substr(at + 8));
  }
}

// Spawns avivd `setups` times (the last one stays up), each time polling for
// readiness and warming every line once; returns the median set-up time.
std::unique_ptr<Server> setUp(const RunOptions& options, bool isolated,
                              int setups,
                              const std::vector<std::string>& lines,
                              std::map<std::string, std::string>& served,
                              Result& result, double* setupSeconds) {
  std::vector<double> seconds;
  std::unique_ptr<Server> server;
  for (int k = 0; k < setups; ++k) {
    server.reset();
    const Clock::time_point start = Clock::now();
    server = std::make_unique<Server>(options, isolated,
                                      isolated ? kSetups + k : k);
    server->waitReady(20.0);
    served.clear();
    warmUp(*server, lines, served, result);
    seconds.push_back(secondsSince(start));
  }
  *setupSeconds = medianOf(seconds);
  return server;
}

// Stops the server and accounts for the window's requests.
std::string finish(Server& server, const Window& w, Result& result) {
  const std::string log = server.stop();
  if (log.find(", 0 dropped") == std::string::npos)
    result.fail("avivd did not report a clean drain:\n" + log);
  result.attempted += w.sent;
  result.failed += w.sent - w.ok;
  return log;
}

// The traced run's isolated-worker probe: the same stream for a sixth of
// the window against `avivd --isolate-workers`, the only path through the
// proc layer. Its served assembly is checked like the main window's.
void probeIsolated(const RunOptions& options,
                   const std::vector<std::string>& lines, Result& result) {
  std::map<std::string, std::string> served;
  double setupSeconds = 0.0;
  const std::unique_ptr<Server> server =
      setUp(options, true, 1, lines, served, result, &setupSeconds);
  Stream stream(lines, options.seed + 1);
  const Window w = timedWindow(*server, stream, options.seconds / 6, false,
                               served, result);
  const std::map<std::string, double> workers =
      workerSummary(finish(*server, w, result));
  int64_t instrs = 0, spills = 0;
  checkServed(served, result, &instrs, &spills);
  const auto count = [&](const char* name) {
    const auto it = workers.find(name);
    return it == workers.end() ? 0.0 : it->second;
  };
  result.set("proc.crashes", count("crashes"), "count");
  result.set("proc.respawns", count("respawns"), "count");
  result.set("proc.retries", count("crash-retried"), "count");
  result.set("proc.server_ms_p50", w.serverMs.median(), "ms");
}

}  // namespace

void runServe(const RunOptions& options, Result& result) {
  const std::vector<std::string> lines = paperLines();
  std::map<std::string, std::string> served;  // line -> first served asm
  double setupSeconds = 0.0;
  const std::unique_ptr<Server> server =
      setUp(options, false, kSetups, lines, served, result, &setupSeconds);

  Stream stream(lines, options.seed);
  Window w;
  double overhead = 0.0;
  if (!options.trace) {
    w = timedWindow(*server, stream, options.seconds, false, served, result);
  } else {
    const Window plain =
        timedWindow(*server, stream, options.seconds / 2, false, served,
                    result);
    w = timedWindow(*server, stream, options.seconds / 2, true, served,
                    result);
    overhead = 1.0 - fastestTenth({w.slices}).throughputPerS /
                         fastestTenth({plain.slices}).throughputPerS;
  }
  const double rss = server->peakRssMb();
  finish(*server, w, result);

  int64_t instrs = 0, spills = 0;
  checkServed(served, result, &instrs, &spills);
  const Steady steady = fastestTenth({w.slices});
  result.notes.push_back(
      "latency samples: " + std::to_string(steady.latency.size()) +
      " from the fastest " + std::to_string(steady.perGroup) + " of " +
      std::to_string(steady.slices) + " slices; distinct lines "
      "checked: " + std::to_string(served.size()));

  if (!options.trace) {
    result.set("throughput_per_s", steady.throughputPerS, "1/s");
    result.set("latency_ms_p50",
               steady.latency.percentile(0.5, "p50", result), "ms");
    result.set("latency_ms_p90",
               steady.latency.percentile(0.9, "p90", result), "ms");
    result.set("code_instrs", static_cast<double>(instrs), "count");
    result.set("code_spills", static_cast<double>(spills), "count");
    result.set("peak_rss_mb", rss, "MB");
    result.set("setup_s", setupSeconds, "s");
    return;
  }

  const auto sent = static_cast<double>(std::max<int64_t>(w.sent, 1));
  result.set("trace.overhead_share", overhead, "ratio");
  result.set("service.hit_ratio", static_cast<double>(w.hits) / sent,
             "ratio");
  result.set("net.server_ms_p50", w.serverMs.median(), "ms");
  result.set("net.transport_ms_p50", w.transportMs.median(), "ms");
  result.set("net.queue_ms_p50", w.queueMs.median(), "ms");
  result.set("net.shed_share", static_cast<double>(w.shed) / sent, "ratio");
  probeIsolated(options, lines, result);
  probePaperLayers(options, result);
}

}  // namespace perfbench
