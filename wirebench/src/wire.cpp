#include "wire.hpp"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "spans.hpp"
#include "stats.hpp"

extern char** environ;

namespace wirebench {

namespace {

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const std::string& s) { return write_all(fd, s.data(), s.size()); }

// Buffered line reader over a pipe. A returned line stays valid until the
// next call.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd), buf_(1 << 20) {}

  bool next(std::string_view& line) {
    for (;;) {
      const void* nl = std::memchr(buf_.data() + begin_, '\n', end_ - begin_);
      if (nl) {
        const std::size_t pos = static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.data());
        line = std::string_view(buf_.data() + begin_, pos - begin_);
        begin_ = pos + 1;
        return true;
      }
      if (begin_ > 0) {
        std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
      }
      if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
      const ssize_t n = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (end_ == begin_) return false;
        line = std::string_view(buf_.data() + begin_, end_ - begin_);  // unterminated tail
        begin_ = end_;
        return true;
      }
      end_ += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
  std::vector<char> buf_;
  std::size_t begin_ = 0, end_ = 0;
};

// CPU placement. On a host with at least four CPUs the client keeps the
// first allowed CPU and the service gets the others: the client's threads
// never take a core from the service, and the scheduler's placement cannot
// differ from one service process to the next. With fewer CPUs nothing is
// pinned. The constructor pins the calling thread (and so every thread it
// starts later) to the client's CPU; the destructor restores the mask.
class Placement {
 public:
  Placement() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0 || CPU_COUNT(&all_) < 4) return;
    CPU_ZERO(&client_);
    service_ = all_;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) {
        CPU_SET(c, &client_);
        CPU_CLR(c, &service_);
        break;
      }
    active_ = sched_setaffinity(0, sizeof(client_), &client_) == 0;
  }
  ~Placement() {
    if (active_) sched_setaffinity(0, sizeof(all_), &all_);
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  // Runs `spawn` with the service's CPUs, which the child inherits.
  template <class F>
  void as_service(const F& spawn) const {
    if (active_) sched_setaffinity(0, sizeof(service_), &service_);
    spawn();
    if (active_) sched_setaffinity(0, sizeof(client_), &client_);
  }

 private:
  cpu_set_t all_, client_, service_;
  bool active_ = false;
};

// The service as a child process: stdin and stdout are pipes, stderr goes
// to a file (read after exit, so a chatty stderr can never block it).
class Service {
 public:
  Service(const Placement& placement, const std::string& exe,
          const std::vector<std::string>& env_overrides, const std::string& stderr_path) {
    int in_pipe[2], out_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe2 failed");
    // The service's configuration comes only from the environment given
    // here: inherited ISR_* settings are dropped.
    std::vector<std::string> env;
    for (char** e = environ; *e; ++e)
      if (std::strncmp(*e, "ISR_", 4) != 0) env.emplace_back(*e);
    env.insert(env.end(), env_overrides.begin(), env_overrides.end());
    std::vector<char*> envp;
    for (std::string& s : env) envp.push_back(&s[0]);
    envp.push_back(nullptr);
    std::string exe_copy = exe, serve = "--serve";
    char* argv[] = {&exe_copy[0], &serve[0], nullptr};

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int rc = 0;
    placement.as_service([&] {
      spawn_ns_ = now_ns();
      rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv, envp.data());
    });
    posix_spawn_file_actions_destroy(&actions);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    in_ = in_pipe[1];
    out_ = out_pipe[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error(std::string("cannot spawn ") + exe + ": " + std::strerror(rc));
    }
  }

  ~Service() {
    close_input();
    if (out_ >= 0) ::close(out_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  int in() const { return in_; }
  int out() const { return out_; }
  std::int64_t spawn_ns() const { return spawn_ns_; }

  void close_input() {
    if (in_ >= 0) ::close(in_);
    in_ = -1;
  }

  // The service's own peak RSS in MB (VmHWM), read while it is alive and
  // idle. wait4's ru_maxrss cannot be used: at exec the kernel folds the
  // spawning process's memory high-water mark into it, so it would report
  // the client's peak. 0 when unreadable.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    double kb = 0;
    while (status >> key) {
      if (key == "VmHWM:" && status >> kb) return kb / 1024.0;
      status.ignore(1 << 12, '\n');
    }
    return 0.0;
  }

  // Waits for the exit; returns true on a clean exit 0.
  bool wait() {
    int status = 0;
    pid_t r;
    do r = ::waitpid(pid_, &status, 0);
    while (r < 0 && errno == EINTR);
    pid_ = -1;
    return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1, out_ = -1;
  std::int64_t spawn_ns_ = 0;
};

// Sends the set-up request alone in its batch and reads its answer.
// Returns the spawn-to-answer time in seconds.
double run_setup(Service& svc, LineReader& reader, const Oracle& oracle, ResponseCheck& check) {
  write_all(svc.in(), setup_line() + "\n\n");
  std::string_view line;
  if (!reader.next(line)) {
    check.add_failures(1);
    return 0.0;
  }
  const double s = static_cast<double>(now_ns() - svc.spawn_ns()) / 1e9;
  check.expect(line, oracle.setup_expected);
  return s;
}

// Closes stdin, counts any unexpected trailing lines as failures, reaps
// the process, and returns the last stderr metrics line ("" if absent).
std::string finish(Service& svc, LineReader& reader, const std::string& stderr_path,
                   ResponseCheck& check) {
  svc.close_input();
  std::string_view line;
  while (reader.next(line)) check.add_failures(1);
  if (!svc.wait()) check.add_failures(1);
  std::ifstream err(stderr_path);
  std::string s, metrics;
  while (std::getline(err, s))
    if (s.rfind("{\"shards\":", 0) == 0) metrics = s;
  return metrics;
}

bool number_after(const std::string& json, const std::string& key, double& out,
                  std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  return end != begin;
}

// The raw counters of one EOF metrics line (the *(wire)* metrics' inputs).
bool parse_counters(const std::string& line, std::map<std::string, double>& raw) {
  const char* keys[] = {"queries",          "batches",        "kick_flushes",
                        "deadline_flushes", "cache_lookups",  "cache_hits",
                        "rebalanced_queries", "refits",       "epoch_invalidations"};
  for (const char* k : keys)
    if (!number_after(line, k, raw[k])) return false;
  const std::size_t qw = line.find("\"queue_wait_us\":{");
  return qw != std::string::npos && number_after(line, "p50", raw["queue_wait_p50"], qw) &&
         number_after(line, "p99", raw["queue_wait_p99"], qw);
}

// Service processes per run: set-up probes, each timing kProbeRefits live
// refits (epochs 1..3), and the segments sharing the timed region.
constexpr int kSetupProbes = 3;
constexpr int kProbeRefits = 3;
constexpr int kSegments = 3;
constexpr int kProcessStartReps = 10;

std::string env_threads() { return "ISR_THREADS=2"; }

// Reads `n` response lines of one cycle, checking each against `want(j)`.
// Returns false when the stream ended early.
template <class Want>
bool read_cycle(LineReader& reader, std::size_t n, const Want& want, ResponseCheck& check) {
  std::string_view line;
  for (std::size_t j = 0; j < n; ++j) {
    if (!reader.next(line)) {
      check.add_failures(n - j);
      return false;
    }
    check.expect(line, want(j));
  }
  return true;
}

// bulk_sweep: 1024-line batches from the cycled pool, pipelined. The
// writer runs ahead until the pipe is full; the reader drains and checks.
void run_bulk(Service& svc, LineReader& reader, const Oracle& oracle, double seconds,
              ResponseCheck& check, std::size_t& attempted, Segment& seg) {
  const std::size_t pool_batches = kBulkPool / kBulkBatch;
  std::vector<std::string> batches(pool_batches);
  for (std::size_t b = 0; b < pool_batches; ++b) {
    for (std::size_t j = 0; j < kBulkBatch; ++j) {
      batches[b] += oracle.requests.lines[b * kBulkBatch + j];
      batches[b] += '\n';
    }
    batches[b] += '\n';
  }
  const std::size_t max_batches = 1 << 16;
  std::unique_ptr<std::atomic<std::int64_t>[]> starts(new std::atomic<std::int64_t>[max_batches]);
  std::atomic<std::size_t> written{0}, answered{0};
  std::atomic<bool> reader_done{false};
  seg.start_ns = now_ns();
  const std::int64_t deadline = seg.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::thread writer([&] {
    std::size_t b = 0;
    do {
      starts[b].store(now_ns(), std::memory_order_release);
      if (!write_all(svc.in(), batches[b % pool_batches])) break;
      written.store(++b, std::memory_order_release);
    } while (now_ns() < deadline && b < max_batches);
    // Sample the service's peak RSS while it is still alive: once every
    // batch is answered (or the reader gave up), then end the input.
    while (answered.load(std::memory_order_acquire) < b && !reader_done.load())
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    seg.peak_rss_mb = svc.peak_rss_mb();
    svc.close_input();
  });
  std::size_t b = 0;
  for (;; ++b) {
    const std::size_t base = (b % pool_batches) * kBulkBatch;
    std::string_view line;
    if (!reader.next(line)) break;  // end of stream between batches
    check.expect(line, oracle.expected[base]);
    if (!read_cycle(reader, kBulkBatch - 1,
                    [&](std::size_t j) { return oracle.expected[base + 1 + j]; }, check)) {
      ++b;
      break;
    }
    Cycle c;
    c.end_ns = now_ns();
    c.rtt_us = static_cast<double>(c.end_ns - starts[b].load(std::memory_order_acquire)) / 1e3;
    c.responses = kBulkBatch;
    seg.cycles.push_back(c);
    answered.store(b + 1, std::memory_order_release);
  }
  reader_done.store(true);
  writer.join();
  if (b > written.load()) check.add_failures((b - written.load()) * kBulkBatch);
  if (written.load() > b) check.add_failures((written.load() - b) * kBulkBatch);
  attempted += written.load() * kBulkBatch;
}

// insitu_loop: one outstanding request; write one line plus a blank line,
// wait for the answer.
void run_insitu(Service& svc, LineReader& reader, const Oracle& oracle, HotDraw& draw,
                double seconds, ResponseCheck& check, std::size_t& attempted, Segment& seg) {
  std::vector<std::string> cycles(kHotSet);
  for (std::size_t i = 0; i < kHotSet; ++i)
    cycles[i] = std::string(oracle.requests.lines[i]) + "\n\n";
  seg.start_ns = now_ns();
  const std::int64_t deadline = seg.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t t = seg.start_ns; t < deadline;) {
    const std::size_t i = draw.next();
    ++attempted;
    const std::int64_t t0 = now_ns();
    if (!write_all(svc.in(), cycles[i])) {
      check.add_failures(1);
      break;
    }
    if (!read_cycle(reader, 1, [&](std::size_t) { return oracle.expected[i]; }, check)) break;
    Cycle c;
    c.end_ns = t = now_ns();
    c.rtt_us = static_cast<double>(c.end_ns - t0) / 1e3;
    c.responses = 1;
    seg.cycles.push_back(c);
  }
}

// Every response the recalibrate workload got, by epoch and hot-set index:
// the first answer seen and how many lines agreed with it.
struct EpochAnswers {
  struct Seen {
    std::string first;
    std::size_t agreeing = 0;
  };
  std::vector<std::vector<Seen>> by_epoch;  // [epoch - 1][hot index]
};

// recalibrate: closed-loop cycles of 32 hot-set requests. The service
// (ISR_RECAL_EVERY=1024) recalibrates once 1024 requests were served since
// the last refit, so the client knows which cycles trigger a refit and
// which epoch answered every cycle. Each line is checked against the first
// answer seen for its (epoch, configuration) here, and those first answers
// against the oracle's epoch tables after the run.
void run_recalibrate(Service& svc, LineReader& reader, const Oracle& oracle, HotDraw& draw,
                     double seconds, ResponseCheck& check, std::size_t& attempted,
                     EpochAnswers& answers, Segment& seg) {
  long served = 1;  // the set-up request
  std::size_t epoch = 1;
  std::size_t picks[kRecalCycle];
  std::string cycle;
  seg.start_ns = now_ns();
  const std::int64_t deadline = seg.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t t = seg.start_ns; t < deadline;) {
    cycle.clear();
    for (std::size_t& p : picks) {
      p = draw.next();
      cycle += oracle.requests.lines[p];
      cycle += '\n';
    }
    cycle += '\n';
    if (answers.by_epoch.size() < epoch) answers.by_epoch.emplace_back(kHotSet);
    std::vector<EpochAnswers::Seen>& seen = answers.by_epoch[epoch - 1];
    attempted += kRecalCycle;
    const std::int64_t t0 = now_ns();
    if (!write_all(svc.in(), cycle)) {
      check.add_failures(kRecalCycle);
      break;
    }
    std::string_view line;
    bool complete = true;
    for (std::size_t j = 0; j < kRecalCycle; ++j) {
      if (!reader.next(line)) {
        check.add_failures(kRecalCycle - j);
        complete = false;
        break;
      }
      EpochAnswers::Seen& s = seen[picks[j]];
      if (s.first.empty()) s.first = std::string(line);
      if (line == s.first) ++s.agreeing;
      else check.expect(line, s.first);
    }
    if (!complete) break;
    Cycle c;
    c.end_ns = t = now_ns();
    c.rtt_us = static_cast<double>(c.end_ns - t0) / 1e3;
    c.responses = kRecalCycle;
    served += static_cast<long>(kRecalCycle);
    if (served >= kRecalEvery) {
      served = 0;
      c.refit = true;
      ++epoch;
    }
    seg.cycles.push_back(c);
  }
}

// Checks the recalibrate workload's first answers against a cache-off
// cluster following the same recalibration schedule.
void check_epochs(const EpochAnswers& answers, const Oracle& oracle, ResponseCheck& check) {
  if (answers.by_epoch.empty()) return;
  const std::vector<LineTable> tables = expected_by_epoch(oracle.requests, answers.by_epoch.size());
  for (std::size_t i = 0; i < kHotSet; ++i)  // the cluster's epoch 1 is the service's
    check.expect(tables[0][i], oracle.expected[i]);
  for (std::size_t e = 0; e < answers.by_epoch.size(); ++e)
    for (std::size_t i = 0; i < kHotSet; ++i) {
      const EpochAnswers::Seen& s = answers.by_epoch[e][i];
      if (s.agreeing == 0 || s.first == tables[e][i]) continue;
      check.expect(s.first, tables[e][i]);
      check.add_failures(s.agreeing - 1);
    }
}

// Cycles per summary window: about a quarter second of bulk_sweep or
// insitu_loop, one refit period of recalibrate (so each window holds
// exactly one refit).
std::size_t window_cycles(Workload workload) {
  switch (workload) {
    case Workload::kBulkSweep: return 16;
    case Workload::kInsituLoop: return 8192;
    case Workload::kRecalibrate: return static_cast<std::size_t>(kRecalEvery) / kRecalCycle;
  }
  return 1;
}

}  // namespace

WireResult run_wire(const WireConfig& config, const Oracle& oracle) {
  WireResult result;
  ResponseCheck check;
  const Placement placement;
  const std::string probe_err = config.scratch_dir + "/probe.stderr";
  const std::string segment_err = config.scratch_dir + "/service.stderr";

  // Set-up probes: spawn and answer the set-up request; then, under
  // ISR_RECAL_EVERY=2, refit cycles that each wait for a live
  // recalibration before they are answered: one request (completing the
  // first two served), then two-request cycles. Cycle r is answered at
  // epoch r + 1, which the oracle's epoch tables of the set-up line give.
  RequestSet setup_set;
  setup_set.lines.add(setup_line());
  setup_set.kinds.push_back(LineKind::kValid);
  const std::vector<LineTable> setup_epochs = expected_by_epoch(setup_set, kProbeRefits);
  for (int p = 0; p < kSetupProbes; ++p) {
    Service svc(placement, config.advisor, {env_threads(), "ISR_RECAL_EVERY=2"}, probe_err);
    LineReader reader(svc.out());
    result.attempted += 1;
    result.setup_s.push_back(run_setup(svc, reader, oracle, check));
    for (int r = 0; r < kProbeRefits; ++r) {
      const std::size_t n = r == 0 ? 1 : 2;
      std::string cycle;
      for (std::size_t j = 0; j < n; ++j) cycle += setup_line() + "\n";
      cycle += "\n";
      result.attempted += n;
      const std::int64_t t0 = now_ns();
      write_all(svc.in(), cycle);
      const std::string_view want = setup_epochs[static_cast<std::size_t>(r)][0];
      if (!read_cycle(reader, n, [&](std::size_t) { return want; }, check)) break;
      result.probe_refit_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    std::map<std::string, double> raw;
    if (!parse_counters(finish(svc, reader, probe_err, check), raw) ||
        raw["refits"] != kProbeRefits)
      check.add_failures(1);
  }

  // The timed region, segment by segment.
  HotDraw draw(config.seed);
  EpochAnswers answers;
  std::map<std::string, double> totals;
  std::vector<double> queue_p50, queue_p99;
  for (int k = 0; k < kSegments; ++k) {
    const double seconds = config.seconds / kSegments;
    std::vector<std::string> env{env_threads()};
    if (config.workload == Workload::kRecalibrate)
      env.push_back("ISR_RECAL_EVERY=" + std::to_string(kRecalEvery));
    Service svc(placement, config.advisor, env, segment_err);
    LineReader reader(svc.out());
    result.attempted += 1;
    result.setup_s.push_back(run_setup(svc, reader, oracle, check));
    Segment seg;
    switch (config.workload) {
      case Workload::kBulkSweep:
        run_bulk(svc, reader, oracle, seconds, check, result.attempted, seg);
        break;
      case Workload::kInsituLoop:
        run_insitu(svc, reader, oracle, draw, seconds, check, result.attempted, seg);
        break;
      case Workload::kRecalibrate:
        run_recalibrate(svc, reader, oracle, draw, seconds, check, result.attempted, answers,
                        seg);
        break;
    }
    if (config.workload != Workload::kBulkSweep) seg.peak_rss_mb = svc.peak_rss_mb();
    std::map<std::string, double> raw;
    if (!parse_counters(finish(svc, reader, segment_err, check), raw)) {
      check.add_failures(1);
      if (result.first_failure.empty()) result.first_failure = "no parsable metrics line";
    } else {
      std::size_t refits = 0;
      for (const Cycle& c : seg.cycles) refits += c.refit ? 1 : 0;
      if (raw["refits"] != static_cast<double>(refits)) {
        check.add_failures(1);
        if (result.first_failure.empty())
          result.first_failure = "service refits differ from the client's schedule";
      }
      for (const auto& kv : raw) totals[kv.first] += kv.second;
      queue_p50.push_back(raw["queue_wait_p50"]);
      queue_p99.push_back(raw["queue_wait_p99"]);
    }
    result.segments.push_back(std::move(seg));
  }
  check_epochs(answers, oracle, check);

  const auto share = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const std::size_t n = queue_p50.size();
  Metrics& c = result.counters;
  c["cluster.cache_hit_share"] = {share(totals["cache_hits"], totals["cache_lookups"]), "ratio", n};
  c["cluster.batches_per_req"] = {share(totals["batches"], totals["queries"]), "ratio", n};
  c["cluster.kick_flush_share"] = {share(totals["kick_flushes"], totals["batches"]), "ratio", n};
  c["cluster.deadline_flush_share"] = {share(totals["deadline_flushes"], totals["batches"]),
                                       "ratio", n};
  c["cluster.queue_wait_us_p50"] = {median(queue_p50), "us", n};
  c["cluster.queue_wait_us_p99"] = {median(queue_p99), "us", n};
  c["cluster.rebalanced_share"] = {share(totals["rebalanced_queries"], totals["queries"]),
                                   "ratio", n};
  c["cluster.epoch_invalidations_per_refit"] = {
      share(totals["epoch_invalidations"], totals["refits"]), "count", n};

  std::vector<double> process_start_ms;
  for (int r = 0; config.time_process_start && r < kProcessStartReps; ++r) {
    Service svc(placement, config.advisor, {env_threads()}, probe_err);
    LineReader reader(svc.out());
    svc.close_input();
    std::string_view line;
    while (reader.next(line)) check.add_failures(1);
    if (!svc.wait()) check.add_failures(1);
    process_start_ms.push_back(static_cast<double>(now_ns() - svc.spawn_ns()) / 1e6);
  }
  if (config.time_process_start)
    c["io.process_start_ms"] = {median(process_start_ms), "ms", process_start_ms.size()};

  result.failed = check.failed();
  if (!check.first_mismatch().empty()) result.first_failure = check.first_mismatch();
  return result;
}

Summary summarize(const WireResult& wire, Workload workload) {
  const std::size_t per_window = window_cycles(workload);
  std::vector<double> rates, window_p99, rtts, refits, rss;
  std::size_t responses = 0;
  std::int64_t timed_ns = 0;
  for (const Segment& seg : wire.segments) {
    rss.push_back(seg.peak_rss_mb);
    std::int64_t prev_end = seg.start_ns;
    for (std::size_t w = 0; w + per_window <= seg.cycles.size(); w += per_window) {
      std::size_t window_responses = 0;
      std::vector<double> window_rtts;
      for (std::size_t i = w; i < w + per_window; ++i) {
        window_responses += seg.cycles[i].responses;
        if (!seg.cycles[i].refit) window_rtts.push_back(seg.cycles[i].rtt_us);
      }
      const std::int64_t end = seg.cycles[w + per_window - 1].end_ns;
      if (end > prev_end)
        rates.push_back(static_cast<double>(window_responses) * 1e9 /
                        static_cast<double>(end - prev_end));
      window_p99.push_back(percentile(window_rtts, 99));
      prev_end = end;
    }
    for (const Cycle& c : seg.cycles) {
      responses += c.responses;
      if (c.refit) refits.push_back(c.rtt_us / 1e3);
      else rtts.push_back(c.rtt_us);
    }
    if (!seg.cycles.empty()) timed_ns += seg.cycles.back().end_ns - seg.start_ns;
  }
  // A run too short for one whole window falls back to its overall rate.
  if (rates.empty() && timed_ns > 0)
    rates.push_back(static_cast<double>(responses) * 1e9 / static_cast<double>(timed_ns));
  if (window_p99.empty()) window_p99.push_back(percentile(rtts, 99));
  const std::vector<double>& refit =
      workload == Workload::kRecalibrate ? refits : wire.probe_refit_ms;

  Summary s;
  s.responses = responses;
  Metrics& m = s.metrics;
  m["setup_s"] = {median(wire.setup_s), "s", wire.setup_s.size()};
  m["qps"] = {median(rates), "req/s", rates.size()};
  m["rtt_us_p50"] = {median(rtts), "us", rtts.size()};
  s.rtt_us_p99 = {median(window_p99), "us", window_p99.size()};
  m["refit_ms_p50"] = {median(refit), "ms", refit.size()};
  m["peak_rss_mb"] = {median(rss), "MB", rss.size()};
  switch (workload) {
    case Workload::kBulkSweep: s.us_per_request = 1e6 / m["qps"].value; break;
    case Workload::kInsituLoop: s.us_per_request = m["rtt_us_p50"].value; break;
    case Workload::kRecalibrate: s.us_per_request = m["rtt_us_p50"].value / kRecalCycle; break;
  }
  return s;
}

}  // namespace wirebench
