// The three workloads' request streams and their byte-exact oracle. Every
// request line is a pure function of the workload seed; every expected
// response line is built in-process from the same lines, without going
// through the service binary under test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "math/rng.hpp"

namespace wirebench {

enum class Workload { kBulkSweep, kInsituLoop, kRecalibrate };

bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload workload);

constexpr std::size_t kBulkBatch = 1024;   // lines per bulk_sweep batch
constexpr std::size_t kBulkPool = 65536;   // distinct bulk lines, sent in a cycle
constexpr std::size_t kHotSet = 64;        // insitu_loop / recalibrate configurations
constexpr std::size_t kRecalCycle = 32;    // requests per recalibrate cycle
constexpr long kRecalEvery = 1024;         // ISR_RECAL_EVERY for recalibrate

// Lines packed into one buffer (no newlines stored).
class LineTable {
 public:
  void add(std::string_view line);
  std::size_t size() const { return start_.size() - 1; }
  std::string_view operator[](std::size_t i) const {
    return std::string_view(bytes_.data() + start_[i], start_[i + 1] - start_[i]);
  }

 private:
  std::string bytes_;
  std::vector<std::size_t> start_{0};
};

enum class LineKind : unsigned char { kValid, kMalformed, kUnknownCorpus };

struct RequestSet {
  LineTable lines;
  std::vector<LineKind> kinds;
};

// The request each service process answers first, alone in its batch. Its
// response marks the end of set-up (the lazy default-corpus calibration).
std::string setup_line();

// Seeded random requests over arch x renderer x n_per_task x tasks x
// image_edge x budget x frames: kBulkPool lines, about 0.5% malformed and
// 0.5% naming a corpus the service does not hold.
RequestSet bulk_pool(std::uint64_t seed);

// kHotSet distinct valid configurations.
RequestSet hot_set(std::uint64_t seed);

// Seeded uniform draws of hot-set indices for the closed-loop workloads.
class HotDraw {
 public:
  explicit HotDraw(std::uint64_t seed);
  std::size_t next() { return static_cast<std::size_t>(rng_.next_u64() % kHotSet); }

 private:
  isr::Rng rng_;
};

// Expected response line for every line of `set`: valid lines through
// AdvisorService::serve_batch + to_jsonl, malformed lines through
// parse_request_line's error path, unknown-corpus lines as the cluster's
// documented in-slot error. The service's default calibration answers.
LineTable expected_responses(const RequestSet& set);

// Expected hot-set responses for epochs 1..epochs (index 0 = epoch 1), from
// a cache-off ServingCluster that follows the service's recalibration
// schedule: serve at epoch e, then recalibrate + wait_refits.
std::vector<LineTable> expected_by_epoch(const RequestSet& hot, std::size_t epochs);

// Byte comparison of received against expected lines, counting every
// mismatch. The one comparison every workload's reader uses.
class ResponseCheck {
 public:
  void expect(std::string_view got, std::string_view want);
  void add_failures(std::size_t n) { failed_ += n; }
  std::size_t failed() const { return failed_; }
  // The first mismatch seen, for diagnostics ("" when none).
  const std::string& first_mismatch() const { return first_; }

 private:
  std::size_t failed_ = 0;
  std::string first_;
};

// Oracle self-check: a ResponseCheck must report exactly one failure when
// one expected line of `expected` is corrupted by one byte, and none for
// the intact table. Returns false when either does not hold.
bool oracle_self_check(const LineTable& expected);

}  // namespace wirebench
