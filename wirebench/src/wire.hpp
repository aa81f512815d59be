// The wire path: drives `example_feasibility_advisor --serve` as a child
// process over pipes, from one client with at most two threads (a writer
// and a reader), and checks every response byte against the oracle.
//
// One run spawns the service several times: set-up probes (set-up time and
// the first live refit), then the workload's timed region split over a few
// segments, each its own service process, so that per-process quantities
// (set-up time, peak RSS) are medians and one noisy process cannot decide
// a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace wirebench {

// One reported metric: its value, unit and number of samples.
struct Metric {
  double value = 0.0;
  const char* unit = "";
  std::size_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

struct WireConfig {
  std::string advisor;      // path of the service binary
  std::string scratch_dir;  // where the services' stderr is captured
  Workload workload = Workload::kBulkSweep;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // the timed region, over all segments
  bool time_process_start = false;  // also time spawn-to-exit on empty stdin
};

// What the client sends and what it must get back.
struct Oracle {
  RequestSet requests;  // bulk_sweep: the cycled pool; otherwise the hot set
  LineTable expected;   // epoch-1 response for each request
  std::string setup_expected;
};

// One round trip of the client: a bulk batch or a closed-loop cycle.
struct Cycle {
  std::int64_t end_ns = 0;  // its last response line read
  double rtt_us = 0.0;      // first byte written -> last response line read
  std::uint32_t responses = 0;
  bool refit = false;       // the service recalibrated before answering
};

struct Segment {
  std::int64_t start_ns = 0;  // first timed request written
  std::vector<Cycle> cycles;
  double peak_rss_mb = 0.0;   // the service's VmHWM after its last answer
};

struct WireResult {
  std::vector<double> setup_s;         // spawn -> first response line, per spawn
  std::vector<double> probe_refit_ms;  // the probes' refit-cycle round trips
  std::vector<double> process_start_ms;
  std::vector<Segment> segments;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;
  // The *(wire)* per-layer metrics from the segments' EOF stderr metrics
  // lines: counts summed over segments, queue-wait percentiles the median
  // over segments. With time_process_start, also io.process_start_ms.
  Metrics counters;
};

WireResult run_wire(const WireConfig& config, const Oracle& oracle);

// The end-to-end metrics of one run.
struct Summary {
  Metrics metrics;
  // Reported in the run record but not a declared metric: on a shared host
  // its run-to-run spread exceeds any bound worth gating on.
  Metric rtt_us_p99;
  std::size_t responses = 0;  // timed responses, all segments
  // Wire cost per request, refits excluded: for io.pipe_us.
  double us_per_request = 0.0;
};

Summary summarize(const WireResult& wire, Workload workload);

}  // namespace wirebench
