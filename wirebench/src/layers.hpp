// The traced in-process run: the same generated lines, handed to the
// repository's public functions (serve, cluster, model, render, comm)
// directly, each call under a span recorded from the benchmark. It yields
// the per-layer metrics; the end-to-end metrics always come from the
// untraced wire run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "wire.hpp"
#include "workload.hpp"

namespace wirebench {

struct LayerConfig {
  Workload workload = Workload::kBulkSweep;
  std::uint64_t seed = 1;
  std::string trace_path;  // Chrome trace_event JSON of every span
  // Wire cost per request from the untraced wire run, refits excluded:
  // timed region over responses for the pipelined bulk_sweep, median cycle
  // round trip over cycle size for the closed loops. For io.pipe_us.
  double wire_us_per_request = 0.0;
};

struct LayerResult {
  Metrics metrics;
  std::size_t attempted = 0;  // in-process responses checked against the oracle
  std::size_t failed = 0;
  std::size_t spans = 0;
};

LayerResult run_layers(const LayerConfig& config, const Oracle& oracle);

}  // namespace wirebench
