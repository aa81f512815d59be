// wirebench: one run of one workload against the advisor service.
//
//   wirebench --workload bulk_sweep|insitu_loop|recalibrate --seed N
//             --seconds S --trace 0|1 --advisor PATH [--out DIR] [--commit ID]
//
// Both modes run the untraced wire workload. --trace 0 prints its end-to-end
// metrics; --trace 1 adds the traced in-process run and prints the per-layer
// metrics, the wire counters among them. Human-readable lines first; the last line
// of stdout is one JSON object {"correct","attempted","failed","metrics"}.
// Exits 1 when any response byte deviates from the oracle.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "layers.hpp"
#include "wire.hpp"
#include "workload.hpp"

using namespace wirebench;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: wirebench --workload bulk_sweep|insitu_loop|recalibrate --seed N "
               "--seconds S --trace 0|1 --advisor PATH [--out DIR] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::string workload_arg, advisor, out_dir = ".", commit = "unknown";
  long seed = -1, trace = -1;
  double seconds = 0;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a], value = argv[a + 1];
    char* end = nullptr;
    if (flag == "--workload") workload_arg = value;
    else if (flag == "--advisor") advisor = value;
    else if (flag == "--out") out_dir = value;
    else if (flag == "--commit") commit = value;
    else if (flag == "--seed") seed = std::strtol(value.c_str(), &end, 10);
    else if (flag == "--trace") trace = std::strtol(value.c_str(), &end, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), &end);
    else return usage();
    if (end && *end) return usage();
  }
  Workload workload;
  if (argc % 2 == 0 || !parse_workload(workload_arg, workload) || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1) || advisor.empty())
    return usage();

  // The oracle, built before any service starts.
  Oracle oracle;
  oracle.requests = workload == Workload::kBulkSweep ? bulk_pool(static_cast<std::uint64_t>(seed))
                                                     : hot_set(static_cast<std::uint64_t>(seed));
  oracle.expected = expected_responses(oracle.requests);
  {
    RequestSet setup;
    setup.lines.add(setup_line());
    setup.kinds.push_back(LineKind::kValid);
    oracle.setup_expected = std::string(expected_responses(setup)[0]);
  }
  const bool self_check = oracle_self_check(oracle.expected);

  WireConfig wire_config;
  wire_config.advisor = advisor;
  wire_config.scratch_dir = out_dir;
  wire_config.workload = workload;
  wire_config.seed = static_cast<std::uint64_t>(seed);
  wire_config.seconds = seconds;
  wire_config.time_process_start = trace == 1;
  const WireResult wire = run_wire(wire_config, oracle);

  const Summary sum = summarize(wire, workload);
  std::size_t attempted = wire.attempted;
  std::size_t failed = wire.failed + (self_check ? 0 : 1);
  Metrics metrics = sum.metrics;
  if (trace == 1) {
    setenv("ISR_THREADS", "2", 1);  // the in-process layers run as the service does
    LayerConfig layer_config;
    layer_config.workload = workload;
    layer_config.seed = static_cast<std::uint64_t>(seed);
    layer_config.trace_path =
        out_dir + "/trace-" + workload_arg + "-" + std::to_string(seed) + ".json";
    layer_config.wire_us_per_request = sum.us_per_request;
    const LayerResult layers = run_layers(layer_config, oracle);
    attempted += layers.attempted;
    failed += layers.failed;
    metrics = layers.metrics;
    metrics.insert(wire.counters.begin(), wire.counters.end());
    std::printf("wirebench trace: %zu spans -> %s\n", layers.spans,
                layer_config.trace_path.c_str());
  }
  const bool correct = failed == 0;

  // The run record: seed, host/build fingerprint, counts, wire counters.
  std::string record = "{\"workload\":" + json_string(workload_arg) +
                       ",\"seed\":" + std::to_string(seed) +
                       ",\"seconds\":" + std::to_string(seconds) +
                       ",\"trace\":" + std::to_string(trace) +
                       ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ",\"cpu\":" + json_string(cpu_model()) +
                       ",\"compiler\":" + json_string(WIREBENCH_COMPILER) +
                       ",\"build_type\":" + json_string(WIREBENCH_BUILD_TYPE) +
                       ",\"commit\":" + json_string(commit) +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) + ",\"failed_share\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", attempted ? static_cast<double>(failed) / attempted : 0.0);
  record += buf;
  record += ",\"oracle_self_check\":" + json_string(self_check ? "caught the corrupted line"
                                                               : "FAILED");
  std::snprintf(buf, sizeof(buf), "%.9g", sum.rtt_us_p99.value);
  record += ",\"rtt_us_p99\":" + std::string(buf) +
            ",\"rtt_us_p99_windows\":" + std::to_string(sum.rtt_us_p99.samples);
  record += ",\"timed_responses\":" + std::to_string(sum.responses) +
            ",\"segments\":" + std::to_string(wire.segments.size()) + ",\"wire_counters\":{";
  bool first = true;
  for (const auto& kv : wire.counters) {
    std::snprintf(buf, sizeof(buf), "%.9g", kv.second.value);
    record += (first ? "" : ",") + json_string(kv.first) + ":" + buf;
    first = false;
  }
  record += "}}";
  std::printf("wirebench record: %s\n", record.c_str());
  if (!wire.first_failure.empty())
    std::printf("wirebench first failure: %s\n", wire.first_failure.c_str());
  for (const auto& kv : metrics)
    std::printf("wirebench metric %-40s %16.6f %-6s (n=%zu)\n", kv.first.c_str(),
                kv.second.value, kv.second.unit, kv.second.samples);
  if (trace == 0)
    std::printf("wirebench metric %-40s %16.6f %-6s (n=%zu windows; reported, not gated)\n",
                "rtt_us_p99", sum.rtt_us_p99.value, sum.rtt_us_p99.unit,
                sum.rtt_us_p99.samples);

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (const auto& kv : metrics) {
    std::snprintf(buf, sizeof(buf), "%.12g", kv.second.value);
    line += (line.back() == '{' ? "" : ", ") + json_string(kv.first) + ": {\"value\": " + buf +
            ", \"unit\": " + json_string(kv.second.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
