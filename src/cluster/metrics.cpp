#include "cluster/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/advisor.hpp"

namespace isr::cluster {

namespace {

// Nearest rank over an already-sorted sample vector (1-based rank,
// ceil(p/100 * n)); the shared kernel of percentile()/percentiles().
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank > 0 ? rank - 1 : 0];
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, p);
}

std::vector<double> percentiles(std::vector<double>& samples,
                                const std::vector<double>& ps) {
  std::vector<double> out(ps.size(), 0.0);
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  for (std::size_t i = 0; i < ps.size(); ++i)
    out[i] = sorted_percentile(samples, ps[i]);
  return out;
}

std::string ClusterMetrics::to_jsonl() const {
  std::string shard_list = "[";
  for (std::size_t s = 0; s < shard_queries.size(); ++s) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%s%ld", s == 0 ? "" : ",", shard_queries[s]);
    shard_list += buf;
  }
  shard_list += "]";

  // Per-corpus counts as one nested object, keys in cluster-config order
  // (the default corpus first, as "default") — stable bytes, like every
  // other line this repo emits.
  std::string corpus_map = "{";
  for (std::size_t c = 0; c < corpus_queries.size(); ++c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\":%ld", corpus_queries[c].second);
    corpus_map += c == 0 ? "\"" : ",\"";
    corpus_map += serve::json_escape(corpus_queries[c].first.empty()
                                         ? "default"
                                         : corpus_queries[c].first);
    corpus_map += buf;
  }
  corpus_map += "}";

  // Per-corpus bundle epochs, same nested-object shape and key order as
  // corpus_queries (0 marks a corpus configured but not yet resident).
  std::string epoch_map = "{";
  for (std::size_t c = 0; c < bundle_epoch.size(); ++c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\":%llu",
                  static_cast<unsigned long long>(bundle_epoch[c].second));
    epoch_map += c == 0 ? "\"" : ",\"";
    epoch_map += serve::json_escape(bundle_epoch[c].first.empty()
                                        ? "default"
                                        : bundle_epoch[c].first);
    epoch_map += buf;
  }
  epoch_map += "}";

  // Per-worker health as a JSON string array, worker order.
  std::string health_list = "[";
  for (std::size_t s = 0; s < shard_health.size(); ++s) {
    health_list += s == 0 ? "\"" : ",\"";
    health_list += serve::json_escape(shard_health[s]);
    health_list += "\"";
  }
  health_list += "]";

  // "rebalanced_queries" is a fixed 0: the cluster does not route by key,
  // so nothing is rebalanced; the field stays because existing parsers of
  // the line read it.
  const char* fmt =
      "{\"shards\":%d,\"queries\":%ld,\"shard_queries\":%s,"
      "\"corpus_queries\":%s,\"unknown_corpus_queries\":%ld,"
      "\"bundle_epoch\":%s,\"refits\":%ld,\"lazy_fits\":%ld,\"lazy_fit_ms\":%.3f,"
      "\"epoch_invalidations\":%ld,"
      "\"streams\":%ld,\"shed_queries\":%ld,"
      "\"rebalanced_queries\":0,"
      "\"cache_lookups\":%ld,\"cache_hits\":%ld,\"cache_hit_rate\":%.6f,"
      "\"worker_restarts\":%ld,\"failovers\":%ld,\"retries\":%ld,"
      "\"timeouts\":%ld,\"degraded_queries\":%ld,\"eval_exceptions\":%ld,"
      "\"faults_injected\":%ld,\"shard_health\":%s,"
      "\"batches\":%ld,\"size_flushes\":%ld,\"deadline_flushes\":%ld,"
      "\"kick_flushes\":%ld,\"close_flushes\":%ld,\"max_queue_depth\":%zu,"
      "\"queue_wait_us\":%s,\"service_us\":%s,\"e2e_us\":%s}";
  const std::string queue_wait_json = queue_wait.to_json();
  const std::string service_json = service.to_json();
  const std::string e2e_json = e2e.to_json();
  // Two passes of one formatter: size, then fill an exactly-sized string.
  const auto format = [&](char* out, std::size_t size) {
    return std::snprintf(
        out, size, fmt, shards, queries, shard_list.c_str(), corpus_map.c_str(),
        unknown_corpus_queries, epoch_map.c_str(), refits, lazy_fits, lazy_fit_ms,
        epoch_invalidations, streams, shed_queries, cache_lookups, cache_hits,
        cache_hit_rate, worker_restarts, failovers, retries, timeouts, degraded_queries,
        eval_exceptions, faults_injected, health_list.c_str(), batches, size_flushes,
        deadline_flushes, kick_flushes, close_flushes, max_queue_depth,
        queue_wait_json.c_str(), service_json.c_str(), e2e_json.c_str());
  };
  std::string line(static_cast<std::size_t>(std::max(format(nullptr, 0), 0)), '\0');
  format(&line[0], line.size() + 1);
  return line;
}

}  // namespace isr::cluster
