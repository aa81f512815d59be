// Operational metrics for the serving cluster, exported as one JSON line
// (fixed field order, printf-formatted numbers — the same stable-bytes
// discipline as the response wire format). Metrics are observability, not
// part of the determinism contract: latencies are wall-clock measurements
// and vary run to run; everything else (queries, shard counts, hit rates)
// is deterministic for a deterministic workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace isr::cluster {

// Nearest-rank percentile of `samples` (copied and sorted internally);
// p in [0, 100], p <= 0 -> min, p >= 100 -> max. Returns 0 for an empty
// sample set.
double percentile(std::vector<double> samples, double p);

// "shards" counts the workers draining the cluster's one queue; the
// per-shard fields below are per worker.
struct ClusterMetrics {
  int shards = 0;
  long queries = 0;                 // total requests answered (hits included)
  std::vector<long> shard_queries;  // evaluated per worker (cache misses)

  // Per-resident-corpus request counts (hits and error slots included), in
  // cluster-config order; the default corpus reports as "default". Requests
  // naming a corpus that is not resident are counted separately — they get
  // in-slot error responses and never reach a shard.
  std::vector<std::pair<std::string, long>> corpus_queries;
  long unknown_corpus_queries = 0;

  // Live recalibration: the current bundle epoch per configured corpus
  // (cluster-config order; 0 = not yet resident under lazy fitting, 1 =
  // initial fit, +1 per refit), refits completed, corpora fitted lazily on
  // first query, the wall time of every first-touch fit attempt
  // (milliseconds; failed fits included — they stall admission the same;
  // a request's latency never includes it), and response-cache entries
  // evicted by epoch-scoped invalidation sweeps after refit swaps.
  std::vector<std::pair<std::string, std::uint64_t>> bundle_epoch;
  long refits = 0;
  long lazy_fits = 0;
  double lazy_fit_ms = 0.0;
  long epoch_invalidations = 0;

  // Streaming admission: sessions ever opened (serve_batch counts one per
  // call — it is a session under the hood), and requests refused at
  // admission because their estimated completion would miss the deadline.
  long streams = 0;
  long shed_queries = 0;

  // Counted at admission: live runs count their cache probes, replays
  // their recorded hits.
  long cache_lookups = 0;
  long cache_hits = 0;
  double cache_hit_rate = 0.0;  // hits / lookups; 0 when the cache is off

  // Fault tolerance: crashed workers restarted by the watchdog, failed
  // requests put back onto the queue, re-drives after transient failures,
  // re-drives abandoned because the request deadline had passed, and
  // explicit degraded responses delivered ("degraded":true on the wire —
  // retry budget spent, timeout, failed corpus fit, or shutdown race).
  // eval_exceptions counts evaluations that threw and were answered with
  // an in-slot error; faults_injected is the injector's firing total (0
  // whenever ISR_FAULT_SEED is unset). shard_health snapshots each worker's
  // state, "healthy" / "degraded" / "down", in worker order.
  long worker_restarts = 0;
  long failovers = 0;
  long retries = 0;
  long timeouts = 0;
  long degraded_queries = 0;
  long eval_exceptions = 0;
  long faults_injected = 0;
  std::vector<std::string> shard_health;

  long batches = 0;  // coalesced batches drained across all workers
  long size_flushes = 0;      // batch reached the configured batch size
  long deadline_flushes = 0;  // coalescing deadline fired first
  long kick_flushes = 0;      // a closing stream flushed a partial batch
  long close_flushes = 0;     // queue shutdown drained a partial batch
  std::size_t max_queue_depth = 0;  // deepest the queue ever was

  // Per-stage latency histograms (microseconds, log2 buckets, bounded
  // memory — see obs/histogram.hpp), cumulative since cluster start:
  //   queue_wait  enqueue -> popped into a batch by a worker
  //   service     one request's evaluation inside the drained batch
  //   e2e         enqueue -> response slot written (cache hits and shed
  //               requests never enter the queue and are not counted)
  obs::LatencyHistogram queue_wait;
  obs::LatencyHistogram service;
  obs::LatencyHistogram e2e;

  // One JSON object, no trailing newline. Schema in docs/ARCHITECTURE.md.
  std::string to_jsonl() const;
};

}  // namespace isr::cluster
