// One serving worker ("shard" in the metrics and on the CLI, --shards N):
// a dedicated SUPERVISED thread that pulls coalesced batches from the
// cluster's one shared core::OrderedBatchQueue. A Shard owns no queue and
// no model state: every StreamItem carries a shared_ptr pin of the bundle
// it was admitted under plus its corpus's mapping constants, so any worker
// can evaluate any item — which worker pulled it, a re-drive after a
// failure, even a mid-flight recalibration swap can never change the
// bytes a request answers. Batches flush on batch size, on the coalescing
// deadline, on a kick (a closing stream flushing its in-flight tail), or
// on shutdown, in strict-priority/EDF order across the whole cluster, and
// evaluate through serve::answer_batch grouped by pinned (bundle,
// constants) pair. An evaluation that throws becomes an in-slot error
// response (never a dead thread), an injected transient failure hands the
// item to the cluster's failure handler for a re-drive, and a (simulated)
// worker crash parks the undelivered batch in an in-flight ledger the
// heartbeat watchdog re-drives after restart() — which is what makes
// StreamSession::close() un-hangable: every admitted item is always
// delivered by SOMEONE. A dead or stalled worker simply stops pulling; the
// others keep draining the queue.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/batch_queue.hpp"
#include "core/fault.hpp"
#include "cluster/stream.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace isr::cluster {

class ResponseCache;

// Per-worker health as the watchdog reports it:
//   healthy  — worker alive, heartbeat advancing, no recent failures.
//   degraded — alive but suspect: freshly restarted, stalled mid-drain,
//              or a recent transient failure.
//   down     — worker crashed and not yet restarted (it pulls nothing).
enum class ShardHealth : int { kHealthy = 0, kDegraded = 1, kDown = 2 };
const char* shard_health_name(ShardHealth health);

// The queue every admitter pushes into and every worker pulls from.
using WorkQueue = core::OrderedBatchQueue<StreamItem, StreamBefore>;

// Items the worker could not answer in place (injected transient
// failures): the cluster's handler re-drives them onto the shared queue,
// or degrades them once the retry budget is spent. `from_shard` is the
// worker that failed them.
using FailureHandler = std::function<void(std::vector<StreamItem>&&, int from_shard)>;

// The live shed estimator's two measured inputs, shared by every worker:
// EWMAs of per-request evaluation cost and of enqueue->pop queue wait, in
// microseconds. Relaxed atomics — a lost update skews an estimate, never a
// response.
struct LoadEstimates {
  explicit LoadEstimates(double initial_service_us) : service_us(initial_service_us) {}
  std::atomic<double> service_us;
  std::atomic<double> queue_wait_us{0.0};
};

// Per-worker counters, merged into ClusterMetrics by the cluster.
struct ShardStats {
  long queries = 0;  // requests this worker evaluated AND delivered
  long batches = 0;
  long size_flushes = 0;
  long deadline_flushes = 0;
  long kick_flushes = 0;  // partial batches flushed by a closing stream
  long close_flushes = 0;
  long eval_exceptions = 0;  // evaluations that threw (answered in-slot)
};

class Shard {
 public:
  // `queue` and `estimates` are the cluster's and outlive the worker.
  Shard(int index, WorkQueue& queue, std::size_t batch_size,
        std::chrono::nanoseconds batch_deadline, LoadEstimates& estimates);
  // Joins the worker if the owner forgot join(); the owner closes the
  // queue first, so the worker is already on its way out.
  ~Shard();

  // Starts the dedicated worker thread. `faults` (nullable) injects the
  // deterministic chaos schedule; `on_failed` (nullable) receives items
  // that failed transiently; `trace` (nullable) records lifecycle spans —
  // the worker emits queue/eval/deliver events only when the recorder is
  // live-clocked (under --replay the cluster emits the whole virtual chain
  // at admission instead). Call once.
  void start(ResponseCache* cache, core::FaultInjector* faults, FailureHandler on_failed,
             obs::TraceRecorder* trace = nullptr);
  // Joins the worker — including a crashed one the watchdog never got to.
  // Call after closing the queue.
  void join();

  // The pure per-item evaluation (serve::answer_request against the item's
  // pinned bundle and constants), exceptions converted to in-slot error
  // responses. Public so the cluster's re-drive path can evaluate inline
  // when the shared queue is full — the response is a pure function of
  // (request, pinned bundle), so WHO evaluates never changes the bytes.
  serve::AdvisorResponse evaluate(const StreamItem& item);

  // --- Supervision surface (the cluster's heartbeat watchdog) -----------
  // Monotone liveness counter, bumped once per worker loop iteration; a
  // stale heartbeat with work pending means the worker is stalled.
  std::uint64_t heartbeat() const { return heartbeat_.load(std::memory_order_relaxed); }
  // True when the worker thread died mid-batch (injected crash). The
  // watchdog must take_inflight() and restart().
  bool worker_down() const { return crashed_.load(std::memory_order_acquire); }
  // The undelivered batch a crashed worker held. Empty once re-driven.
  std::vector<StreamItem> take_inflight();
  // True while a popped batch awaits delivery. Paired with a stale
  // heartbeat it distinguishes "stalled mid-batch" from "idle at an empty
  // queue" (an idle worker blocks in pop and legitimately stops beating).
  bool has_inflight() const;
  // Joins the dead thread and spawns a fresh worker over the same queue.
  // Only meaningful after worker_down(); counts are the caller's job.
  void restart();

  // Metrics accessors (safe during live streams: stats under a mutex).
  ShardStats stats() const;
  // Adds this worker's cumulative stage histograms (bounded memory, never
  // drained) into the cluster-wide roll-ups.
  void merge_stage_histograms(obs::LatencyHistogram& queue_wait,
                              obs::LatencyHistogram& service,
                              obs::LatencyHistogram& e2e) const;

 private:
  // Why one drain iteration ended: keep going, queue closed-and-empty
  // (normal worker exit), or an injected crash (the thread dies and the
  // watchdog takes over).
  enum class DrainStatus { kContinue, kStop, kCrashed };

  void worker_loop();
  DrainStatus drain_one_batch(std::vector<StreamItem>& failed);
  // Chaos/tracing lane: the historical per-item drain — fault sites,
  // in-flight ledger parking, per-item clock reads, and per-item trace
  // spans. Taken only when a fault injector is armed or a live-clock
  // tracer wants per-item spans.
  DrainStatus drain_chaos_batch(std::vector<StreamItem>& batch, core::BatchFlush flush,
                                std::chrono::steady_clock::time_point pop_now,
                                bool tracing, std::vector<StreamItem>& failed);
  // Fast-lane evaluation: groups the popped batch by its pinned
  // (bundle, constants) pair and evaluates each group through one
  // serve::answer_batch call against the per-shard arena scratch. An
  // evaluation that throws falls back to the per-item evaluate() for that
  // group, preserving the in-slot error contract.
  void evaluate_batch(std::vector<StreamItem>& batch,
                      std::vector<serve::AdvisorResponse>& responses);

  // Folds one batch's measured per-item mean into an estimate.
  static void update_ewma(std::atomic<double>& estimate, double measured_us);

  int index_;
  std::size_t batch_size_;
  std::chrono::nanoseconds batch_deadline_;
  WorkQueue& queue_;
  LoadEstimates& estimates_;

  // Wiring fixed by start() before the worker exists; restart() reuses it.
  ResponseCache* cache_ = nullptr;
  core::FaultInjector* faults_ = nullptr;
  FailureHandler on_failed_;
  obs::TraceRecorder* trace_ = nullptr;
  std::thread worker_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> crashed_{false};
  // The batch currently being evaluated, parked here from pop until the
  // delivery loop finishes so a crash can never lose work. Guarded by its
  // own mutex: the watchdog reads it while the (dead) worker cannot.
  mutable std::mutex inflight_mutex_;
  std::vector<StreamItem> inflight_;

  // Worker-private drain scratch (only the worker thread touches these;
  // restart() joins the dead worker before a new one exists): the popped
  // batch, its response slots, the grouping arena, and the arena behind
  // the batched evaluator's term columns all keep their capacity across
  // batches, so a warmed-up drain loop runs allocation-free.
  std::vector<StreamItem> batch_scratch_;
  std::vector<serve::AdvisorResponse> response_scratch_;
  core::Arena group_arena_;
  serve::EvalScratch eval_scratch_;

  mutable std::mutex stats_mutex_;
  ShardStats stats_;
  // Cumulative per-stage latency histograms (microseconds): fixed ~600
  // bytes each forever, so a stream that never asks for metrics cannot
  // grow state — this replaced the old bounded sample reservoir.
  obs::LatencyHistogram queue_wait_us_;
  obs::LatencyHistogram service_us_;
  obs::LatencyHistogram e2e_us_;
};

}  // namespace isr::cluster
