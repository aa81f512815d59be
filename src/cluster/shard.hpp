// One serving worker ("shard" in the metrics and on the CLI, --shards N):
// a dedicated SUPERVISED thread that pulls coalesced batches from the
// cluster's one shared core::OrderedBatchQueue. A Shard owns no queue and
// no model state: every StreamItem carries a shared_ptr pin of the bundle
// it was admitted under plus its corpus's mapping constants, so any worker
// can evaluate any item — which worker pulled it, a re-drive after a
// failure, even a mid-flight recalibration swap can never change the
// bytes a request answers. Batches flush on batch size, on the coalescing
// deadline, on a kick (a closing stream flushing its in-flight tail), or
// on shutdown, in strict-priority/EDF order across the whole cluster.
//
// Every batch takes the one drain: injected-fault checks (only when an
// injector is armed), evaluation through serve::answer_batch grouped by
// pinned (bundle, constants) pair, cache fill and stage accounting, trace
// spans (only when a live tracer is on), then delivery. Faults armed or
// not, tracing on, off or absent — the same code evaluates and delivers.
// An evaluation that throws becomes an in-slot error response (never a
// dead thread), an injected transient failure hands the item to the
// cluster's failure handler for a re-drive, and a (simulated) worker
// crash leaves the popped batch itself as the crash ledger the heartbeat
// watchdog takes and re-drives after restart() — which is what makes
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

// The shed check's one measured input, shared by every worker: an EWMA of
// per-request evaluation cost in microseconds, starting from
// kInitialServiceUs until the first batch is measured. A relaxed atomic —
// a lost update skews the estimate, never a response (a recording logs the
// value each shed check actually read).
inline constexpr double kInitialServiceUs = 4.0;

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
  // `queue` and `service_us` (the shared service EWMA) are the cluster's
  // and outlive the worker.
  Shard(int index, WorkQueue& queue, std::size_t batch_size,
        std::chrono::nanoseconds batch_deadline, std::atomic<double>& service_us);
  // Joins the worker if the owner forgot join(); the owner closes the
  // queue first, so the worker is already on its way out.
  ~Shard();

  // Starts the dedicated worker thread. `faults` (nullable) injects the
  // deterministic chaos schedule; `on_failed` (required) receives items
  // that failed transiently and owns their re-drive; `trace` (nullable)
  // records lifecycle spans — the worker emits queue/eval/deliver events
  // only when the recorder is live-clocked (under --replay the cluster
  // emits the whole virtual chain at admission instead). Call once.
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
  // Monotone liveness counter, bumped each time the worker takes a batch;
  // a stale heartbeat while holding a batch means the worker is stalled.
  std::uint64_t heartbeat() const { return heartbeat_.load(std::memory_order_relaxed); }
  // True when the worker thread died mid-batch (injected crash). The
  // watchdog must take_inflight() and restart().
  bool worker_down() const { return crashed_.load(std::memory_order_acquire); }
  // Moves out the batch a crashed worker held (the crash ledger). Call
  // only after worker_down() and before restart(). Empty once taken.
  std::vector<StreamItem> take_inflight();
  // True from pop until the batch's last delivery (or until a crashed
  // worker's batch is taken). Paired with a stale heartbeat it
  // distinguishes "stalled mid-batch" from "idle at an empty queue" (an
  // idle worker blocks in pop and legitimately stops beating).
  bool has_inflight() const { return holding_.load(std::memory_order_relaxed); }
  // Joins the dead thread (if any) and spawns a fresh worker over the
  // same queue with start()'s wiring; start() ends here too. After a crash
  // call it only once worker_down(); counts are the caller's job.
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

  // One evaluated item's share of its group's measured evaluation
  // interval: where the share starts and its length in microseconds.
  struct EvalShare {
    std::chrono::steady_clock::time_point begin;
    double us;
  };

  void worker_loop();
  // The one drain: pops a batch, then fault checks, evaluation,
  // bookkeeping, trace spans, delivery. Transient failures land in
  // `failed` for the caller to hand to the failure handler.
  DrainStatus drain_one_batch(std::vector<StreamItem>& failed);
  // Groups the popped batch's non-`skip` items by pinned (bundle,
  // constants) pair and evaluates each group through one
  // serve::answer_batch call into response_scratch_, timing each group
  // from `start` (chained) and writing every member's share. An
  // evaluation that throws falls back to the per-item evaluate() for that
  // group, preserving the in-slot error contract. Returns the end of the
  // last group. Allocates from group_arena_, which the caller resets.
  std::chrono::steady_clock::time_point evaluate_batch(
      const std::vector<StreamItem>& batch, const unsigned char* skip,
      std::chrono::steady_clock::time_point start, EvalShare* shares);

  int index_;
  std::size_t batch_size_;
  std::chrono::nanoseconds batch_deadline_;
  WorkQueue& queue_;
  std::atomic<double>& service_estimate_us_;

  // Wiring fixed by start() before the worker exists; restart() reuses it.
  ResponseCache* cache_ = nullptr;
  core::FaultInjector* faults_ = nullptr;
  FailureHandler on_failed_;
  obs::TraceRecorder* trace_ = nullptr;
  std::thread worker_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> holding_{false};  // see has_inflight()

  // Worker-private drain scratch (only the worker thread touches these,
  // except take_inflight() on a dead worker's batch; restart() joins the
  // dead worker before a new one exists): the popped batch — also the
  // crash ledger — its response slots, the grouping arena, and the arena
  // behind the batched evaluator's term columns all keep their capacity
  // across batches, so a warmed-up drain loop runs allocation-free.
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
