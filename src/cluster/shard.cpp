#include "cluster/shard.hpp"

#include <algorithm>
#include <utility>

#include "cluster/cache.hpp"

namespace isr::cluster {

const char* shard_health_name(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kDegraded: return "degraded";
    case ShardHealth::kDown: return "down";
  }
  return "?";
}

Shard::Shard(int index, WorkQueue& queue, std::size_t batch_size,
             std::chrono::nanoseconds batch_deadline, std::atomic<double>& service_us)
    : index_(index),
      batch_size_(batch_size > 0 ? batch_size : 1),
      batch_deadline_(batch_deadline),
      queue_(queue),
      service_estimate_us_(service_us) {}

Shard::~Shard() { join(); }

void Shard::start(ResponseCache* cache, core::FaultInjector* faults,
                  FailureHandler on_failed, obs::TraceRecorder* trace) {
  cache_ = cache;
  faults_ = faults && faults->armed() ? faults : nullptr;
  on_failed_ = std::move(on_failed);
  trace_ = trace;
  restart();
}

void Shard::join() {
  if (worker_.joinable()) worker_.join();
}

void Shard::worker_loop() {
  std::vector<StreamItem> failed;
  for (;;) {
    failed.clear();
    const DrainStatus status = drain_one_batch(failed);
    if (status == DrainStatus::kCrashed) {
      // The popped batch (failed items included) is the crash ledger; the
      // watchdog re-drives ALL of it, so dispatching `failed` here would
      // double-deliver. The release store publishes the batch — and the
      // crasher's bumped attempt — to the watchdog's take_inflight().
      crashed_.store(true, std::memory_order_release);
      return;
    }
    if (!failed.empty()) on_failed_(std::move(failed), index_);
    if (status == DrainStatus::kStop) return;
  }
}

serve::AdvisorResponse Shard::evaluate(const StreamItem& item) {
  serve::AdvisorResponse response;
  // Admission pins the bundle and constants before enqueueing, so the null
  // branch is a defensive invariant, not a code path.
  if (!item.bundle || !item.constants) {
    response.status = serve::AdvisorResponse::Status::kError;
    response.error = "corpus bundle not resident on shard";
    return response;
  }
  // An evaluation that throws becomes an in-slot error response — never a
  // dead worker. The message is a pure function of the exception, which is
  // itself a pure function of (request, models), so the bytes stay
  // deterministic.
  std::string what = "unknown exception";
  try {
    return serve::answer_request(*item.bundle, *item.constants, item.request);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  response.status = serve::AdvisorResponse::Status::kError;
  response.error = "evaluation failed: " + what;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.eval_exceptions += 1;
  return response;
}

std::chrono::steady_clock::time_point Shard::evaluate_batch(
    const std::vector<StreamItem>& batch, const unsigned char* skip,
    std::chrono::steady_clock::time_point start, EvalShare* shares) {
  const std::size_t n = batch.size();
  std::vector<serve::AdvisorResponse>& responses = response_scratch_;
  responses.clear();
  responses.resize(n);
  // Group by the pinned (bundle, constants) pair — one batch can mix
  // corpora, and items admitted across a recalibration swap pin different
  // epochs of the same corpus. Same stable selection sweep answer_batch
  // uses for (arch, renderer); group count is bounded by resident corpora
  // (x concurrent epochs), not batch size. Skipped items start out taken.
  core::Arena& arena = group_arena_;
  const serve::AdvisorRequest** reqs = arena.alloc_array<const serve::AdvisorRequest*>(n);
  serve::AdvisorResponse** resps = arena.alloc_array<serve::AdvisorResponse*>(n);
  std::uint32_t* item_of = arena.alloc_array<std::uint32_t>(n);
  unsigned char* taken = arena.alloc_array<unsigned char>(n);
  std::copy_n(skip, n, taken);
  std::size_t done = 0;
  auto mark = start;
  for (std::size_t first = 0; first < n; ++first) {
    if (taken[first]) continue;  // skipped, or already in an earlier group
    const StreamItem& head = batch[first];
    const std::size_t begin = done;
    for (std::size_t k = first; k < n; ++k) {
      if (taken[k]) continue;
      if (batch[k].bundle.get() == head.bundle.get() && batch[k].constants == head.constants) {
        taken[k] = 1;
        reqs[done] = &batch[k].request;
        resps[done] = &responses[k];
        item_of[done] = static_cast<std::uint32_t>(k);
        ++done;
      }
    }
    const std::size_t group_n = done - begin;
    bool answered = false;
    if (head.bundle && head.constants) {
      try {
        serve::answer_batch(*head.bundle, *head.constants, reqs + begin, group_n,
                            resps + begin, eval_scratch_);
        answered = true;
      } catch (...) {
      }
    }
    // An unpinned group (a defensive invariant: admission pins both) or a
    // failed batched evaluator (allocation pressure is the only real way):
    // evaluate() item by item writes the historical in-slot error bytes.
    if (!answered)
      for (std::size_t k = begin; k < done; ++k)
        responses[item_of[k]] = evaluate(batch[item_of[k]]);
    // One clock read per group: each member's share is an equal slice of
    // the group's measured interval, laid end to end in evaluation order.
    const auto group_end = std::chrono::steady_clock::now();
    const auto group_span = group_end - mark;
    const double share_us =
        std::chrono::duration<double, std::micro>(group_span).count() /
        static_cast<double>(group_n);
    for (std::size_t k = begin; k < done; ++k)
      shares[item_of[k]] = {
          mark + group_span * static_cast<long>(k - begin) / static_cast<long>(group_n),
          share_us};
    mark = group_end;
  }
  return mark;
}

Shard::DrainStatus Shard::drain_one_batch(std::vector<StreamItem>& failed) {
  std::vector<StreamItem>& batch = batch_scratch_;
  const core::BatchFlush flush = queue_.pop_batch(batch_size_, batch_deadline_, batch);
  if (flush == core::BatchFlush::kEmpty) return DrainStatus::kStop;
  // A kick can race the worker draining the queue empty; that is not a
  // batch — record nothing and keep watching the queue.
  if (batch.empty()) return DrainStatus::kContinue;
  // Queue wait ends here: the pop timestamp closes every item's
  // enqueue->pop interval.
  const auto pop_now = std::chrono::steady_clock::now();
  // From here until the last delivery the popped batch IS the crash
  // ledger: a crash returns with it intact and the watchdog re-drives it.
  // The beat marks the pop, so a worker that sat idle in pop_batch is not
  // mistaken for one stalled mid-batch.
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
  holding_.store(true, std::memory_order_relaxed);
  // Worker-side trace emission is live-clock only; under the cluster's
  // replay mode the admission path emits the whole virtual chain instead.
  const bool tracing = trace_ && trace_->enabled() && !trace_->virtual_clock();
  const std::size_t n = batch.size();

  group_arena_.reset();
  unsigned char* transient = group_arena_.alloc_array<unsigned char>(n);
  EvalShare* shares = group_arena_.alloc_array<EvalShare>(n);
  for (std::size_t i = 0; i < n; ++i) transient[i] = 0;
  std::size_t evaluated = n;
  auto eval_start = pop_now;
  if (faults_) {
    // Injected stall, keyed on the batch head's identity: the worker
    // sleeps holding the batch, the heartbeat goes stale, and the watchdog
    // marks it degraded. Purely a liveness disturbance — every item still
    // evaluates to its normal bytes afterwards, and the other workers keep
    // draining the shared queue meanwhile.
    const StreamItem& head = batch.front();
    if (faults_->should_fire(core::FaultSite::kQueueStall, head.session->id(), head.slot,
                             static_cast<std::uint64_t>(head.attempt)))
      std::this_thread::sleep_for(std::chrono::milliseconds(faults_->config().stall_ms));
    // Per-item fault decisions, in batch order, before anything is
    // evaluated. Decisions key on (stream, seq, attempt) alone, so taking
    // them ahead of evaluation changes no byte and no decision.
    for (std::size_t i = 0; i < n; ++i) {
      StreamItem& item = batch[i];
      const std::uint64_t stream = item.session->id();
      const auto attempt = static_cast<std::uint64_t>(item.attempt);
      if (faults_->should_fire(core::FaultSite::kWorkerCrash, stream, item.slot, attempt)) {
        // Simulated crash: the thread dies mid-batch, delivering and
        // counting NOTHING. Only the item that personally triggered the
        // crash advances its attempt, so co-batched items re-run under
        // their unchanged fault schedule — batch composition is
        // interleaving-dependent, their decisions must not be.
        item.attempt += 1;
        return DrainStatus::kCrashed;
      }
      // Injected transient failure: not evaluated, cached, or counted
      // here — handed (attempt advanced) to the cluster for retry.
      if (faults_->should_fire(core::FaultSite::kShardEvalThrow, stream, item.slot, attempt)) {
        transient[i] = 1;
        --evaluated;
      }
    }
    // The fault pass (and any stall) is not evaluation time.
    eval_start = std::chrono::steady_clock::now();
  }

  const auto eval_done = evaluate_batch(batch, transient, eval_start, shares);

  // Cache fill before delivery. Degraded responses never reach a worker
  // (the cluster delivers them directly), so everything evaluated here is
  // a pure function of (request, pinned epoch). The entry is stamped with
  // the item's ADMISSION epoch — a concurrent refit's invalidation sweep
  // clears it if the epoch moved on before this insert landed. The
  // canonical key is rebuilt into a worker-local buffer and the cache
  // copies its bytes into pre-allocated node storage: heap-silent.
  if (cache_ && cache_->enabled()) {
    static thread_local std::string key;
    for (std::size_t i = 0; i < n; ++i) {
      if (transient[i] || !batch[i].bundle) continue;
      canonical_request_key_into(batch[i].request, key);
      cache_->insert(static_cast<std::size_t>(batch[i].corpus_index),
                     batch[i].bundle->epoch, key, response_scratch_[i]);
    }
  }

  const auto item_wait_us = [&pop_now](const StreamItem& item) {
    const double wait =
        std::chrono::duration<double, std::micro>(pop_now - item.enqueued).count();
    return wait < 0.0 ? 0.0 : wait;
  };

  // Feed the live shed estimator: an EWMA of the measured microseconds per
  // evaluated request.
  if (evaluated > 0) {
    const double measured_us =
        std::chrono::duration<double, std::micro>(eval_done - eval_start).count() /
        static_cast<double>(evaluated);
    const double old = service_estimate_us_.load(std::memory_order_relaxed);
    service_estimate_us_.store(0.8 * old + 0.2 * measured_us, std::memory_order_relaxed);
  }
  // Account the batch BEFORE delivering: the final delivery may wake a
  // close()d session whose client immediately reads metrics(), and the
  // flush that carried its responses must already be counted. Only
  // delivered items count as queries; transient failures are the failover
  // path's to account.
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queries += static_cast<long>(evaluated);
    stats_.batches += 1;
    if (flush == core::BatchFlush::kSize) stats_.size_flushes += 1;
    else if (flush == core::BatchFlush::kDeadline) stats_.deadline_flushes += 1;
    else if (flush == core::BatchFlush::kKicked) stats_.kick_flushes += 1;
    else stats_.close_flushes += 1;
    for (std::size_t i = 0; i < n; ++i) {
      queue_wait_us_.record(item_wait_us(batch[i]));
      if (transient[i]) continue;
      service_us_.record(shares[i].us);
      e2e_us_.record(
          std::chrono::duration<double, std::micro>(eval_done - batch[i].enqueued).count());
    }
  }
  // Every span and deliver instant is recorded BEFORE the session
  // handoff: the final delivery may wake a client that immediately exports
  // the trace, and a ring must never owe events for a request whose future
  // has already resolved. The deliver instants and the drain span's end
  // therefore share one pre-delivery timestamp.
  if (tracing) {
    const std::int64_t handoff_us = trace_->now_us();
    for (std::size_t i = 0; i < n; ++i) {
      obs::TraceEvent event{};
      event.cat = "req";
      event.phase = 'X';
      event.stream = batch[i].session->id();
      event.seq = batch[i].slot;
      event.name = "queue";
      event.ts_us = trace_->since_epoch_us(batch[i].enqueued);
      event.dur_us = static_cast<std::int64_t>(item_wait_us(batch[i]));
      trace_->record(event);
      if (transient[i]) continue;  // redeliver() annotates the retry
      event.name = "eval";
      event.ts_us = trace_->since_epoch_us(shares[i].begin);
      event.dur_us = static_cast<std::int64_t>(shares[i].us);
      trace_->record(event);
      event.name = "deliver";
      event.phase = 'i';
      event.ts_us = handoff_us;
      event.dur_us = 0;
      trace_->record(event);
    }
    obs::TraceEvent drain_span{};
    drain_span.name = "batch-drain";
    drain_span.cat = "shard";
    drain_span.phase = 'X';
    drain_span.ts_us = trace_->since_epoch_us(pop_now);
    drain_span.dur_us = handoff_us - drain_span.ts_us;
    drain_span.values = 2;
    drain_span.v0 = static_cast<std::int64_t>(n);
    drain_span.v1 = static_cast<std::int64_t>(evaluated);
    trace_->record(drain_span);
  }

  // Delivery, grouped by session: a run of consecutive answered items
  // from one stream (the common shape — serve_batch is one stream) lands
  // under a single session lock. Slots address the writes, so grouping
  // cannot reorder anything. The slot arrays ride the group arena.
  for (std::size_t i = 0; i < n;) {
    if (transient[i]) {
      batch[i].attempt += 1;
      failed.push_back(std::move(batch[i]));
      ++i;
      continue;
    }
    SessionState* const session = batch[i].session.get();
    std::size_t j = i + 1;
    while (j < n && !transient[j] && batch[j].session.get() == session) ++j;
    std::size_t* slots = group_arena_.alloc_array<std::size_t>(j - i);
    for (std::size_t k = i; k < j; ++k) slots[k - i] = batch[k].slot;
    session->deliver_run(slots, response_scratch_.data() + i, j - i);
    i = j;
  }
  holding_.store(false, std::memory_order_relaxed);
  return DrainStatus::kContinue;
}

std::vector<StreamItem> Shard::take_inflight() {
  // Only after worker_down(): its acquire load pairs with the dead
  // worker's release store of crashed_, so the batch it held is fully
  // visible here, and no thread touches it again until restart().
  holding_.store(false, std::memory_order_relaxed);
  return std::exchange(batch_scratch_, {});
}

void Shard::restart() {
  // A crashed thread has already returned from worker_loop; join reclaims
  // it immediately (before start() there is none). A fresh worker resumes
  // pulling with the same wiring.
  if (worker_.joinable()) worker_.join();
  crashed_.store(false, std::memory_order_release);
  worker_ = std::thread([this] { worker_loop(); });
}

ShardStats Shard::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Shard::merge_stage_histograms(obs::LatencyHistogram& queue_wait,
                                   obs::LatencyHistogram& service,
                                   obs::LatencyHistogram& e2e) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  queue_wait.merge(queue_wait_us_);
  service.merge(service_us_);
  e2e.merge(e2e_us_);
}

}  // namespace isr::cluster
