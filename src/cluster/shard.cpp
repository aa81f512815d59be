#include "cluster/shard.hpp"

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
             std::chrono::nanoseconds batch_deadline, LoadEstimates& estimates)
    : index_(index),
      batch_size_(batch_size > 0 ? batch_size : 1),
      batch_deadline_(batch_deadline),
      queue_(queue),
      estimates_(estimates) {}

Shard::~Shard() { join(); }

void Shard::start(ResponseCache* cache, core::FaultInjector* faults,
                  FailureHandler on_failed, obs::TraceRecorder* trace) {
  cache_ = cache;
  faults_ = faults && faults->armed() ? faults : nullptr;
  on_failed_ = std::move(on_failed);
  trace_ = trace;
  crashed_.store(false, std::memory_order_release);
  worker_ = std::thread([this] { worker_loop(); });
}

void Shard::join() {
  if (worker_.joinable()) worker_.join();
}

void Shard::update_ewma(std::atomic<double>& estimate, double measured_us) {
  const double old = estimate.load(std::memory_order_relaxed);
  estimate.store(0.8 * old + 0.2 * measured_us, std::memory_order_relaxed);
}

void Shard::worker_loop() {
  std::vector<StreamItem> failed;
  for (;;) {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    failed.clear();
    const DrainStatus status = drain_one_batch(failed);
    if (status == DrainStatus::kCrashed) {
      // The batch (failed items included) is parked in the in-flight
      // ledger; the watchdog re-drives ALL of it, so dispatching `failed`
      // here would double-deliver. The release store publishes the bumped
      // attempt the watchdog's take_inflight() must see.
      crashed_.store(true, std::memory_order_release);
      return;
    }
    if (!failed.empty()) {
      if (on_failed_) {
        on_failed_(std::move(failed), index_);
        failed.clear();  // restore a known state after the move
      } else {
        // No failover wiring (a bare shard in tests): answer in place so
        // the delivery guarantee holds regardless.
        for (StreamItem& item : failed) item.session->deliver(item.slot, evaluate(item));
        failed.clear();
      }
    }
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
  try {
    response = serve::answer_request(*item.bundle, *item.constants, item.request);
  } catch (const std::exception& e) {
    response = serve::AdvisorResponse{};
    response.status = serve::AdvisorResponse::Status::kError;
    response.error = std::string("evaluation failed: ") + e.what();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.eval_exceptions += 1;
  } catch (...) {
    response = serve::AdvisorResponse{};
    response.status = serve::AdvisorResponse::Status::kError;
    response.error = "evaluation failed: unknown exception";
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.eval_exceptions += 1;
  }
  return response;
}

void Shard::evaluate_batch(std::vector<StreamItem>& batch,
                           std::vector<serve::AdvisorResponse>& responses) {
  const std::size_t n = batch.size();
  responses.clear();
  responses.resize(n);
  // Group by the pinned (bundle, constants) pair — one batch can mix
  // corpora, and items admitted across a recalibration swap pin different
  // epochs of the same corpus. Same stable selection sweep answer_batch
  // uses for (arch, renderer); group count is bounded by resident corpora
  // (x concurrent epochs), not batch size.
  core::Arena& arena = group_arena_;
  arena.reset();
  const serve::AdvisorRequest** reqs = arena.alloc_array<const serve::AdvisorRequest*>(n);
  serve::AdvisorResponse** resps = arena.alloc_array<serve::AdvisorResponse*>(n);
  std::uint32_t* item_of = arena.alloc_array<std::uint32_t>(n);
  unsigned char* taken = arena.alloc_array<unsigned char>(n);
  for (std::size_t k = 0; k < n; ++k) taken[k] = 0;
  std::size_t done = 0;
  std::size_t first = 0;
  while (done < n) {
    while (taken[first]) ++first;
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
    if (!head.bundle || !head.constants) {
      // Defensive invariant, mirroring evaluate(): admission pins both.
      for (std::size_t k = begin; k < done; ++k) {
        resps[k]->status = serve::AdvisorResponse::Status::kError;
        resps[k]->error = "corpus bundle not resident on shard";
      }
      continue;
    }
    try {
      serve::answer_batch(*head.bundle, *head.constants, reqs + begin, group_n,
                          resps + begin, eval_scratch_);
    } catch (...) {
      // The batched evaluator failed (allocation pressure is the only real
      // way): re-run the group item by item through evaluate(), which
      // converts the throw into the historical in-slot error bytes.
      for (std::size_t k = begin; k < done; ++k)
        responses[item_of[k]] = evaluate(batch[item_of[k]]);
    }
  }
}

Shard::DrainStatus Shard::drain_one_batch(std::vector<StreamItem>& failed) {
  std::vector<StreamItem>& batch = batch_scratch_;
  const core::BatchFlush flush = queue_.pop_batch(batch_size_, batch_deadline_, batch);
  if (flush == core::BatchFlush::kEmpty) return DrainStatus::kStop;
  // A kick can race the worker draining the queue empty; that is not a
  // batch — record nothing and keep watching the queue.
  if (batch.empty()) return DrainStatus::kContinue;
  // Queue wait ends here: the pop timestamp closes every item's
  // enqueue->pop interval (fault stalls below count as service, not wait).
  const auto pop_now = std::chrono::steady_clock::now();
  // Worker-side trace emission is live-clock only; under the cluster's
  // replay mode the admission path emits the whole virtual chain instead.
  const bool tracing = trace_ && trace_->enabled() && !trace_->virtual_clock();

  // Lane split. With no armed fault injector a worker crash, stall, and
  // transient failure are all structurally impossible (every fault branch
  // is injector-gated), so the in-flight ledger deep copy, the per-item
  // fault checks, and the per-item clock reads buy nothing — the fast lane
  // drops them and evaluates group-at-a-time through answer_batch. A
  // live-clock tracer needs per-item eval spans, so it rides the chaos
  // lane too.
  if (faults_ || tracing) return drain_chaos_batch(batch, flush, pop_now, tracing, failed);

  evaluate_batch(batch, response_scratch_);
  const auto eval_done = std::chrono::steady_clock::now();
  const std::size_t n = batch.size();
  const double batch_eval_us =
      std::chrono::duration<double, std::micro>(eval_done - pop_now).count();
  // One clock pair for the whole batch: stage histograms and the shed
  // estimator get the batch mean per item (they are metrics, not wire
  // bytes); the per-item wait/e2e intervals stay exact — they derive from
  // each item's own admission timestamp.
  const double per_item_us = batch_eval_us / static_cast<double>(n);

  // Cache fill before delivery (matching the chaos lane's insert-then-
  // deliver order per item). The canonical key is rebuilt into a
  // worker-local buffer — cheaper than carrying a heap string through the
  // queue — and the cache copies its bytes into pre-allocated node
  // storage, so the whole fill is heap-silent.
  if (cache_ && cache_->enabled()) {
    static thread_local std::string key;
    for (std::size_t i = 0; i < n; ++i) {
      if (!batch[i].bundle) continue;
      canonical_request_key_into(batch[i].request, key);
      cache_->insert(static_cast<std::size_t>(batch[i].corpus_index),
                     batch[i].bundle->epoch, key, response_scratch_[i]);
    }
  }

  update_ewma(estimates_.service_us, per_item_us);

  const auto item_wait_us = [&pop_now](const StreamItem& item) {
    const double wait =
        std::chrono::duration<double, std::micro>(pop_now - item.enqueued).count();
    return wait < 0.0 ? 0.0 : wait;
  };

  // Account the batch BEFORE delivering: the final delivery may wake a
  // close()d session whose client immediately reads metrics(), and the
  // flush that carried its responses must already be counted.
  double wait_us_sum = 0.0;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queries += static_cast<long>(n);
    stats_.batches += 1;
    if (flush == core::BatchFlush::kSize) stats_.size_flushes += 1;
    else if (flush == core::BatchFlush::kDeadline) stats_.deadline_flushes += 1;
    else if (flush == core::BatchFlush::kKicked) stats_.kick_flushes += 1;
    else stats_.close_flushes += 1;
    for (std::size_t i = 0; i < n; ++i) {
      const double wait_us = item_wait_us(batch[i]);
      wait_us_sum += wait_us;
      queue_wait_us_.record(wait_us);
      service_us_.record(per_item_us);
      e2e_us_.record(
          std::chrono::duration<double, std::micro>(eval_done - batch[i].enqueued).count());
    }
  }
  update_ewma(estimates_.queue_wait_us, wait_us_sum / static_cast<double>(n));

  // Delivery, grouped by session: a run of consecutive items from one
  // stream (the common shape — serve_batch is one stream) lands under a
  // single session lock. Slots address the writes, so grouping cannot
  // reorder anything. The slot arrays ride the group arena, still warm
  // from evaluation.
  for (std::size_t i = 0; i < n;) {
    SessionState* const session = batch[i].session.get();
    std::size_t j = i + 1;
    while (j < n && batch[j].session.get() == session) ++j;
    if (j - i == 1) {
      session->deliver(batch[i].slot, std::move(response_scratch_[i]));
    } else {
      std::size_t* slots = group_arena_.alloc_array<std::size_t>(j - i);
      for (std::size_t k = i; k < j; ++k) slots[k - i] = batch[k].slot;
      session->deliver_run(slots, response_scratch_.data() + i, j - i);
    }
    i = j;
  }
  return DrainStatus::kContinue;
}

Shard::DrainStatus Shard::drain_chaos_batch(std::vector<StreamItem>& batch,
                                            core::BatchFlush flush,
                                            std::chrono::steady_clock::time_point pop_now,
                                            bool tracing,
                                            std::vector<StreamItem>& failed) {
  // Park the whole batch in the in-flight ledger BEFORE evaluating any of
  // it: from here until the ledger is cleared after delivery, a crash can
  // lose nothing — the watchdog re-drives exactly what was held.
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_ = batch;
  }

  // Injected stall, keyed on the batch head's identity: the worker sleeps
  // mid-drain with work parked, the heartbeat goes stale, and the watchdog
  // marks it degraded. Purely a liveness disturbance — every item still
  // evaluates to its normal bytes afterwards, and the other workers keep
  // draining the shared queue meanwhile.
  if (faults_ &&
      faults_->should_fire(core::FaultSite::kQueueStall, batch.front().session->id(),
                           batch.front().slot,
                           static_cast<std::uint64_t>(batch.front().attempt)))
    std::this_thread::sleep_for(std::chrono::milliseconds(faults_->config().stall_ms));

  // Evaluate outside any lock: responses are pure functions of
  // (request, fitted models), and each item owns its session slot.
  std::vector<serve::AdvisorResponse> responses(batch.size());
  std::vector<char> transient(batch.size(), 0);
  std::vector<double> eval_us(batch.size(), 0.0);
  std::vector<std::int64_t> eval_begin_us(tracing ? batch.size() : 0, 0);
  std::size_t evaluated = 0;
  double eval_us_sum = 0.0;
  // Chained per-item clock: one now() per item, each reading doubling as
  // the next item's start. Cache inserts and fault checks between items
  // land in the next item's measurement — ns-scale against µs evals, and
  // an injected stall charges to service, never to queue wait.
  auto mark = pop_now;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const StreamItem& item = batch[i];
    const std::uint64_t stream = item.session->id();
    const std::uint64_t seq = item.slot;
    const auto attempt = static_cast<std::uint64_t>(item.attempt);
    if (faults_ &&
        faults_->should_fire(core::FaultSite::kWorkerCrash, stream, seq, attempt)) {
      // Simulated crash: the thread dies mid-batch, delivering and counting
      // NOTHING — earlier evaluations of this batch are discarded and
      // redone on re-drive (same bytes; they are pure). Only the item that
      // personally triggered the crash advances its attempt, so co-batched
      // items re-run under their unchanged fault schedule — batch
      // composition is interleaving-dependent, their decisions must not be.
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_[i].attempt += 1;
      return DrainStatus::kCrashed;
    }
    if (faults_ &&
        faults_->should_fire(core::FaultSite::kShardEvalThrow, stream, seq, attempt)) {
      // Injected transient failure: not delivered, not cached, not counted
      // here — handed (attempt advanced) to the cluster for retry/failover.
      transient[i] = 1;
      continue;
    }
    responses[i] = evaluate(item);
    const auto item_done = std::chrono::steady_clock::now();
    eval_us[i] =
        std::chrono::duration<double, std::micro>(item_done - mark).count();
    eval_us_sum += eval_us[i];
    if (tracing) eval_begin_us[i] = trace_->since_epoch_us(mark);
    mark = item_done;
    ++evaluated;
    // Degraded responses never reach this path (the cluster delivers them
    // directly), so everything evaluated here is cache-safe: a pure
    // function of (request, pinned epoch). The entry is stamped with the
    // item's ADMISSION epoch — a concurrent refit's invalidation sweep
    // will clear it if the epoch moved on before this insert landed.
    if (cache_ && cache_->enabled() && item.bundle) {
      static thread_local std::string chaos_key;
      canonical_request_key_into(item.request, chaos_key);
      cache_->insert(static_cast<std::size_t>(item.corpus_index),
                     item.bundle->epoch, chaos_key, responses[i]);
    }
  }
  const auto now = std::chrono::steady_clock::now();

  // Every popped item waited enqueue->pop regardless of how its
  // evaluation went; pop_now closes the interval, computed per item in
  // the stats pass below (arithmetic only, no further clock reads).
  const auto item_wait_us = [&pop_now](const StreamItem& item) {
    const double wait =
        std::chrono::duration<double, std::micro>(pop_now - item.enqueued).count();
    return wait < 0.0 ? 0.0 : wait;
  };

  // Feed the live shed estimator: EWMA of measured microseconds per
  // request.
  if (evaluated > 0)
    update_ewma(estimates_.service_us, eval_us_sum / static_cast<double>(evaluated));
  // Account the batch BEFORE delivering: the final delivery may wake a
  // close()d session whose client immediately reads metrics(), and the
  // flush that carried its responses must already be counted. Only
  // delivered items count as queries; transient failures are the failover
  // path's to account.
  double wait_us_sum = 0.0;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queries += static_cast<long>(evaluated);
    stats_.batches += 1;
    if (flush == core::BatchFlush::kSize) stats_.size_flushes += 1;
    else if (flush == core::BatchFlush::kDeadline) stats_.deadline_flushes += 1;
    else if (flush == core::BatchFlush::kKicked) stats_.kick_flushes += 1;
    else stats_.close_flushes += 1;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double wait_us = item_wait_us(batch[i]);
      wait_us_sum += wait_us;
      queue_wait_us_.record(wait_us);
      if (transient[i]) continue;  // the failover path's stage to account
      service_us_.record(eval_us[i]);
      e2e_us_.record(std::chrono::duration<double, std::micro>(
                         now - batch[i].enqueued)
                         .count());
    }
  }
  // EWMA over measured queue wait: live admission adds this to its backlog
  // estimate so shedding reflects the stage the request is actually about
  // to pay, not an end-to-end guess.
  update_ewma(estimates_.queue_wait_us, wait_us_sum / static_cast<double>(batch.size()));

  if (tracing) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      obs::TraceEvent queue_span{};
      queue_span.name = "queue";
      queue_span.cat = "req";
      queue_span.phase = 'X';
      queue_span.ts_us = trace_->since_epoch_us(batch[i].enqueued);
      queue_span.dur_us = static_cast<std::int64_t>(item_wait_us(batch[i]));
      queue_span.stream = batch[i].session->id();
      queue_span.seq = batch[i].slot;
      trace_->record(queue_span);
      if (transient[i]) continue;  // redeliver() annotates the retry
      obs::TraceEvent eval_span{};
      eval_span.name = "eval";
      eval_span.cat = "req";
      eval_span.phase = 'X';
      eval_span.ts_us = eval_begin_us[i];
      eval_span.dur_us = static_cast<std::int64_t>(eval_us[i]);
      eval_span.stream = batch[i].session->id();
      eval_span.seq = batch[i].slot;
      trace_->record(eval_span);
    }
  }

  // The drain span and every deliver instant are recorded BEFORE the
  // corresponding session handoff: the final delivery may wake a client
  // that immediately exports the trace, and a ring must never owe events
  // for a request whose future has already resolved. The drain span
  // therefore closes at pre-delivery time — the handoffs it excludes are
  // ns-scale against the µs evaluations it covers.
  if (tracing) {
    obs::TraceEvent drain_span{};
    drain_span.name = "batch-drain";
    drain_span.cat = "shard";
    drain_span.phase = 'X';
    drain_span.ts_us = trace_->since_epoch_us(pop_now);
    drain_span.dur_us = trace_->now_us() - drain_span.ts_us;
    drain_span.values = 2;
    drain_span.v0 = static_cast<std::int64_t>(batch.size());
    drain_span.v1 = static_cast<std::int64_t>(evaluated);
    trace_->record(drain_span);
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (transient[i]) {
      StreamItem item = std::move(batch[i]);
      item.attempt += 1;
      failed.push_back(std::move(item));
    } else {
      if (tracing) {
        obs::TraceEvent delivered{};
        delivered.name = "deliver";
        delivered.cat = "req";
        delivered.phase = 'i';
        delivered.ts_us = trace_->now_us();
        delivered.stream = batch[i].session->id();
        delivered.seq = batch[i].slot;
        trace_->record(delivered);
      }
      batch[i].session->deliver(batch[i].slot, std::move(responses[i]));
    }
  }

  // Everything in the batch is now either delivered or owned by `failed`;
  // a crash after this point (there is none — no fault site remains) could
  // no longer lose work. Clear the ledger.
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.clear();
  }
  return DrainStatus::kContinue;
}

std::vector<StreamItem> Shard::take_inflight() {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  std::vector<StreamItem> out = std::move(inflight_);
  inflight_.clear();
  return out;
}

bool Shard::has_inflight() const {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  return !inflight_.empty();
}

void Shard::restart() {
  // The crashed thread has already returned from worker_loop; join reclaims
  // it immediately. A fresh worker resumes pulling with the same wiring.
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
