// A bounded multi-producer/multi-consumer queue whose consumers pop
// *coalesced batches* in a caller-supplied order: pop_batch blocks until a
// full batch accumulates, the coalescing deadline passes with at least one
// item waiting, a kick() flushes a partial batch, or the queue is closed.
// This is the serving cluster's one admission queue (src/cluster/: every
// admitter pushes into it and every worker pops from it), but it is
// deliberately generic — batching-with-a-deadline is the standard
// latency/throughput dial for any streaming consumer.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace isr::core {

// Why pop_batch returned: a full batch, the coalescing deadline, a kick
// (explicit partial-batch flush), the close drain, or nothing left (closed
// and empty — the consumer's stop signal).
enum class BatchFlush { kSize, kDeadline, kKicked, kClosed, kEmpty };

// A bounded MPMC batch queue that pops in a caller-supplied order rather
// than FIFO: `Before(a, b)` returns true when `a` must be served before
// `b` (the cluster uses strict priority class, then earliest deadline,
// then admission sequence). Internally a binary heap, so push and pop are
// O(log n) and a batch pop is O(k log n) — insertion order never matters,
// which is what makes concurrent admitters deterministic once each item
// carries a total-order key.
//
// Contracts:
//   - push() BLOCKS until the queue has room (or returns false once
//     closed). Admitters are client threads; the overload policy is the
//     cluster's admission-time shedding, not producer help-draining.
//     try_push() is the non-blocking form (false when full or closed, the
//     item untouched), for callers that must never wait on a consumer.
//   - kick() flushes whatever is queued to the next pop_batch as a partial
//     batch (kKicked) without waiting out the coalescing deadline — how a
//     closing stream's in-flight tail gets answered promptly. A kick on an
//     empty queue is remembered until items arrive or the queue drains.
//   - Any number of consumers may wait in pop_batch at once. At most one
//     waits out a coalescing window; a push wakes it once its batch is
//     ready, and wakes a parked consumer when nobody is coalescing or the
//     queue holds a full batch for it — so one consumer's long coalescing
//     window never hides work from another that could take it now, and
//     N consumers never pile into one window over the same items.
//
// Storage is a slot pool: items live in fixed slots reused across their
// lifetime (a moved-out slot keeps its strings' heap capacity for the next
// occupant), and the heap orders slot INDICES — sift operations move
// 8-byte integers, never the queued objects themselves. Both structures
// are bounded by the queue capacity and reserved up front, so a warmed-up
// queue pushes and pops with zero heap traffic — part of the serving
// path's steady-state zero-allocation contract.
template <class T, class Before>
class OrderedBatchQueue {
 public:
  explicit OrderedBatchQueue(std::size_t capacity, Before before = Before{})
      : capacity_(capacity > 0 ? capacity : 1), before_(before) {
    slots_.reserve(capacity_);
    heap_.reserve(capacity_);
    free_.reserve(capacity_);
  }

  // Blocking bounded push: waits for room, returns false only when the
  // queue is (or becomes) closed — the item is untouched in that case.
  bool push(T&& item) {
    Wake wake;
    {
      std::unique_lock<std::mutex> lock = acquire();
      push_cv_.wait(lock, [&] { return closed_ || heap_.size() + in_transit_ < capacity_; });
      if (closed_) return false;
      heap_push(std::move(item));
      wake = wake_after_push();
    }
    notify(wake);
    return true;
  }

  // Non-blocking variant: false when full or closed, the item untouched
  // (rvalue-reference parameter: nothing moves until the push succeeds).
  bool try_push(T&& item) {
    Wake wake;
    {
      std::unique_lock<std::mutex> lock = acquire();
      if (closed_ || heap_.size() + in_transit_ >= capacity_) return false;
      heap_push(std::move(item));
      wake = wake_after_push();
    }
    notify(wake);
    return true;
  }

  // Flush whatever is queued as a partial batch now (kKicked). Sticky: a
  // kick with nothing queued arms the next pop instead of vanishing, so a
  // close() racing ahead of the last push cannot strand an item.
  void kick() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      kicked_ = true;
    }
    idle_cv_.notify_all();
    coalesce_cv_.notify_all();
  }

  // No more pushes; consumers drain what remains and then see kEmpty.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    idle_cv_.notify_all();
    coalesce_cv_.notify_all();
    push_cv_.notify_all();
  }

  // Pops up to `max_items` into `out` (cleared first), best-first per
  // `Before`. Blocks until a full batch, the coalescing deadline (clock
  // starts at first availability, so an idle consumer parked on an empty
  // open queue waits indefinitely without spinning), a kick, or close —
  // kEmpty when closed with nothing left, the consumer's stop signal.
  //
  // Several consumers share the queue without duplicating work: at most
  // one of them waits out a coalescing window at a time. The others park
  // until there is work that window will not cover — a full batch of
  // their own, a kick, or queued items once nobody is coalescing.
  BatchFlush pop_batch(std::size_t max_items, std::chrono::nanoseconds deadline,
                       std::vector<T>& out) {
    out.clear();
    if (max_items == 0) max_items = 1;
    std::unique_lock<std::mutex> lock = acquire();
    const auto can_proceed = [&] {
      return closed_ || heap_.size() >= max_items ||
             (!heap_.empty() && (!coalescing_ || kicked_));
    };
    // Parked consumers register themselves so a push can skip its notify
    // when no waiter could proceed: without this, every push while a
    // consumer waits out the coalescing window is a futex wake (and on a
    // loaded box, a context switch) just to re-check a false predicate.
    // kick()/close() still notify unconditionally, and the timed wait's
    // deadline needs no producer signal at all. idle_min_ only falls while
    // anyone is parked and resets when the last one leaves: a stale
    // (smaller) value costs a spurious wake, never a missed one. Any
    // consumer that looks at the queue settles a pending hand-off wake
    // (see wake_after_push): it either takes the work over or finds it
    // taken.
    if (!can_proceed()) {
      ++idle_waiters_;
      if (max_items < idle_min_) idle_min_ = max_items;
      do {
        idle_cv_.wait(lock);
        handoff_pending_ = false;
      } while (!can_proceed());
      if (--idle_waiters_ == 0) idle_min_ = kNoConsumer;
    }
    handoff_pending_ = false;
    BatchFlush reason;
    if (heap_.size() >= max_items) {
      reason = BatchFlush::kSize;
    } else if (closed_) {
      reason = heap_.empty() ? BatchFlush::kEmpty : BatchFlush::kClosed;
    } else if (kicked_) {
      reason = BatchFlush::kKicked;
    } else {
      // can_proceed() held with none of the above, so nobody else is
      // coalescing: this consumer owns the window.
      coalescing_ = true;
      coalesce_want_ = max_items;
      const auto flush_at = std::chrono::steady_clock::now() + deadline;
      while (!(closed_ || kicked_ || heap_.size() >= max_items)) {
        coalesce_signaled_ = false;  // a wake that found no batch is spent
        if (coalesce_cv_.wait_until(lock, flush_at) == std::cv_status::timeout) break;
      }
      coalescing_ = false;
      coalesce_signaled_ = false;
      coalesce_want_ = kNoConsumer;
      if (heap_.size() >= max_items) reason = BatchFlush::kSize;
      else if (closed_) reason = heap_.empty() ? BatchFlush::kEmpty : BatchFlush::kClosed;
      else if (kicked_) reason = BatchFlush::kKicked;
      else reason = BatchFlush::kDeadline;
    }
    const std::size_t take = heap_.size() < max_items ? heap_.size() : max_items;
    // Only the slot indices leave the heap under the lock; the items move
    // out after it is released (their slots stay reserved — counted in
    // in_transit_ — until handed back below). Moving a batch of items that
    // producers wrote on other cores is the expensive part of a pop, and
    // producers pushing into the same queue must not wait it out.
    static thread_local std::vector<std::size_t> popped;
    popped.clear();
    for (std::size_t i = 0; i < take; ++i) popped.push_back(heap_pop());
    in_transit_ += take;
    // A kick's obligation is met once the queue is drained; a fresh kick
    // after new pushes re-arms it.
    if (heap_.empty()) kicked_ = false;
    // Items left over (a full batch taken from a deeper queue, or a window
    // just closed) need a consumer: a parked one must not sleep on them.
    const bool leftovers = !heap_.empty() && idle_waiters_ > 0 && !handoff_pending_;
    if (leftovers) handoff_pending_ = true;
    lock.unlock();
    if (leftovers) idle_cv_.notify_one();
    out.reserve(take);
    for (const std::size_t slot : popped) out.push_back(std::move(slots_[slot]));
    if (take > 0) {
      lock = acquire();
      for (const std::size_t slot : popped) free_.push_back(slot);
      in_transit_ -= take;
      lock.unlock();
      push_cv_.notify_all();
    }
    return reason;
  }

  // Deepest the queue has ever been — the backpressure indicator the
  // cluster's metrics report.
  std::size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_depth_;
  }

 private:
  // The queue lock, taken with a short spin before blocking: producers
  // and consumers hold it for well under a microsecond per item, and on a
  // contended single queue a futex sleep + wake per collision would cost
  // more than the critical section it waits out.
  std::unique_lock<std::mutex> acquire() {
    for (int spin = 0; spin < 256; ++spin) {
      if (mutex_.try_lock()) return std::unique_lock<std::mutex>(mutex_, std::adopt_lock);
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    return std::unique_lock<std::mutex>(mutex_);
  }

  // Which waiters a push must wake (computed under the lock, signalled
  // after it is released).
  enum class Wake { kNone, kIdle, kCoalescing };

  // The coalescing consumer once its batch is ready; a parked one when
  // the push gives it something to do (see can_proceed in pop_batch):
  // queued work nobody is coalescing, or a full batch beyond what the
  // signaled coalescer will take. At most one wake of each kind is in
  // flight: a producer outrunning a waking consumer would otherwise pay a
  // futex call per push until the consumer runs, and stampede the parked
  // consumers into the same window.
  Wake wake_after_push() {
    if (coalescing_ && !coalesce_signaled_ && heap_.size() >= coalesce_want_) {
      coalesce_signaled_ = true;
      return Wake::kCoalescing;
    }
    if (idle_waiters_ == 0 || handoff_pending_) return Wake::kNone;
    const std::size_t claimed = coalesce_signaled_ ? coalesce_want_ : 0;
    if (coalescing_ && heap_.size() < claimed + idle_min_) return Wake::kNone;
    handoff_pending_ = true;
    return Wake::kIdle;
  }

  void notify(Wake wake) {
    if (wake == Wake::kIdle) idle_cv_.notify_one();
    else if (wake == Wake::kCoalescing) coalesce_cv_.notify_one();
  }

  // std::push_heap keeps the *greatest* element (per the comparator) at the
  // front; serving best-first therefore heapifies on the inverted order.
  // The heap holds slot indices, so every swap a sift performs moves one
  // integer; the comparator reads the slots through the indirection.
  bool heap_less(std::size_t a, std::size_t b) const {
    return before_(slots_[b], slots_[a]);
  }

  void heap_push(T&& item) {
    std::size_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(item);  // reuses the old occupant's buffers
    } else {
      slot = slots_.size();
      slots_.push_back(std::move(item));
    }
    heap_.push_back(slot);
    std::push_heap(heap_.begin(), heap_.end(),
                   [this](std::size_t a, std::size_t b) { return heap_less(a, b); });
    if (heap_.size() > max_depth_) max_depth_ = heap_.size();
  }

  // Removes the best slot index from the heap. The slot itself stays
  // occupied until the caller moves its item out and frees it.
  std::size_t heap_pop() {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [this](std::size_t a, std::size_t b) { return heap_less(a, b); });
    const std::size_t slot = heap_.back();
    heap_.pop_back();
    return slot;
  }

  const std::size_t capacity_;
  Before before_;
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;      // parked consumers
  std::condition_variable coalesce_cv_;  // the consumer waiting out a batch window
  std::condition_variable push_cv_;
  // Slot pool (fixed homes for queued items; a freed slot keeps its
  // buffers), the index heap ordered by heap_less, the free list, and the
  // popped slots whose items are still being moved out. slots_ never
  // grows past capacity_ (heap + in-transit + free == its size), so it
  // never reallocates under a consumer reading a popped slot unlocked.
  std::vector<T> slots_;
  std::vector<std::size_t> heap_;
  std::vector<std::size_t> free_;
  std::size_t in_transit_ = 0;
  // Pop-side wake bookkeeping (see pop_batch): parked consumers and the
  // smallest batch any of them wants, and whether one consumer is inside
  // the coalescing window and the batch it wants (kNoConsumer: none).
  static constexpr std::size_t kNoConsumer = static_cast<std::size_t>(-1);
  std::size_t idle_waiters_ = 0;
  std::size_t idle_min_ = kNoConsumer;
  bool coalescing_ = false;
  bool coalesce_signaled_ = false;  // the coalescer was woken for its batch
  std::size_t coalesce_want_ = kNoConsumer;
  // A parked consumer was woken for work and no consumer has checked the
  // queue since.
  bool handoff_pending_ = false;
  std::size_t max_depth_ = 0;
  bool closed_ = false;
  bool kicked_ = false;
};

}  // namespace isr::core
