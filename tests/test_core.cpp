// The runtime-services layer: chunked-queue thread pool, parallel_for
// helpers, validated env parsing, the fd-backed streams' EINTR contract,
// and the counter-based splittable RNG seeding that makes parallel
// enumerations deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <string>
#include <thread>
#include <utility>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <pthread.h>
#include <unistd.h>

#include "core/arena.hpp"
#include "core/env.hpp"
#include "core/fd_stream.hpp"
#include "core/parallel_for.hpp"
#include "core/thread_pool.hpp"
#include "math/rng.hpp"

namespace isr {
namespace {

TEST(Arena, AllocationsAreAlignedDisjointAndWritable) {
  core::Arena arena(64);  // tiny first chunk to force spills
  std::vector<std::pair<unsigned char*, std::size_t>> blocks;
  for (const std::size_t bytes : {8u, 24u, 1u, 200u, 64u, 3u}) {
    auto* p = static_cast<unsigned char*>(arena.allocate(bytes, 8));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    // Write the whole block; ASan/valgrind runs would catch an overlap or
    // an out-of-chunk pointer.
    for (std::size_t i = 0; i < bytes; ++i) p[i] = static_cast<unsigned char>(i);
    blocks.emplace_back(p, bytes);
  }
  for (std::size_t a = 0; a < blocks.size(); ++a)
    for (std::size_t b = a + 1; b < blocks.size(); ++b) {
      const bool disjoint = blocks[a].first + blocks[a].second <= blocks[b].first ||
                            blocks[b].first + blocks[b].second <= blocks[a].first;
      EXPECT_TRUE(disjoint) << a << " vs " << b;
    }
  EXPECT_EQ(arena.used(), 8u + 24u + 1u + 200u + 64u + 3u);

  double* d = arena.alloc_array<double>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  // A zero-byte request is still a valid aligned pointer, not nullptr.
  EXPECT_NE(arena.allocate(0, 8), nullptr);
}

TEST(Arena, ResetRewindsWithoutReleasingAndStopsGrowing) {
  core::Arena arena(128);
  // Warmup: a workload bigger than the first chunk, so several chunks are
  // reserved with geometric growth.
  const auto workload = [&arena] {
    for (int i = 0; i < 40; ++i) arena.alloc_array<double>(32);
  };
  workload();
  const std::size_t warm_capacity = arena.capacity();
  const std::size_t warm_chunks = arena.chunk_count();
  const std::size_t warm_used = arena.used();
  EXPECT_GE(warm_chunks, 2u);
  EXPECT_GE(warm_capacity, warm_used);

  // Steady state: reset + same-shaped workload, many times. Capacity and
  // chunk count are flat (no heap traffic), and used() restarts from zero
  // each round rather than accumulating.
  for (int round = 0; round < 32; ++round) {
    arena.reset();
    EXPECT_EQ(arena.used(), 0u);
    workload();
    EXPECT_EQ(arena.capacity(), warm_capacity) << "round " << round;
    EXPECT_EQ(arena.chunk_count(), warm_chunks) << "round " << round;
    EXPECT_EQ(arena.used(), warm_used) << "round " << round;
  }

  // Reset preserves the chunks themselves: the first post-reset pointer is
  // the same address as the first warmup pointer (reuse, not realloc).
  arena.reset();
  void* first_again = arena.allocate(16, 8);
  arena.reset();
  EXPECT_EQ(arena.allocate(16, 8), first_again);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  core::parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OneThreadPoolRunsSeriallyInCallerOrder) {
  core::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<std::size_t> order;
  core::parallel_for(pool, 64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, GrainCoversTheWholeRange) {
  core::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(997);  // prime: not a multiple of grain
  core::parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i]++; }, 16);
  int total = 0;
  for (const auto& h : hits) total += h.load();
  EXPECT_EQ(total, 997);
}

TEST(ThreadPool, AutoChunkedVariantCoversTheWholeRange) {
  core::ThreadPool pool(4);
  std::atomic<long> sum{0};
  core::parallel_for_chunked(pool, 10000, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 10000L * 9999L / 2);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  core::ThreadPool pool(4);
  std::atomic<int> count{0};
  core::parallel_for(pool, 8, [&](std::size_t) {
    core::parallel_for(pool, 32, [&](std::size_t) { count++; });
  });
  EXPECT_EQ(count.load(), 8 * 32);
}

TEST(ThreadPool, FirstExceptionPropagatesToCaller) {
  core::ThreadPool pool(4);
  const auto boom = [](std::size_t i) {
    if (i == 37) throw std::runtime_error("boom");
  };
  EXPECT_THROW(core::parallel_for(pool, 100, boom), std::runtime_error);
  // The pool survives a failed loop and stays usable.
  std::atomic<int> count{0};
  core::parallel_for(pool, 100, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultThreadCountHonorsIsrThreads) {
  setenv("ISR_THREADS", "3", 1);
  EXPECT_EQ(core::default_thread_count(), 3);
  setenv("ISR_THREADS", "not-a-number", 1);
  EXPECT_GE(core::default_thread_count(), 1);  // warns, falls back to hardware
  unsetenv("ISR_THREADS");
  EXPECT_GE(core::default_thread_count(), 1);
}

TEST(Env, DoubleParsesValidatesAndWarns) {
  setenv("ISR_TEST_ENV_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(core::env_double("ISR_TEST_ENV_D", 1.0), 2.5);
  setenv("ISR_TEST_ENV_D", "  0.75  ", 1);
  EXPECT_DOUBLE_EQ(core::env_double("ISR_TEST_ENV_D", 1.0), 0.75);
  setenv("ISR_TEST_ENV_D", "garbage", 1);
  EXPECT_DOUBLE_EQ(core::env_double("ISR_TEST_ENV_D", 1.0), 1.0);
  setenv("ISR_TEST_ENV_D", "2.5x", 1);  // atof would happily return 2.5
  EXPECT_DOUBLE_EQ(core::env_double("ISR_TEST_ENV_D", 1.0), 1.0);
  setenv("ISR_TEST_ENV_D", "-3", 1);
  EXPECT_DOUBLE_EQ(core::env_double("ISR_TEST_ENV_D", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(core::env_double("ISR_TEST_ENV_D", 1.0, /*require_positive=*/false), -3.0);
  setenv("ISR_TEST_ENV_D", "0", 1);
  EXPECT_DOUBLE_EQ(core::env_double("ISR_TEST_ENV_D", 1.0), 1.0);
  unsetenv("ISR_TEST_ENV_D");
  EXPECT_DOUBLE_EQ(core::env_double("ISR_TEST_ENV_D", 1.0), 1.0);
}

TEST(Env, LongParsesValidates) {
  setenv("ISR_TEST_ENV_L", "12", 1);
  EXPECT_EQ(core::env_long("ISR_TEST_ENV_L", 7), 12);
  setenv("ISR_TEST_ENV_L", "12.5", 1);  // trailing junk for an integer
  EXPECT_EQ(core::env_long("ISR_TEST_ENV_L", 7), 7);
  setenv("ISR_TEST_ENV_L", "-4", 1);
  EXPECT_EQ(core::env_long("ISR_TEST_ENV_L", 7), 7);
  unsetenv("ISR_TEST_ENV_L");
  EXPECT_EQ(core::env_long("ISR_TEST_ENV_L", 7), 7);
}

TEST(Parse, DoubleReportsWhyAndLeavesOutputUntouched) {
  double v = 42.0;
  EXPECT_EQ(core::parse_double("2.5", v), core::ParseStatus::kOk);
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_EQ(core::parse_double("  1e-3 ", v), core::ParseStatus::kOk);
  EXPECT_DOUBLE_EQ(v, 1e-3);
  v = 42.0;
  EXPECT_EQ(core::parse_double("garbage", v), core::ParseStatus::kNotANumber);
  EXPECT_EQ(core::parse_double("2.5x", v), core::ParseStatus::kNotANumber);
  EXPECT_EQ(core::parse_double("", v), core::ParseStatus::kNotANumber);
  EXPECT_EQ(core::parse_double("inf", v), core::ParseStatus::kNotFinite);
  EXPECT_EQ(core::parse_double("-3", v, /*require_positive=*/true),
            core::ParseStatus::kNotPositive);
  EXPECT_DOUBLE_EQ(v, 42.0);  // rejected parses never write
  EXPECT_EQ(core::parse_double("-3", v), core::ParseStatus::kOk);
  EXPECT_DOUBLE_EQ(v, -3.0);
  EXPECT_STREQ(core::parse_status_message(core::ParseStatus::kNotANumber), "not a number");
}

TEST(Parse, LongReportsWhyAndLeavesOutputUntouched) {
  long v = 42;
  EXPECT_EQ(core::parse_long("12", v), core::ParseStatus::kOk);
  EXPECT_EQ(v, 12);
  v = 42;
  EXPECT_EQ(core::parse_long("12.5", v), core::ParseStatus::kNotANumber);
  EXPECT_EQ(core::parse_long("99999999999999999999999", v), core::ParseStatus::kOutOfRange);
  EXPECT_EQ(core::parse_long("0", v, /*require_positive=*/true),
            core::ParseStatus::kNotPositive);
  EXPECT_EQ(v, 42);
  EXPECT_EQ(core::parse_long("-4", v), core::ParseStatus::kOk);
  EXPECT_EQ(v, -4);
}

TEST(HashSeed, IsDeterministicAndKeySensitive) {
  EXPECT_EQ(hash_seed(77, "cloverleaf", 4, 2), hash_seed(77, "cloverleaf", 4, 2));
  EXPECT_NE(hash_seed(77, "cloverleaf", 4, 2), hash_seed(77, "kripke", 4, 2));
  EXPECT_NE(hash_seed(77, "cloverleaf", 4, 2), hash_seed(77, "cloverleaf", 2, 4));
  EXPECT_NE(hash_seed(77, 1, 2), hash_seed(77, 2, 1));  // order matters
  EXPECT_NE(hash_seed(77, 1, 2), hash_seed(78, 1, 2));  // seed matters
}

TEST(HashSeed, SeparatesAdjacentCounters) {
  // Seeds for neighboring grid points must give unrelated Rng streams.
  const std::uint64_t a = hash_seed(77, "lulesh", 8, 0);
  const std::uint64_t b = hash_seed(77, "lulesh", 8, 1);
  Rng ra(a), rb(b);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (ra.next_u32() == rb.next_u32()) ++equal;
  EXPECT_EQ(equal, 0);
}

// --- fd-backed streams --------------------------------------------------------

extern "C" void ignore_signal(int) {}

TEST(FdStream, EintrEndsABlockedReadAsEndOfInput) {
  // The service's SIGINT contract: a handler installed without SA_RESTART
  // interrupts a reader blocked in getline, and FdInBuf reports that as
  // end of input instead of retrying the read.
  struct sigaction sa {}, old {};
  sa.sa_handler = ignore_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "first\n", 6), 6);
  std::atomic<int> read_lines{0};
  std::atomic<bool> done{false};
  std::vector<std::string> lines;
  std::thread reader([&] {
    core::FdInBuf buf(fds[0]);
    std::istream in(&buf);
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
      ++read_lines;
    }
    done = true;
  });
  // The write end stays open throughout, so only the signal can end the
  // read. Once the first line is in, re-send until the signal lands while
  // the reader is blocked.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (read_lines == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  while (!done && std::chrono::steady_clock::now() < deadline) {
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const bool ended_by_signal = done;
  if (!ended_by_signal) ::close(fds[1]);  // unblock the reader so the test can fail cleanly
  reader.join();
  if (ended_by_signal) ::close(fds[1]);
  ::close(fds[0]);
  sigaction(SIGUSR1, &old, nullptr);
  EXPECT_TRUE(ended_by_signal) << "a blocked read retried EINTR instead of ending input";
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "first");
}

}  // namespace
}  // namespace isr
