// Unit tests for the chunked work-stealing pool (common/thread_pool.h):
// the determinism-bearing properties (chunk layout is a pure function of
// its inputs; chunks partition the input exactly) and the scheduling
// properties (every chunk runs exactly once at any thread count, stats
// are race-free and plausible, the pool survives heavy reuse).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

namespace pathalg {
namespace {

TEST(ChunkLayoutTest, IsAPureFunctionOfItsInputs) {
  const ChunkLayout a = ChunkLayout::For(10000, 4, 128);
  const ChunkLayout b = ChunkLayout::For(10000, 4, 128);
  EXPECT_EQ(a.num_chunks, b.num_chunks);
  EXPECT_EQ(a.chunk_size, b.chunk_size);
  EXPECT_GT(a.num_chunks, 1u);
}

TEST(ChunkLayoutTest, ChunksPartitionTheRangeExactly) {
  for (size_t n : {1u, 2u, 7u, 127u, 128u, 255u, 256u, 1000u, 4096u, 9999u}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      for (size_t min_chunk : {1u, 64u, 128u}) {
        const ChunkLayout layout = ChunkLayout::For(n, threads, min_chunk);
        ASSERT_GE(layout.num_chunks, 1u);
        size_t covered = 0;
        size_t prev_end = 0;
        for (size_t c = 0; c < layout.num_chunks; ++c) {
          auto [begin, end] = layout.Range(c, n);
          EXPECT_EQ(begin, prev_end);  // contiguous, in order
          EXPECT_LT(begin, end);       // never empty
          covered += end - begin;
          prev_end = end;
        }
        EXPECT_EQ(covered, n) << "n=" << n << " threads=" << threads
                              << " min_chunk=" << min_chunk;
        EXPECT_EQ(prev_end, n);
      }
    }
  }
}

TEST(ChunkLayoutTest, RespectsMinChunkFloorExceptLastChunk) {
  const ChunkLayout layout = ChunkLayout::For(1000, 4, 128);
  EXPECT_GE(layout.chunk_size, 128u);
  // The remainder-taking last chunk may legitimately be smaller (e.g.
  // n=1025, min_chunk=128: 8 chunks of 129, last holds 122); everything
  // before it holds at least min_chunk.
  for (size_t n : {1000u, 1025u, 4096u, 9999u}) {
    const ChunkLayout l = ChunkLayout::For(n, 4, 128);
    for (size_t c = 0; c + 1 < l.num_chunks; ++c) {
      auto [begin, end] = l.Range(c, n);
      EXPECT_GE(end - begin, 128u) << "n=" << n << " chunk " << c;
    }
  }
}

TEST(ChunkLayoutTest, PlanForMatchesParallelForDispatch) {
  // PlanFor is the single source of truth callers size buffers with: one
  // inline chunk when the input stays serial, the full layout otherwise.
  const ParallelOptions serial{1, 128};
  EXPECT_EQ(ThreadPool::PlanFor(10000, serial).num_chunks, 1u);
  const ParallelOptions small{4, 128};
  EXPECT_EQ(ThreadPool::PlanFor(100, small).num_chunks, 1u);
  EXPECT_EQ(ThreadPool::PlanFor(100, small).chunk_size, 100u);
  const ParallelOptions par{4, 128};
  const ChunkLayout planned = ThreadPool::PlanFor(10000, par);
  const ChunkLayout raw = ChunkLayout::For(10000, 4, 128);
  EXPECT_EQ(planned.num_chunks, raw.num_chunks);
  EXPECT_EQ(planned.chunk_size, raw.chunk_size);
  EXPECT_EQ(ThreadPool::PlanFor(0, par).num_chunks, 0u);
}

TEST(ChunkLayoutTest, EmptyRangeHasNoChunks) {
  EXPECT_EQ(ChunkLayout::For(0, 4, 128).num_chunks, 0u);
}

TEST(ParallelOptionsTest, SerialAndThresholdDecisions) {
  EXPECT_FALSE((ParallelOptions{1, 128}).ShouldParallelize(1'000'000));
  EXPECT_FALSE((ParallelOptions{4, 128}).ShouldParallelize(255));
  EXPECT_TRUE((ParallelOptions{4, 128}).ShouldParallelize(256));
  // 0 resolves to hardware concurrency, which is always >= 1.
  EXPECT_GE((ParallelOptions{0, 128}).EffectiveThreads(), 1u);
  EXPECT_EQ((ParallelOptions{3, 128}).EffectiveThreads(), 3u);
  // User-supplied counts reach this from --threads / '# threads N';
  // an absurd request clamps instead of spawning thousands of OS
  // threads (results are thread-count independent, so clamping is
  // invisible).
  EXPECT_EQ((ParallelOptions{1'000'000, 128}).EffectiveThreads(),
            ParallelOptions::kMaxThreads);
}

TEST(ThreadPoolTest, EveryItemProcessedExactlyOnce) {
  for (size_t threads : {2u, 4u, 8u}) {
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    ParallelOptions options{threads, /*min_chunk=*/64};
    ParallelStats stats;
    ThreadPool::Shared().ParallelFor(
        n, options, &stats, [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "item " << i << " threads " << threads;
    }
    const ChunkLayout layout = ChunkLayout::For(n, threads, 64);
    EXPECT_EQ(stats.chunks_executed, layout.num_chunks);
    EXPECT_LE(stats.steal_count, stats.chunks_executed);
    EXPECT_EQ(stats.serial_fallbacks, 0u);
  }
}

TEST(ThreadPoolTest, ChunkIndicesMatchTheAnnouncedLayout) {
  const size_t n = 5000;
  ParallelOptions options{4, 32};
  const ChunkLayout layout = ChunkLayout::For(n, 4, 32);
  std::vector<std::atomic<int>> chunk_hits(layout.num_chunks);
  ThreadPool::Shared().ParallelFor(
      n, options, nullptr, [&](size_t chunk, size_t begin, size_t end) {
        ASSERT_LT(chunk, layout.num_chunks);
        auto [want_begin, want_end] = layout.Range(chunk, n);
        EXPECT_EQ(begin, want_begin);
        EXPECT_EQ(end, want_end);
        chunk_hits[chunk].fetch_add(1, std::memory_order_relaxed);
      });
  for (size_t c = 0; c < layout.num_chunks; ++c) {
    EXPECT_EQ(chunk_hits[c].load(), 1) << "chunk " << c;
  }
}

TEST(ThreadPoolTest, SmallInputFallsBackInline) {
  ParallelOptions options{4, 128};
  ParallelStats stats;
  size_t calls = 0;
  ThreadPool::Shared().ParallelFor(
      100, options, &stats, [&](size_t chunk, size_t begin, size_t end) {
        ++calls;
        EXPECT_EQ(chunk, 0u);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 100u);
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(stats.serial_fallbacks, 1u);
  EXPECT_EQ(stats.chunks_executed, 0u);  // inline runs are not pool chunks
}

TEST(ThreadPoolTest, SerialRequestNeverCountsAsFallback) {
  ParallelOptions options{1, 1};
  ParallelStats stats;
  ThreadPool::Shared().ParallelFor(1000, options, &stats,
                                   [&](size_t, size_t, size_t) {});
  EXPECT_EQ(stats.serial_fallbacks, 0u);
}

TEST(ThreadPoolTest, SurvivesManyConsecutiveRegions) {
  // ϕ re-enters the pool once per frontier round; hammer that shape.
  ParallelOptions options{4, 1};
  std::atomic<size_t> total{0};
  for (size_t round = 0; round < 300; ++round) {
    ThreadPool::Shared().ParallelFor(
        64, options, nullptr, [&](size_t, size_t begin, size_t end) {
          total.fetch_add(end - begin, std::memory_order_relaxed);
        });
  }
  EXPECT_EQ(total.load(), 300u * 64u);
}

TEST(ThreadPoolTest, ConcurrentCallersSerializeSafely) {
  // Two evaluating threads hitting the shared pool at once: regions must
  // serialize internally and both complete correctly.
  auto run = [](std::atomic<size_t>* sum) {
    ParallelOptions options{4, 16};
    for (size_t round = 0; round < 50; ++round) {
      ThreadPool::Shared().ParallelFor(
          1000, options, nullptr, [&](size_t, size_t begin, size_t end) {
            sum->fetch_add(end - begin, std::memory_order_relaxed);
          });
    }
  };
  std::atomic<size_t> sum_a{0};
  std::atomic<size_t> sum_b{0};
  std::thread t(run, &sum_a);
  run(&sum_b);
  t.join();
  EXPECT_EQ(sum_a.load(), 50u * 1000u);
  EXPECT_EQ(sum_b.load(), 50u * 1000u);
}

TEST(ThreadPoolTest, SubmittedTasksAllRunDetached) {
  // Tasks count under the lock: the test may return as soon as it sees
  // 32, and the last task must be done with this frame's m/cv by then.
  size_t ran = 0;
  std::mutex m;
  std::condition_variable cv;
  for (size_t i = 0; i < 32; ++i) {
    ThreadPool::Shared().Submit([&] {
      std::lock_guard<std::mutex> lock(m);
      if (++ran == 32) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return ran == 32; }));
}

TEST(ThreadPoolTest, BlockedTasksDoNotStarveRegionsOrOtherTasks) {
  // The server shape: long-blocking connection tasks must neither stop
  // fork-join regions from completing nor prevent later tasks from
  // running (Submit grows the pool past every unfinished task).
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  constexpr size_t kBlockers = 4;
  std::atomic<size_t> blocked{0};
  for (size_t i = 0; i < kBlockers; ++i) {
    ThreadPool::Shared().Submit([&] {
      blocked.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return release; });
    });
  }
  while (blocked.load() < kBlockers) std::this_thread::yield();

  // A region completes while all blockers hold their workers...
  ParallelOptions options{4, 1};
  std::atomic<size_t> total{0};
  ThreadPool::Shared().ParallelFor(
      256, options, nullptr, [&](size_t, size_t begin, size_t end) {
        total.fetch_add(end - begin, std::memory_order_relaxed);
      });
  EXPECT_EQ(total.load(), 256u);

  // ...and so does a task submitted after them.
  std::atomic<bool> late_ran{false};
  ThreadPool::Shared().Submit([&] { late_ran.store(true); });
  for (int spin = 0; spin < 30000 && !late_ran.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(late_ran.load());

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  // Drain: counters must eventually account for every submitted task.
  const ThreadPoolCounters before = ThreadPool::Shared().Counters();
  for (int spin = 0; spin < 30000; ++spin) {
    const ThreadPoolCounters c = ThreadPool::Shared().Counters();
    if (c.tasks_completed == c.tasks_submitted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ThreadPoolCounters after = ThreadPool::Shared().Counters();
  EXPECT_EQ(after.tasks_completed, after.tasks_submitted);
  EXPECT_GE(after.tasks_submitted, before.tasks_submitted);
}

TEST(ThreadPoolTest, CountersAccumulateAcrossRegions) {
  const ThreadPoolCounters before = ThreadPool::Shared().Counters();
  ParallelOptions options{4, 1};
  ParallelStats stats;
  ThreadPool::Shared().ParallelFor(512, options, &stats,
                                   [&](size_t, size_t, size_t) {});
  const ThreadPoolCounters after = ThreadPool::Shared().Counters();
  EXPECT_EQ(after.regions, before.regions + 1);
  EXPECT_EQ(after.chunks, before.chunks + stats.chunks_executed);
  EXPECT_GE(after.workers, 1u);
}

TEST(ThreadPoolTest, RegionsStayParallelWhileTasksHoldWorkers) {
  // Regression: participant slots are claimed dynamically by whichever
  // workers arrive, not bound to worker indices — otherwise long-lived
  // tasks occupying the low-index workers would serialize every region
  // onto the caller even though freshly-grown workers idle. The body
  // blocks chunk execution until two distinct threads have entered, so
  // the test only completes if a worker actually joins the caller.
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  size_t exited = 0;  // blockers past their last touch of m/cv
  constexpr size_t kBlockers = 4;
  std::atomic<size_t> blocked{0};
  for (size_t i = 0; i < kBlockers; ++i) {
    ThreadPool::Shared().Submit([&] {
      blocked.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return release; });
      ++exited;
      cv.notify_all();
    });
  }
  while (blocked.load() < kBlockers) std::this_thread::yield();

  std::mutex body_m;
  std::condition_variable body_cv;
  std::set<std::thread::id> participants;
  bool two_seen = false;
  bool gave_up = false;  // only the first chunk waits; a serial region
                         // must fail fast, not 256 × timeout
  ParallelOptions options{4, 1};
  ThreadPool::Shared().ParallelFor(
      256, options, nullptr, [&](size_t, size_t, size_t) {
        std::unique_lock<std::mutex> lock(body_m);
        participants.insert(std::this_thread::get_id());
        if (participants.size() >= 2) {
          two_seen = true;
          body_cv.notify_all();
          return;
        }
        if (gave_up) return;
        // First thread in: give a second participant (a pool worker
        // claiming a slot) time to arrive before draining more chunks.
        if (!body_cv.wait_for(lock, std::chrono::seconds(10),
                              [&] { return two_seen; })) {
          gave_up = true;
        }
      });
  EXPECT_GE(participants.size(), 2u)
      << "region ran serially while idle workers existed";

  // Release the blockers and wait until each has left cv.wait: they run on
  // the shared pool and would otherwise still be touching this frame's
  // m/cv after the test returns.
  std::unique_lock<std::mutex> lock(m);
  release = true;
  cv.notify_all();
  cv.wait(lock, [&] { return exited == kBlockers; });
}

TEST(ThreadPoolTest, TasksMayReenterThePoolForRegions) {
  // A connection handler evaluating a query runs ParallelFor from inside
  // a pool task; that nesting must complete.
  std::atomic<size_t> total{0};
  std::atomic<bool> done{false};
  ThreadPool::Shared().Submit([&] {
    ParallelOptions options{4, 1};
    ThreadPool::Shared().ParallelFor(
        128, options, nullptr, [&](size_t, size_t begin, size_t end) {
          total.fetch_add(end - begin, std::memory_order_relaxed);
        });
    done.store(true, std::memory_order_release);
  });
  for (int spin = 0; spin < 30000 && !done.load(std::memory_order_acquire);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done.load());
  EXPECT_EQ(total.load(), 128u);
}

TEST(ParallelStatsTest, MergeSums) {
  ParallelStats a{3, 1, 2};
  const ParallelStats b{5, 0, 1};
  a.Merge(b);
  EXPECT_EQ(a.chunks_executed, 8u);
  EXPECT_EQ(a.steal_count, 1u);
  EXPECT_EQ(a.serial_fallbacks, 3u);
}

}  // namespace
}  // namespace pathalg
