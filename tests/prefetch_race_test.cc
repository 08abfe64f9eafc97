// Race coverage for the locality decode-ahead executor (snode/prefetch.h)
// against everything that can move underneath it: concurrent readers,
// cache eviction under a tiny budget, explicit buffer drops, and
// versioned-snapshot generation flips that tear down a repr (and its
// executor) while prefetches may still be queued. Runs under the
// concurrency ctest label so the TSan preset picks it up. Decode-ahead is
// best-effort by contract, so these tests assert reader-visible
// correctness and clean shutdown, never executor progress.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/prefetch.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "version/snapshot.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

WebGraph TestGraph(size_t pages = 3000) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 11;
  return GenerateWebGraph(opts);
}

// Raw executor: hammer Submit from several threads while the worker runs,
// then Stop with work still queued. The executor must coalesce duplicates,
// drop overflow, and never invoke `work` twice concurrently.
TEST(PrefetchRaceTest, SubmitStormAndStopWithQueuedWork) {
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::atomic<uint64_t> invocations{0};
  auto executor = std::make_unique<PrefetchExecutor>(
      [&](uint32_t) {
        int now = ++running;
        int seen = max_running.load();
        while (now > seen && !max_running.compare_exchange_weak(seen, now)) {
        }
        ++invocations;
        --running;
      },
      /*queue_capacity=*/8);

  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (uint32_t i = 0; i < 500; ++i) {
        executor->Submit((t * 131 + i) % 64);  // plenty of duplicates
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  executor->Drain();
  PrefetchExecutor::Stats drained = executor->stats();
  EXPECT_EQ(drained.submitted, drained.completed);
  EXPECT_EQ(drained.submitted + drained.dropped, 4u * 500u);
  EXPECT_EQ(max_running.load(), 1) << "work ran concurrently";

  // Refill and stop with the queue non-empty: Stop must abandon cleanly.
  for (uint32_t i = 0; i < 64; ++i) executor->Submit(i);
  executor->Stop();
  EXPECT_LE(executor->stats().completed, executor->stats().submitted);
  EXPECT_EQ(invocations.load(), executor->stats().completed);
}

// Decode-ahead on, tiny budget: the background worker decodes
// sections into the cache while reader threads sweep in clashing orders
// and the main thread keeps dropping the buffers. Every read must still
// be ground-truth correct and no pin may leak.
TEST(PrefetchRaceTest, DecodeAheadVsReadersEvictionAndClears) {
  WebGraph g = TestGraph();
  SNodeBuildOptions bopts;
  bopts.decode_ahead_sections = 4;
  bopts.buffer_bytes = 32 * 1024;  // evict on nearly every section
  auto built = SNodeRepr::Build(g, TempPath("da"), bopts);
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();

  constexpr int kReaders = 4;
  constexpr int kLaps = 3;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      LinkView view;
      for (int lap = 0; lap < kLaps && !failed.load(); ++lap) {
        auto cursor = repr->NewCursor();
        // Each thread sweeps at its own stride so cold misses (and the
        // decode-aheads they trigger) land on different sections.
        for (size_t i = 0; i < g.num_pages(); ++i) {
          PageId p = static_cast<PageId>((i * (t + 1) * 7 + t) %
                                         g.num_pages());
          if (!cursor->Links(p, &view).ok()) {
            failed.store(true);
            break;
          }
          auto expected = g.OutLinks(p);
          if (view.size() != expected.size() ||
              !std::equal(view.begin(), view.end(), expected.begin())) {
            failed.store(true);
            break;
          }
        }
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    repr->ClearBuffers();
  }
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(repr->PinnedCacheEntries(), 0u);
}

// Generation flips vs decode-ahead: compactions publish new generations
// (new repr, new executor) while readers hold and query old ones; dropping
// the last reference to a generation destroys its repr mid-prefetch. The
// destructor must stop the executor before the state it decodes from
// dies, with no use-after-free visible to TSan/ASan.
TEST(PrefetchRaceTest, DecodeAheadSurvivesGenerationFlips) {
  WebGraph g = TestGraph(2000);
  version::SnapshotOptions sopts;
  sopts.build.decode_ahead_sections = 4;
  sopts.build.buffer_bytes = 32 * 1024;
  auto created =
      version::SnapshotManager::Create(TempPath("flip"), g, sopts);
  ASSERT_TRUE(created.ok());
  version::SnapshotManager* manager = created.value().get();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        // Pin whatever generation is live and sweep a slice of it; the
        // generation (and its decode-ahead executor) may be replaced and
        // destroyed while this cursor is mid-walk on the old one. The
        // view and cursor are scoped inside the pin on purpose: views
        // must drain before their generation is released (section 10/11
        // contract), exactly as QueryService drains per-request.
        version::GenerationPtr gen = manager->current();
        LinkView view;
        auto cursor = gen->repr->NewCursor();
        uint64_t edges = 0;
        for (size_t i = t; i < gen->repr->num_pages(); i += 3) {
          PageId p = gen->repr->PageInNaturalOrder(i);
          if (!cursor->Links(p, &view).ok()) {
            failed.store(true);
            return;
          }
          edges += view.size();
        }
        (void)edges;
      }
    });
  }

  // Flip generations under the readers: each compaction folds one new
  // link and republishes.
  for (int flip = 0; flip < 4; ++flip) {
    PageId from = static_cast<PageId>(100 + flip);
    std::vector<version::DeltaRecord> batch = {
        version::DeltaRecord::AddLink(from, static_cast<PageId>(flip))};
    ASSERT_TRUE(manager->AppendDeltas(batch).ok());
    auto next = manager->Compact();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.value()->manifest.generation,
              static_cast<uint64_t>(flip + 1));
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(manager->current()->manifest.generation, 4u);
}

}  // namespace
}  // namespace wg
