// Race coverage for S-Node's demand loads against everything that can move
// underneath them: concurrent readers, cache eviction under a tiny budget,
// explicit buffer drops, two section fetches claiming overlapping graphs,
// and versioned-snapshot generation flips that tear down a repr while
// readers of the old generation are mid-walk. Runs under the concurrency
// ctest label so the TSan preset picks it up.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
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

// Tiny budget: reader threads sweep in clashing orders, assembling and
// evicting sections under each other, while the main thread keeps dropping
// the buffers. Every read must still be ground-truth correct and no pin
// may leak.
TEST(PrefetchRaceTest, DemandLoadsVsReadersEvictionAndClears) {
  WebGraph g = TestGraph();
  SNodeBuildOptions bopts;
  bopts.buffer_bytes = 32 * 1024;  // evict on nearly every section
  auto built = SNodeRepr::Build(g, TempPath("evict"), bopts);
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
        // Each thread sweeps at its own stride so cold misses land on
        // different sections.
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

// Two VisitLinksInto callers race over overlapping graph sets of one
// section. Each fetch claims what it can without blocking, reads and
// publishes, and only then waits for the graphs the other thread has in
// flight -- so neither waits while holding claims (a cycle would hang
// here), both answer exactly, and no pin outlives the calls.
TEST(PrefetchRaceTest, OverlappingSectionFetchesNeverWaitHoldingClaims) {
  WebGraph graph = TestGraph(20000);
  auto built = SNodeRepr::Build(graph, TempPath("visit_race"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  const SupernodeGraph& sg = repr->supernode_graph();

  // The section with the most outgoing superedges.
  uint32_t s = 0;
  for (uint32_t i = 1; i < sg.num_supernodes(); ++i) {
    if (sg.offsets[i + 1] - sg.offsets[i] > sg.offsets[s + 1] - sg.offsets[s]) {
      s = i;
    }
  }
  ASSERT_GE(sg.offsets[s + 1] - sg.offsets[s], 4u);
  auto pages_of = [&](uint32_t t, std::vector<PageId>* out) {
    for (PageId nid = sg.page_start[t]; nid < sg.page_start[t + 1]; ++nid) {
      out->push_back(repr->PageInNaturalOrder(nid));
    }
  };
  // Sources: the section's pages. Targets: A reaches s itself and its
  // first three superedge targets, B the second through fourth -- two
  // graph sets that share two superedge graphs.
  std::vector<PageId> sources, targets_a, targets_b;
  pages_of(s, &sources);
  pages_of(s, &targets_a);
  for (uint32_t k = 0; k < 4; ++k) {
    const uint32_t t = sg.targets[sg.offsets[s] + k];
    if (k < 3) pages_of(t, &targets_a);
    if (k > 0) pages_of(t, &targets_b);
  }
  std::sort(targets_a.begin(), targets_a.end());
  std::sort(targets_b.begin(), targets_b.end());

  auto visit = [&](const std::vector<PageId>& targets) {
    return repr->VisitLinksInto(
        sources, targets, [&](PageId p, const std::vector<PageId>& links) {
          std::vector<PageId> want;
          for (PageId q : graph.OutLinks(p)) {
            if (std::binary_search(targets.begin(), targets.end(), q)) {
              want.push_back(q);
            }
          }
          EXPECT_EQ(links, want) << p;
        });
  };
  for (int round = 0; round < 200; ++round) {
    repr->ClearCache();
    Status a_status, b_status;
    std::thread a([&] { a_status = visit(targets_a); });
    std::thread b([&] { b_status = visit(targets_b); });
    a.join();
    b.join();
    ASSERT_TRUE(a_status.ok()) << a_status.ToString();
    ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  }
  EXPECT_EQ(repr->PinnedCacheEntries(), 0u);
}

// Generation flips vs readers: compactions publish new generations while
// readers pin and sweep old ones under a tiny budget; dropping the last
// reference to a generation destroys its repr, which must happen only
// after its last reader lets go, with no use-after-free visible to
// TSan/ASan.
TEST(PrefetchRaceTest, DemandLoadsSurviveGenerationFlips) {
  WebGraph g = TestGraph(2000);
  version::SnapshotOptions sopts;
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
        // generation may be replaced while this cursor is mid-walk on the
        // old one, and is destroyed once the last pin drops. The
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
