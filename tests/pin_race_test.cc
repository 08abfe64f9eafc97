// Concurrency test for pinned LinkViews vs cache eviction (runs under
// the `concurrency` ctest label, i.e. the TSan preset): many threads
// stream an S-Node store through private cursors with a cache budget so
// small that the assembled blocks behind their pinned views are evicted
// constantly, while another thread churns the cache and periodically
// drops every entry. Pins must keep every held view's bytes valid (no
// use-after-free), and once all views and cursors are gone the cache
// must report zero pinned entries and the gauge must read zero.

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
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

TEST(PinRaceTest, PinnedViewsSurviveConcurrentEviction) {
  GeneratorOptions opts;
  opts.num_pages = 2000;
  opts.seed = 11;
  WebGraph graph = GenerateWebGraph(opts);

  auto built = SNodeRepr::Build(graph, TempPath("race"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  repr->set_buffer_budget(8 * 1024);  // evict on nearly every load

  std::vector<PageId> order(repr->num_pages());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = repr->PageInNaturalOrder(i);
  }

  constexpr int kReaders = 4;
  constexpr int kRounds = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Readers: stream in natural order (maximizing pinned views), hold a
  // rolling window of live views, and re-check each held view against
  // ground truth *after* later loads have had every chance to evict the
  // entry behind it.
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        auto cursor = repr->NewCursor();
        std::vector<std::pair<PageId, LinkView>> window;
        LinkView view;
        // Stagger starting offsets so threads collide on different keys.
        for (size_t i = t * 37; i < order.size(); ++i) {
          PageId p = order[i];
          if (!cursor->Links(p, &view).ok()) {
            failures.fetch_add(1);
            return;
          }
          if (view.pinned()) window.emplace_back(p, view);
          if (window.size() >= 64) {
            for (const auto& [held_page, held] : window) {
              auto expected = graph.OutLinks(held_page);
              if (held.size() != expected.size() ||
                  !std::equal(held.begin(), held.end(), expected.begin())) {
                failures.fetch_add(1);
                return;
              }
            }
            window.clear();
          }
        }
      }
    });
  }

  // Churn thread: random-ish probes plus full cache drops, racing the
  // readers' pins.
  std::thread churn([&] {
    auto cursor = repr->NewCursor();
    LinkView view;
    uint64_t x = 12345;
    while (!stop.load(std::memory_order_relaxed)) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      PageId p = static_cast<PageId>((x >> 33) % repr->num_pages());
      if (!cursor->Links(p, &view).ok()) {
        failures.fetch_add(1);
        return;
      }
      if ((x & 0x3ff) == 0) repr->ClearBuffers();
    }
  });

  for (auto& th : readers) th.join();
  stop.store(true);
  churn.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(repr->PinnedCacheEntries(), 0u);
  EXPECT_EQ(repr->stats().views_pinned.value(), 0.0);
}

// Lone probes, repeat-probe admission, streak assembly and eviction racing
// on a few sections through a 64 KiB cache: four threads mix fresh-cursor
// probes with short streaks over the largest sections, whose assembled
// blocks overflow the cache. Every answer must match the graph, and no pin
// may outlive its view.
TEST(PinRaceTest, ScratchProbesRaceAdmissionAndEviction) {
  GeneratorOptions opts;
  opts.num_pages = 4000;
  opts.seed = 12;
  WebGraph graph = GenerateWebGraph(opts);
  SNodeBuildOptions bopts;
  bopts.buffer_bytes = 64 << 10;
  auto built = SNodeRepr::Build(graph, TempPath("probe_race"), bopts);
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  const SupernodeGraph& sg = repr->supernode_graph();

  // Sections by assembled size, largest first, until their blocks hold
  // twice the budget.
  auto block_bytes = [&](uint32_t s) {
    size_t bytes = 4 * (sg.page_start[s + 1] - sg.page_start[s] + 1);
    for (PageId nid = sg.page_start[s]; nid < sg.page_start[s + 1]; ++nid) {
      bytes += 4 * graph.out_degree(repr->PageInNaturalOrder(nid));
    }
    return bytes;
  };
  std::vector<uint32_t> sections(sg.num_supernodes());
  for (uint32_t s = 0; s < sections.size(); ++s) sections[s] = s;
  std::sort(sections.begin(), sections.end(), [&](uint32_t a, uint32_t b) {
    return block_bytes(a) > block_bytes(b);
  });
  size_t total = 0;
  size_t chosen = 0;
  while (chosen < sections.size() && (chosen < 4 || total < 2 * (64 << 10))) {
    total += block_bytes(sections[chosen++]);
  }
  sections.resize(chosen);

  constexpr int kThreads = 4;
  constexpr int kIterations = 150;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = 977 + t;
      auto next = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 33;
      };
      for (int i = 0; i < kIterations; ++i) {
        uint32_t s = sections[next() % sections.size()];
        uint32_t pages = sg.page_start[s + 1] - sg.page_start[s];
        // One probe (a lone probe), or two or three consecutive pages of
        // the section (a streak), through a fresh cursor.
        int reads = 1 + static_cast<int>(next() % 3);
        uint32_t local = static_cast<uint32_t>(next() % pages);
        auto cursor = repr->NewCursor();
        for (int r = 0; r < reads; ++r) {
          PageId p =
              repr->PageInNaturalOrder(sg.page_start[s] + (local + r) % pages);
          LinkView view;
          if (!cursor->Links(p, &view).ok()) {
            failures.fetch_add(1);
            return;
          }
          auto expected = graph.OutLinks(p);
          if (!std::equal(view.begin(), view.end(), expected.begin(),
                          expected.end())) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(repr->cold_stats().assembles, 0u);
  EXPECT_EQ(repr->PinnedCacheEntries(), 0u);
  EXPECT_EQ(repr->stats().views_pinned.value(), 0.0);
}

}  // namespace
}  // namespace wg
