// PagerStats counters are read by monitoring threads (metric dumps,
// test snapshots) while the pager's single structural thread loads pages.
// The counters are registry-backed relaxed atomics, so this must be free
// of data races; the test carries the `concurrency` ctest label (pager_*
// name) and is the TSan witness for that claim.

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/pager.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

std::string TempPagerPath() { return test::TempPath("pager_race") + ".db"; }

TEST(PagerRaceTest, StatsReadableWhilePagerWorks) {
  std::string path = TempPagerPath();
  RemoveFileIfExists(path);
  // Tiny budget so fetches miss and evict constantly.
  auto pager = Pager::Open(path, 8 * kPageSize);
  ASSERT_TRUE(pager.ok());
  Pager* p = pager.value().get();

  constexpr size_t kPages = 64;
  for (size_t i = 0; i < kPages; ++i) {
    auto page = p->Allocate();
    ASSERT_TRUE(page.ok());
  }
  // Allocation pins pages and pollutes the counters; reset so the final
  // tally below is exact. Reset is whole-struct assignment and must keep
  // the registry binding (obs::Counter's value-copy semantics).
  p->ResetStats();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> observed_max{0};
  // Monitoring threads: hammer the stats snapshot while the structural
  // thread below fetches pages. Counter reads are relaxed atomic loads;
  // monotonicity of each individual counter is all we can assert.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const PagerStats& stats = p->stats();
        uint64_t lookups = stats.hits + stats.misses;
        EXPECT_GE(lookups, last);
        last = lookups;
        uint64_t seen = observed_max.load(std::memory_order_relaxed);
        while (lookups > seen &&
               !observed_max.compare_exchange_weak(
                   seen, lookups, std::memory_order_relaxed)) {
        }
      }
    });
  }

  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kPages; ++i) {
      auto handle = p->Fetch(static_cast<PageNum>(i));
      ASSERT_TRUE(handle.ok());
      if (round == 0) {
        std::memset(handle.value().data(), round & 0xff, 16);
        handle.value().MarkDirty();
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  const PagerStats& stats = p->stats();
  EXPECT_EQ(static_cast<uint64_t>(kRounds) * kPages,
            stats.hits + stats.misses);
  EXPECT_GT(static_cast<uint64_t>(stats.misses), 0u);
  EXPECT_LE(observed_max.load(), stats.hits + stats.misses);
  RemoveFileIfExists(path);
}

}  // namespace
}  // namespace wg
