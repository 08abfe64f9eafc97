// Randomized stress tests for the storage substrate: the B+tree against a
// std::map model under several buffer-pool sizes, heap rows at page-
// boundary payload sizes, the graph store's range reads, and cold-buffer
// behaviour of the pager.

#include <functional>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "storage/btree.h"
#include "storage/graph_store.h"
#include "storage/heap_file.h"
#include "storage/pager.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

// ---------- B+tree vs std::map model, parameterized by pool budget ----

class BTreeModelTest : public testing::TestWithParam<size_t> {};

TEST_P(BTreeModelTest, RandomOpsMatchModel) {
  auto pager = Pager::Open(TempPath("bt"), GetParam());
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  std::map<uint64_t, uint64_t> model;
  std::mt19937_64 gen(42 + GetParam());
  for (int op = 0; op < 30000; ++op) {
    uint64_t key = gen() % 5000;
    int action = static_cast<int>(gen() % 3);
    if (action <= 1) {
      uint64_t value = gen();
      model[key] = value;
      ASSERT_TRUE(tree.value()->Insert(key, value).ok());
    } else {
      uint64_t value = 0;
      bool found = false;
      ASSERT_TRUE(tree.value()->Get(key, &value, &found).ok());
      auto it = model.find(key);
      ASSERT_EQ(found, it != model.end()) << key;
      if (found) {
        ASSERT_EQ(value, it->second) << key;
      }
    }
  }
  // Full ordered scan equals the model.
  auto it = tree.value()->Seek(0);
  ASSERT_TRUE(it.ok());
  auto mit = model.begin();
  while (it.value().Valid()) {
    ASSERT_NE(mit, model.end());
    ASSERT_EQ(it.value().key(), mit->first);
    ASSERT_EQ(it.value().value(), mit->second);
    it.value().Next();
    ++mit;
  }
  ASSERT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BTreeModelTest,
                         testing::Values(0 /*min 8 frames*/, 1 << 17,
                                         4 << 20));

TEST(BTreeModelTest, AscendingAndDescendingBulkLoads) {
  for (bool ascending : {true, false}) {
    auto pager = Pager::Open(TempPath("bulk"), 4 << 20);
    ASSERT_TRUE(pager.ok());
    auto tree = BTree::Create(pager.value().get());
    ASSERT_TRUE(tree.ok());
    constexpr uint64_t kN = 30000;
    for (uint64_t i = 0; i < kN; ++i) {
      uint64_t key = ascending ? i : kN - 1 - i;
      ASSERT_TRUE(tree.value()->Insert(key, key * 2).ok());
    }
    EXPECT_EQ(tree.value()->num_entries(), kN);
    auto it = tree.value()->Seek(0);
    ASSERT_TRUE(it.ok());
    uint64_t expect = 0;
    while (it.value().Valid()) {
      ASSERT_EQ(it.value().key(), expect);
      ++expect;
      it.value().Next();
    }
    EXPECT_EQ(expect, kN);
  }
}

TEST(BTreeModelTest, ExtremeKeysRoundTrip) {
  auto pager = Pager::Open(TempPath("ext"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  const uint64_t keys[] = {0, 1, UINT64_MAX, UINT64_MAX - 1,
                           0x8000000000000000ull};
  for (uint64_t k : keys) ASSERT_TRUE(tree.value()->Insert(k, ~k).ok());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    bool found = false;
    ASSERT_TRUE(tree.value()->Get(k, &v, &found).ok());
    ASSERT_TRUE(found) << k;
    ASSERT_EQ(v, ~k);
  }
}

// ---------- Heap file payload-size boundary sweep ----------

class HeapBoundaryTest : public testing::TestWithParam<int> {};

TEST_P(HeapBoundaryTest, PayloadSizesAroundPageBoundary) {
  auto pager = Pager::Open(TempPath("heapb"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto heap = HeapFile::Create(pager.value().get());
  ASSERT_TRUE(heap.ok());
  size_t base = static_cast<size_t>(GetParam());
  std::vector<std::pair<RowId, std::string>> rows;
  for (int delta = -3; delta <= 3; ++delta) {
    size_t size = base + delta;
    std::string payload(size, 'x');
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>('a' + (i * 7 + delta) % 26);
    }
    auto rid = heap.value()->Append(payload);
    ASSERT_TRUE(rid.ok()) << size;
    rows.emplace_back(rid.value(), payload);
  }
  for (const auto& [rid, payload] : rows) {
    std::string out;
    ASSERT_TRUE(heap.value()->Read(rid, &out).ok());
    ASSERT_EQ(out, payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, HeapBoundaryTest,
                         testing::Values(3, 100, 8192 - 80, 8192, 8192 + 80,
                                         2 * 8192, 5 * 8192 + 11));

// ---------- Graph store section reads ----------

// Random sections over several packs: every section read hands back
// exactly the graphs appended, and a reopened store (OpenFiles over the
// same directory) reads the same bytes.
TEST(GraphStoreRangeTest, RangeEqualsIndividualReads) {
  GraphStore::Options opts;
  opts.max_file_size = 700;  // force several files
  const std::string base = TempPath("gsr");
  auto store = GraphStore::Create(base, opts);
  ASSERT_TRUE(store.ok());
  std::mt19937_64 gen(5);
  std::vector<std::vector<std::vector<uint8_t>>> sections;
  for (int i = 0; i < 30; ++i) {
    std::vector<std::vector<uint8_t>> graphs(1 + gen() % 4);
    for (auto& graph : graphs) {
      graph.resize(gen() % 150);
      for (auto& b : graph) b = static_cast<uint8_t>(gen());
    }
    ASSERT_TRUE(store.value()->AppendSection(graphs).ok());
    sections.push_back(std::move(graphs));
  }
  ASSERT_GT(store.value()->num_files(), 1u);
  std::vector<std::string> paths;
  for (uint32_t f = 0; f < store.value()->num_files(); ++f) {
    paths.push_back(store.value()->FilePath(f));
  }
  auto reopened = GraphStore::OpenFiles(paths, store.value()->directory());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const GraphStore* s : {store.value().get(), reopened.value().get()}) {
    std::vector<uint8_t> scratch;
    std::vector<GraphStore::GraphSpan> spans;
    for (uint32_t i = 0; i < sections.size(); ++i) {
      ASSERT_TRUE(s->ReadSection(i, &scratch, &spans).ok());
      ASSERT_EQ(spans.size(), sections[i].size());
      for (size_t k = 0; k < spans.size(); ++k) {
        ASSERT_EQ(std::vector<uint8_t>(spans[k].data,
                                       spans[k].data + spans[k].length),
                  sections[i][k])
            << i << "/" << k;
      }
    }
  }
}

// A directory that does not fit its files is rejected at attach.
TEST(GraphStoreRangeTest, BadRangeRejected) {
  const std::string base = TempPath("gsr2");
  auto store = GraphStore::Create(base, {});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->AppendSection({{1, 2, 3}, {4}}).ok());
  const std::vector<std::string> paths = {store.value()->FilePath(0)};
  auto open = [&](const std::function<void(GraphStore::Directory*)>& edit) {
    GraphStore::Directory directory = store.value()->directory();
    edit(&directory);
    return GraphStore::OpenFiles(paths, std::move(directory)).status();
  };
  EXPECT_TRUE(open([](GraphStore::Directory*) {}).ok());
  for (const auto& edit :
       std::vector<std::function<void(GraphStore::Directory*)>>{
           [](GraphStore::Directory* d) { d->sections[0].file_index = 1; },
           [](GraphStore::Directory* d) { d->sections[0].offset = 1; },
           [](GraphStore::Directory* d) { ++d->sections[0].length; },
           [](GraphStore::Directory* d) { ++d->graph_lengths[0]; },
           [](GraphStore::Directory* d) { ++d->sections[0].num_graphs; },
           [](GraphStore::Directory* d) { d->graph_lengths.push_back(0); },
       }) {
    EXPECT_EQ(open(edit).code(), StatusCode::kCorruption);
  }
}

// ---------- Pager cold-buffer behaviour ----------

TEST(PagerColdTest, DropUnpinnedKeepsDataIntact) {
  auto pager = Pager::Open(TempPath("cold"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  std::vector<PageNum> pages;
  for (int i = 0; i < 40; ++i) {
    auto page = pager.value()->Allocate();
    ASSERT_TRUE(page.ok());
    auto h = pager.value()->Fetch(page.value());
    ASSERT_TRUE(h.ok());
    std::snprintf(h.value().data(), 32, "v%d", i);
    h.value().MarkDirty();
    pages.push_back(page.value());
  }
  ASSERT_TRUE(pager.value()->DropUnpinned().ok());
  // Every subsequent fetch must be a miss that reads correct data back.
  pager.value()->ResetStats();
  for (int i = 0; i < 40; ++i) {
    auto h = pager.value()->Fetch(pages[i]);
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(std::string(h.value().data()), "v" + std::to_string(i));
  }
  EXPECT_EQ(pager.value()->stats().misses, 40u);
  EXPECT_EQ(pager.value()->stats().hits, 0u);
}

TEST(PagerColdTest, DropUnpinnedSkipsPinnedFrames) {
  auto pager = Pager::Open(TempPath("cold2"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto page = pager.value()->Allocate();
  ASSERT_TRUE(page.ok());
  auto pinned = pager.value()->Fetch(page.value());
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pager.value()->DropUnpinned().ok());
  // The pinned page must still be resident: fetching again is a hit.
  pager.value()->ResetStats();
  ASSERT_TRUE(pager.value()->Fetch(page.value()).ok());
  EXPECT_EQ(pager.value()->stats().hits, 1u);
}

}  // namespace
}  // namespace wg
