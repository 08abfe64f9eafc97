#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "storage/btree.h"
#include "storage/file.h"
#include "storage/graph_store.h"
#include "storage/heap_file.h"
#include "storage/pager.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

class TempDir {
 public:
  TempDir() : path_(test::TempDirFor("storage")) {}
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// ---------- RandomAccessFile ----------

TEST(FileTest, WriteReadRoundTrip) {
  TempDir dir;
  auto file = RandomAccessFile::Open(dir.File("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Write(0, "hello world", 11).ok());
  char buf[6] = {};
  ASSERT_TRUE(file.value()->Read(6, 5, buf).ok());
  EXPECT_EQ(std::string(buf, 5), "world");
  EXPECT_EQ(file.value()->size(), 11u);
}

TEST(FileTest, AppendGrowsFile) {
  TempDir dir;
  auto file = RandomAccessFile::Open(dir.File("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("abc", 3).ok());
  ASSERT_TRUE(file.value()->Append("def", 3).ok());
  EXPECT_EQ(file.value()->size(), 6u);
  char buf[7] = {};
  ASSERT_TRUE(file.value()->Read(0, 6, buf).ok());
  EXPECT_EQ(std::string(buf, 6), "abcdef");
}

TEST(FileTest, ShortReadIsError) {
  TempDir dir;
  auto file = RandomAccessFile::Open(dir.File("f"));
  ASSERT_TRUE(file.ok());
  char buf[10];
  Status s = file.value()->Read(0, 10, buf);
  EXPECT_FALSE(s.ok());
}

// ---------- Pager ----------

TEST(PagerTest, AllocateFetchRoundTrip) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto page = pager.value()->Allocate();
  ASSERT_TRUE(page.ok());
  {
    auto h = pager.value()->Fetch(page.value());
    ASSERT_TRUE(h.ok());
    std::snprintf(h.value().data(), 32, "page-%u", page.value());
    h.value().MarkDirty();
  }
  ASSERT_TRUE(pager.value()->Flush().ok());
  auto h = pager.value()->Fetch(page.value());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(std::string(h.value().data()), "page-0");
}

TEST(PagerTest, EvictionWritesBackAndReloads) {
  TempDir dir;
  // Minimum pool (8 frames); allocate 50 pages to force eviction traffic.
  auto pager = Pager::Open(dir.File("db"), 0);
  ASSERT_TRUE(pager.ok());
  for (int i = 0; i < 50; ++i) {
    auto page = pager.value()->Allocate();
    ASSERT_TRUE(page.ok());
    auto h = pager.value()->Fetch(page.value());
    ASSERT_TRUE(h.ok());
    std::snprintf(h.value().data(), 32, "content-%d", i);
    h.value().MarkDirty();
  }
  for (int i = 0; i < 50; ++i) {
    auto h = pager.value()->Fetch(static_cast<PageNum>(i));
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(std::string(h.value().data()), "content-" + std::to_string(i));
  }
  EXPECT_GT(pager.value()->stats().evictions, 0u);
  EXPECT_GT(pager.value()->stats().misses, 0u);
}

TEST(PagerTest, FetchBeyondEndFails) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  EXPECT_FALSE(pager.value()->Fetch(3).ok());
}

TEST(PagerTest, HitsDoNotTouchDisk) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto page = pager.value()->Allocate();
  ASSERT_TRUE(page.ok());
  pager.value()->ResetStats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pager.value()->Fetch(page.value()).ok());
  }
  EXPECT_EQ(pager.value()->stats().hits, 10u);
  EXPECT_EQ(pager.value()->stats().misses, 0u);
}

TEST(PagerTest, ReadaheadChargesItsOwnCounterAndPrimesFetch) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  for (int i = 0; i < 16; ++i) {
    auto page = pager.value()->Allocate();
    ASSERT_TRUE(page.ok());
    auto h = pager.value()->Fetch(page.value());
    ASSERT_TRUE(h.ok());
    std::snprintf(h.value().data(), 32, "ra-%d", i);
    h.value().MarkDirty();
  }
  ASSERT_TRUE(pager.value()->Flush().ok());
  ASSERT_TRUE(pager.value()->DropUnpinned().ok());
  pager.value()->ResetStats();

  // Speculative loads land on readahead, not misses; the demand fetches
  // that follow are pure hits.
  ASSERT_TRUE(pager.value()->Readahead(0, 16).ok());
  EXPECT_EQ(pager.value()->stats().readahead, 16u);
  EXPECT_EQ(pager.value()->stats().misses, 0u);
  for (int i = 0; i < 16; ++i) {
    auto h = pager.value()->Fetch(static_cast<PageNum>(i));
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(std::string(h.value().data()), "ra-" + std::to_string(i));
  }
  EXPECT_EQ(pager.value()->stats().hits, 16u);
  EXPECT_EQ(pager.value()->stats().misses, 0u);

  // Already-resident pages are skipped (no double charge), and the window
  // is clipped at the file end rather than erroring.
  ASSERT_TRUE(pager.value()->Readahead(8, 1000).ok());
  EXPECT_EQ(pager.value()->stats().readahead, 16u);
}

TEST(PagerTest, ReadaheadKeepsHalfThePoolForDemandPaging) {
  TempDir dir;
  // Minimum pool: 8 frames. A 50-page readahead may only occupy 4.
  auto pager = Pager::Open(dir.File("db"), 0);
  ASSERT_TRUE(pager.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pager.value()->Allocate().ok());
  }
  ASSERT_TRUE(pager.value()->Flush().ok());
  ASSERT_TRUE(pager.value()->DropUnpinned().ok());
  pager.value()->ResetStats();
  ASSERT_TRUE(pager.value()->Readahead(0, 50).ok());
  EXPECT_EQ(pager.value()->stats().readahead, 4u);
}

// ---------- BTree ----------

TEST(BTreeTest, InsertGetSmall) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree.value()->Insert(42, 1000).ok());
  ASSERT_TRUE(tree.value()->Insert(7, 700).ok());
  uint64_t v;
  bool found;
  ASSERT_TRUE(tree.value()->Get(42, &v, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(v, 1000u);
  ASSERT_TRUE(tree.value()->Get(8, &v, &found).ok());
  EXPECT_FALSE(found);
}

TEST(BTreeTest, OverwriteExistingKey) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree.value()->Insert(5, 1).ok());
  ASSERT_TRUE(tree.value()->Insert(5, 2).ok());
  uint64_t v;
  bool found;
  ASSERT_TRUE(tree.value()->Get(5, &v, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(v, 2u);
}

TEST(BTreeTest, ManyKeysSplitAndRemainFindable) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 4 << 20);
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kN = 50000;
  // Insert in a scrambled order to exercise mid-leaf insertion.
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t key = (i * 2654435761u) % kN;
    ASSERT_TRUE(tree.value()->Insert(key, key * 3).ok());
  }
  auto height = tree.value()->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(height.value(), 2u);  // must have split
  for (uint64_t key = 0; key < kN; ++key) {
    uint64_t v;
    bool found;
    ASSERT_TRUE(tree.value()->Get(key, &v, &found).ok());
    ASSERT_TRUE(found) << key;
    ASSERT_EQ(v, key * 3) << key;
  }
}

TEST(BTreeTest, IteratorScansInOrder) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 4 << 20);
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  std::mt19937_64 gen(11);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = gen() % 1000000;
    model[key] = key + 1;
    ASSERT_TRUE(tree.value()->Insert(key, key + 1).ok());
  }
  auto it = tree.value()->Seek(0);
  ASSERT_TRUE(it.ok());
  auto mit = model.begin();
  while (it.value().Valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.value().key(), mit->first);
    EXPECT_EQ(it.value().value(), mit->second);
    it.value().Next();
    ++mit;
  }
  EXPECT_EQ(mit, model.end());
}

TEST(BTreeTest, SeekStartsAtLowerBound) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  for (uint64_t k : {10, 20, 30, 40}) {
    ASSERT_TRUE(tree.value()->Insert(k, k).ok());
  }
  auto it = tree.value()->Seek(25);
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it.value().Valid());
  EXPECT_EQ(it.value().key(), 30u);
  it.value().Next();
  EXPECT_EQ(it.value().key(), 40u);
  it.value().Next();
  EXPECT_FALSE(it.value().Valid());
}

TEST(BTreeTest, CompositeDomainKeyRangeScan) {
  // The relational baseline's domain index pattern: key = (domain<<32)|page.
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  for (uint64_t domain = 0; domain < 5; ++domain) {
    for (uint64_t page = 0; page < 100; ++page) {
      ASSERT_TRUE(
          tree.value()->Insert((domain << 32) | (page * 7 + domain), page).ok());
    }
  }
  uint64_t domain = 3;
  auto it = tree.value()->Seek(domain << 32);
  ASSERT_TRUE(it.ok());
  size_t count = 0;
  while (it.value().Valid() && (it.value().key() >> 32) == domain) {
    ++count;
    it.value().Next();
  }
  EXPECT_EQ(count, 100u);
}

TEST(BTreeTest, WorksWithTinyBufferPool) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 0);  // 8 frames
  ASSERT_TRUE(pager.ok());
  auto tree = BTree::Create(pager.value().get());
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.value()->Insert(i, i).ok());
  }
  for (uint64_t i = 0; i < kN; i += 997) {
    uint64_t v;
    bool found;
    ASSERT_TRUE(tree.value()->Get(i, &v, &found).ok());
    ASSERT_TRUE(found);
    ASSERT_EQ(v, i);
  }
  EXPECT_GT(pager.value()->stats().evictions, 0u);
}

// ---------- HeapFile ----------

TEST(HeapFileTest, AppendReadRoundTrip) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto heap = HeapFile::Create(pager.value().get());
  ASSERT_TRUE(heap.ok());
  auto r1 = heap.value()->Append("first row");
  ASSERT_TRUE(r1.ok());
  auto r2 = heap.value()->Append("second row");
  ASSERT_TRUE(r2.ok());
  std::string out;
  ASSERT_TRUE(heap.value()->Read(r1.value(), &out).ok());
  EXPECT_EQ(out, "first row");
  ASSERT_TRUE(heap.value()->Read(r2.value(), &out).ok());
  EXPECT_EQ(out, "second row");
}

TEST(HeapFileTest, EmptyRow) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto heap = HeapFile::Create(pager.value().get());
  ASSERT_TRUE(heap.ok());
  auto r = heap.value()->Append("");
  ASSERT_TRUE(r.ok());
  std::string out = "junk";
  ASSERT_TRUE(heap.value()->Read(r.value(), &out).ok());
  EXPECT_EQ(out, "");
}

TEST(HeapFileTest, LargeRowUsesOverflowChain) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto heap = HeapFile::Create(pager.value().get());
  ASSERT_TRUE(heap.ok());
  std::string big(3 * kPageSize + 123, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 251);
  auto r = heap.value()->Append(big);
  ASSERT_TRUE(r.ok());
  std::string out;
  ASSERT_TRUE(heap.value()->Read(r.value(), &out).ok());
  EXPECT_EQ(out, big);
}

TEST(HeapFileTest, ManyRowsAcrossPages) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto heap = HeapFile::Create(pager.value().get());
  ASSERT_TRUE(heap.ok());
  std::vector<RowId> rows;
  std::vector<std::string> payloads;
  std::mt19937_64 gen(3);
  for (int i = 0; i < 3000; ++i) {
    std::string payload(gen() % 200, static_cast<char>('a' + i % 26));
    auto r = heap.value()->Append(payload);
    ASSERT_TRUE(r.ok());
    rows.push_back(r.value());
    payloads.push_back(payload);
  }
  EXPECT_EQ(heap.value()->num_rows(), 3000u);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::string out;
    ASSERT_TRUE(heap.value()->Read(rows[i], &out).ok());
    ASSERT_EQ(out, payloads[i]) << i;
  }
}

TEST(HeapFileTest, BadRowIdIsError) {
  TempDir dir;
  auto pager = Pager::Open(dir.File("db"), 1 << 20);
  ASSERT_TRUE(pager.ok());
  auto heap = HeapFile::Create(pager.value().get());
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE(heap.value()->Append("x").ok());
  std::string out;
  EXPECT_FALSE(heap.value()->Read((0ull << 16) | 9, &out).ok());
}

// ---------- GraphStore ----------

// The graphs of one section, each `size` bytes of value `fill`.
std::vector<std::vector<uint8_t>> Graphs(std::vector<size_t> sizes,
                                         uint8_t fill) {
  std::vector<std::vector<uint8_t>> graphs;
  for (size_t size : sizes) graphs.emplace_back(size, fill++);
  return graphs;
}

// Reads section `s` back as its graphs' bytes.
std::vector<std::vector<uint8_t>> ReadBack(const GraphStore& store,
                                           uint32_t s) {
  std::vector<uint8_t> scratch;
  std::vector<GraphStore::GraphSpan> spans;
  Status read = store.ReadSection(s, &scratch, &spans);
  EXPECT_TRUE(read.ok()) << read.ToString();
  std::vector<std::vector<uint8_t>> graphs;
  for (const GraphStore::GraphSpan& span : spans) {
    graphs.emplace_back(span.data, span.data + span.length);
  }
  return graphs;
}

TEST(GraphStoreTest, AppendReadRoundTrip) {
  TempDir dir;
  GraphStore::Options opts;
  auto store = GraphStore::Create(dir.File("gs"), opts);
  ASSERT_TRUE(store.ok());
  std::vector<std::vector<uint8_t>> a = {{1, 2, 3}, {}, {4}};
  std::vector<std::vector<uint8_t>> b = {{9, 8, 7, 6}};
  auto sa = store.value()->AppendSection(a);
  auto sb = store.value()->AppendSection(b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa.value(), 0u);
  EXPECT_EQ(sb.value(), 1u);
  EXPECT_EQ(store.value()->num_graphs(), 4u);
  EXPECT_EQ(store.value()->section(0).num_graphs, 3u);
  EXPECT_EQ(store.value()->section(0).length, 4u);
  EXPECT_EQ(ReadBack(*store.value(), 0), a);
  EXPECT_EQ(ReadBack(*store.value(), 1), b);
}

TEST(GraphStoreTest, EmptyBlob) {
  TempDir dir;
  auto store = GraphStore::Create(dir.File("gs"), {});
  ASSERT_TRUE(store.ok());
  // A section of empty graphs has no bytes; it still reads back whole.
  std::vector<std::vector<uint8_t>> empty = {{}, {}};
  auto s = store.value()->AppendSection(empty);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(store.value()->section(s.value()).length, 0u);
  EXPECT_EQ(ReadBack(*store.value(), s.value()), empty);
}

// Sections never span two packs: one that would push a non-empty pack
// past max_file_size starts the next pack.
TEST(GraphStoreTest, RollsOverAtMaxFileSize) {
  TempDir dir;
  GraphStore::Options opts;
  opts.max_file_size = 1000;
  auto store = GraphStore::Create(dir.File("gs"), opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.value()
                    ->AppendSection(Graphs({100, 200}, static_cast<uint8_t>(i)))
                    .ok());
  }
  EXPECT_EQ(store.value()->num_files(), 7u);  // three sections per pack
  for (uint32_t s = 0; s < 20; ++s) {
    const GraphStore::Section& section = store.value()->section(s);
    EXPECT_EQ(section.file_index, s / 3);
    EXPECT_EQ(section.offset, (s % 3) * 300u);
    EXPECT_EQ(ReadBack(*store.value(), s),
              Graphs({100, 200}, static_cast<uint8_t>(s)));
  }
}

// A section larger than max_file_size gets a pack of its own, whole.
TEST(GraphStoreTest, OversizedBlobStillStoredWhole) {
  TempDir dir;
  GraphStore::Options opts;
  opts.max_file_size = 100;
  auto store = GraphStore::Create(dir.File("gs"), opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->AppendSection(Graphs({10}, 1)).ok());
  ASSERT_TRUE(store.value()->AppendSection(Graphs({300, 200}, 2)).ok());
  ASSERT_TRUE(store.value()->AppendSection(Graphs({10}, 3)).ok());
  ASSERT_EQ(store.value()->num_files(), 3u);
  EXPECT_EQ(store.value()->section(1).file_index, 1u);
  EXPECT_EQ(store.value()->section(1).offset, 0u);
  EXPECT_EQ(store.value()->section(2).file_index, 2u);
  EXPECT_EQ(ReadBack(*store.value(), 1), Graphs({300, 200}, 2));
}

TEST(GraphStoreTest, OutOfRangeIdIsError) {
  TempDir dir;
  auto store = GraphStore::Create(dir.File("gs"), {});
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> scratch;
  std::vector<GraphStore::GraphSpan> graphs;
  EXPECT_EQ(store.value()->ReadSection(0, &scratch, &graphs).code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace wg
