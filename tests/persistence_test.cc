#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "graph/graph_io.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "storage/serial.h"
#include "util/coding.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

// ---------- Framed files ----------

TEST(FramedFileTest, RoundTrip) {
  const char magic[4] = {'T', 'S', 'T', '1'};
  std::string path = TempPath("framed");
  std::string payload = "some payload bytes \x01\x02\x03";
  ASSERT_TRUE(WriteFramedFile(path, magic, payload).ok());
  auto loaded = ReadFramedFile(path, magic);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), payload);
}

TEST(FramedFileTest, EmptyPayload) {
  const char magic[4] = {'T', 'S', 'T', '1'};
  std::string path = TempPath("framed_empty");
  ASSERT_TRUE(WriteFramedFile(path, magic, "").ok());
  auto loaded = ReadFramedFile(path, magic);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(FramedFileTest, WrongMagicRejected) {
  const char magic[4] = {'T', 'S', 'T', '1'};
  const char other[4] = {'T', 'S', 'T', '2'};
  std::string path = TempPath("framed_magic");
  ASSERT_TRUE(WriteFramedFile(path, magic, "abc").ok());
  EXPECT_FALSE(ReadFramedFile(path, other).ok());
}

TEST(FramedFileTest, CorruptionRejected) {
  const char magic[4] = {'T', 'S', 'T', '1'};
  std::string path = TempPath("framed_corrupt");
  ASSERT_TRUE(WriteFramedFile(path, magic, "hello framed world").ok());
  // Flip one payload byte in place.
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  char byte;
  ASSERT_TRUE(file.value()->Read(14, 1, &byte).ok());
  byte ^= 0x40;
  ASSERT_TRUE(file.value()->Write(14, &byte, 1).ok());
  EXPECT_FALSE(ReadFramedFile(path, magic).ok());
}

TEST(FramedFileTest, TruncationRejected) {
  const char magic[4] = {'T', 'S', 'T', '1'};
  std::string path = TempPath("framed_trunc");
  ASSERT_TRUE(WriteFramedFile(path, magic, "hello framed world").ok());
  ASSERT_EQ(truncate(path.c_str(), 20), 0);
  EXPECT_FALSE(ReadFramedFile(path, magic).ok());
}

// ---------- WebGraph save/load ----------

TEST(GraphIoTest, RoundTripPreservesEverything) {
  GeneratorOptions opts;
  opts.num_pages = 3000;
  opts.seed = 5;
  WebGraph graph = GenerateWebGraph(opts);
  std::string path = TempPath("graph");
  ASSERT_TRUE(SaveWebGraph(graph, path).ok());
  auto loaded = LoadWebGraph(path);
  ASSERT_TRUE(loaded.ok());
  const WebGraph& g = loaded.value();
  ASSERT_EQ(g.num_pages(), graph.num_pages());
  ASSERT_EQ(g.num_edges(), graph.num_edges());
  ASSERT_EQ(g.num_hosts(), graph.num_hosts());
  ASSERT_EQ(g.num_domains(), graph.num_domains());
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    ASSERT_EQ(g.url(p), graph.url(p)) << p;
    ASSERT_EQ(g.host_id(p), graph.host_id(p)) << p;
    ASSERT_EQ(g.domain_id(p), graph.domain_id(p)) << p;
    auto a = graph.OutLinks(p);
    auto b = g.OutLinks(p);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << p;
  }
  for (uint32_t h = 0; h < graph.num_hosts(); ++h) {
    ASSERT_EQ(g.host_name(h), graph.host_name(h));
    ASSERT_EQ(g.host_domain(h), graph.host_domain(h));
  }
}

TEST(GraphIoTest, EmptyGraphRoundTrips) {
  GraphBuilder b;
  WebGraph graph = b.Build();
  std::string path = TempPath("graph_empty");
  ASSERT_TRUE(SaveWebGraph(graph, path).ok());
  auto loaded = LoadWebGraph(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_pages(), 0u);
}

TEST(GraphIoTest, MissingFileIsError) {
  EXPECT_FALSE(LoadWebGraph(TempPath("nonexistent") + "/nope").ok());
}

TEST(GraphIoTest, GarbageFileIsError) {
  std::string path = TempPath("garbage");
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("this is not a graph file at all", 31).ok());
  EXPECT_FALSE(LoadWebGraph(path).ok());
}

// ---------- S-Node persistence ----------

// ---------- Untrusted lengths and counts ----------

// A string length near 2^64 must not wrap the cursor's bounds check: the
// read fails softly instead of asking std::string for 2^64 bytes.
TEST(SerialCursorTest, HugeStringLengthFailsSoftly) {
  std::string payload;
  PutVarint64(&payload, 1);
  PutVarint64(&payload, UINT64_MAX - 9);
  payload += "abc";
  SerialCursor cursor(payload);
  uint64_t one = 0;
  ASSERT_TRUE(cursor.ReadVarint64(&one));
  std::string s;
  EXPECT_FALSE(cursor.ReadString(&s));
}

TEST(SerialCursorTest, CountPastTheBytesLeftFails) {
  std::string payload;
  PutVarint64(&payload, 3);
  payload += "abc";
  SerialCursor fits(payload);
  uint64_t n = 0;
  EXPECT_TRUE(fits.ReadCount(&n));
  EXPECT_EQ(n, 3u);
  payload.pop_back();
  SerialCursor short_by_one(payload);
  EXPECT_FALSE(short_by_one.ReadCount(&n));
}

class SNodePersistenceTest : public testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions opts;
    opts.num_pages = 4000;
    opts.seed = 77;
    graph_ = GenerateWebGraph(opts);
    base_path_ = TempPath("snode_store");
    auto built = SNodeRepr::Build(graph_, base_path_, {});
    ASSERT_TRUE(built.ok());
    built_ = std::move(built).value();
  }

  WebGraph graph_;
  std::string base_path_;
  std::unique_ptr<SNodeRepr> built_;
};

TEST_F(SNodePersistenceTest, SaveOpenRoundTripServesIdenticalAdjacency) {
  ASSERT_TRUE(built_->SaveMeta().ok());
  auto opened = SNodeRepr::Open(base_path_, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened.value()->num_pages(), graph_.num_pages());
  ASSERT_EQ(opened.value()->num_edges(), graph_.num_edges());
  std::vector<PageId> links;
  for (PageId p = 0; p < graph_.num_pages(); ++p) {
    links.clear();
    ASSERT_TRUE(opened.value()->GetLinks(p, &links).ok()) << p;
    auto expected = graph_.OutLinks(p);
    ASSERT_EQ(links.size(), expected.size()) << p;
    ASSERT_TRUE(
        std::equal(links.begin(), links.end(), expected.begin())) << p;
  }
}

TEST_F(SNodePersistenceTest, OpenPreservesSupernodeStructure) {
  ASSERT_TRUE(built_->SaveMeta().ok());
  auto opened = SNodeRepr::Open(base_path_, {});
  ASSERT_TRUE(opened.ok());
  const auto& a = built_->supernode_graph();
  const auto& b = opened.value()->supernode_graph();
  EXPECT_EQ(a.num_supernodes(), b.num_supernodes());
  EXPECT_EQ(a.num_superedges(), b.num_superedges());
  EXPECT_EQ(a.page_start, b.page_start);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(built_->encoded_bits(), opened.value()->encoded_bits());
}

TEST_F(SNodePersistenceTest, OpenedDomainIndexWorks) {
  ASSERT_TRUE(built_->SaveMeta().ok());
  auto opened = SNodeRepr::Open(base_path_, {});
  ASSERT_TRUE(opened.ok());
  std::vector<PageId> from_built, from_opened;
  ASSERT_TRUE(built_->PagesInDomain("stanford.edu", &from_built).ok());
  ASSERT_TRUE(
      opened.value()->PagesInDomain("stanford.edu", &from_opened).ok());
  EXPECT_EQ(from_built, from_opened);
}

TEST_F(SNodePersistenceTest, OpenWithoutMetaFails) {
  EXPECT_FALSE(SNodeRepr::Open(base_path_ + "_missing", {}).ok());
}

TEST_F(SNodePersistenceTest, CorruptMetaRejected) {
  ASSERT_TRUE(built_->SaveMeta().ok());
  auto file = RandomAccessFile::Open(base_path_ + ".meta");
  ASSERT_TRUE(file.ok());
  char byte;
  ASSERT_TRUE(file.value()->Read(100, 1, &byte).ok());
  byte ^= 0xff;
  ASSERT_TRUE(file.value()->Write(100, &byte, 1).ok());
  EXPECT_FALSE(SNodeRepr::Open(base_path_, {}).ok());
}

// A store saved in the previous format (SNM4 .meta: a file, offset,
// length and CRC per blob in the directory) must not open: its payload
// parses differently.
TEST_F(SNodePersistenceTest, PreviousFormatMagicRejected) {
  ASSERT_TRUE(built_->SaveMeta().ok());
  auto file = RandomAccessFile::Open(base_path_ + ".meta");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Write(0, "SNM4", 4).ok());
  auto opened = SNodeRepr::Open(base_path_, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().ToString().find("bad magic"), std::string::npos)
      << opened.status().ToString();
}

// A `.meta` whose frame checks out but whose page count is 2^62 fails
// the attach with Corruption before anything is sized by the count.
TEST_F(SNodePersistenceTest, HugeCountInMetaIsCorruption) {
  ASSERT_TRUE(built_->SaveMeta().ok());
  const char magic[4] = {'S', 'N', 'M', '5'};
  auto payload = ReadFramedFile(base_path_ + ".meta", magic);
  ASSERT_TRUE(payload.ok());
  SerialCursor cursor(payload.value());
  uint64_t pages = 0;
  ASSERT_TRUE(cursor.ReadVarint64(&pages));
  std::string edited;
  PutVarint64(&edited, uint64_t{1} << 62);
  edited += payload.value().substr(cursor.position());
  ASSERT_TRUE(WriteFramedFile(base_path_ + ".meta", magic, edited).ok());
  auto opened = SNodeRepr::Open(base_path_, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

TEST_F(SNodePersistenceTest, AttachedStoreRejectsAppends) {
  ASSERT_TRUE(built_->SaveMeta().ok());
  auto opened = SNodeRepr::Open(base_path_, {});
  ASSERT_TRUE(opened.ok());
  // The attached store is read-only: reach it through the public accessor.
  GraphStore& store = const_cast<GraphStore&>(opened.value()->store());
  EXPECT_FALSE(store.AppendSection({{1, 2, 3}}).ok());
}

}  // namespace
}  // namespace wg
