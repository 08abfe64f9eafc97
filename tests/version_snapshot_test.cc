// The versioned snapshot store's headline contracts:
//
//  * Byte identity: a generation built incrementally from deltas equals a
//    from-scratch BuildFromPartition rebuild of the mutated graph over the
//    maintained partition -- per section, byte for byte.
//  * Sharing: clean supernode sections are referenced whole from the base
//    generation's pack files, not rewritten; dirty ones are written whole.
//  * Durability: a store reopened from its directory serves the published
//    generation, and unapplied log records stay pending across reopens.
//  * Live flip: a QueryService keeps answering correctly while another
//    thread compacts and swaps generations (run under TSan via the
//    concurrency ctest label).

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "server/query_service.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "storage/serial.h"
#include "util/coding.h"
#include "version/incremental.h"
#include "version/overlay.h"
#include "version/snapshot.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using version::ApplyOverlay;
using version::DeltaOverlay;
using version::DeltaRecord;
using version::GenerationPtr;
using version::MaintainedPartition;
using version::MaintainPartition;
using version::Manifest;
using version::SnapshotManager;

using test::TempDirFor;

WebGraph TestGraph(size_t pages = 1500) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 13;
  return GenerateWebGraph(opts);
}

std::vector<DeltaRecord> TestDeltas(const WebGraph& base) {
  PageId n = static_cast<PageId>(base.num_pages());
  auto first_link_of = [&base](PageId p) -> PageId {
    auto links = base.OutLinks(p);
    return links.empty() ? 0 : links[0];
  };
  return {
      DeltaRecord::AddPage(n, "http://www.fresh.example.org/index.html",
                           "www.fresh.example.org", "example.org"),
      DeltaRecord::AddPage(n + 1, "http://www.fresh.example.org/a/b.html",
                           "www.fresh.example.org", "example.org"),
      DeltaRecord::AddLink(n, n + 1),
      DeltaRecord::AddLink(n, 3),
      DeltaRecord::AddLink(9, n),
      DeltaRecord::RemoveLink(2, first_link_of(2)),
      DeltaRecord::AddLink(2, n + 1),
      DeltaRecord::RemovePage(57),
  };
}

// Section s of `store` as its graphs' bytes.
std::vector<std::vector<uint8_t>> ReadSectionOrDie(const GraphStore& store,
                                                   uint32_t s) {
  std::vector<uint8_t> scratch;
  std::vector<GraphStore::GraphSpan> spans;
  WG_CHECK(store.ReadSection(s, &scratch, &spans).ok());
  std::vector<std::vector<uint8_t>> graphs;
  for (const GraphStore::GraphSpan& span : spans) {
    graphs.emplace_back(span.data, span.data + span.length);
  }
  return graphs;
}

// Cursor sweep: the representation must answer exactly like the ground
// truth graph for every page.
void ExpectMatchesGraph(GraphRepresentation* repr, const WebGraph& truth) {
  ASSERT_EQ(repr->num_pages(), truth.num_pages());
  ASSERT_EQ(repr->num_edges(), truth.num_edges());
  auto cursor = repr->NewCursor();
  LinkView links;
  for (PageId p = 0; p < truth.num_pages(); ++p) {
    ASSERT_TRUE(cursor->Links(p, &links).ok()) << "p=" << p;
    auto expected = truth.OutLinks(p);
    std::vector<PageId> sorted(expected.begin(), expected.end());
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(links.size(), sorted.size()) << "p=" << p;
    EXPECT_TRUE(std::equal(links.begin(), links.end(), sorted.begin()))
        << "p=" << p;
  }
}

TEST(VersionSnapshotTest, IncrementalGenerationIsByteIdenticalToRebuild) {
  WebGraph base = TestGraph();
  std::string dir = TempDirFor("byteid");
  auto manager = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(manager.ok());
  GenerationPtr gen0 = manager.value()->current();

  std::vector<DeltaRecord> batch = TestDeltas(base);
  ASSERT_TRUE(manager.value()->AppendDeltas(batch).ok());

  // Reconstruct what compaction will see, for the from-scratch comparator.
  DeltaOverlay overlay(base.num_pages());
  ASSERT_TRUE(manager.value()->BuildPendingOverlay(&overlay).ok());
  auto mutated = ApplyOverlay(base, overlay);
  ASSERT_TRUE(mutated.ok());
  MaintainedPartition maintained =
      MaintainPartition(*gen0->repr, overlay, RefinementOptions());

  auto gen1 = manager.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  const Manifest& m1 = gen1.value()->manifest;
  EXPECT_EQ(m1.generation, 1u);
  EXPECT_EQ(m1.log_applied, batch.size());

  // From-scratch rebuild of the mutated graph over the same partition:
  // the byte-identity comparator.
  auto rebuilt = SNodeRepr::BuildFromPartition(
      mutated.value(), maintained.partition, TempDirFor("rebuild") + "/sn",
      {});
  ASSERT_TRUE(rebuilt.ok());

  const GraphStore& store1 = gen1.value()->repr->store();
  const GraphStore& rebuilt_store = rebuilt.value()->store();
  ASSERT_EQ(m1.directory.sections.size(), rebuilt_store.num_sections());
  for (uint32_t s = 0; s < rebuilt_store.num_sections(); ++s) {
    EXPECT_EQ(store1.section(s).length, rebuilt_store.section(s).length);
    EXPECT_EQ(store1.section(s).crc, rebuilt_store.section(s).crc);
    EXPECT_EQ(ReadSectionOrDie(store1, s),
              ReadSectionOrDie(rebuilt_store, s))
        << "section " << s;
  }
  EXPECT_EQ(m1.directory.graph_lengths,
            rebuilt_store.directory().graph_lengths);

  // Resident structures agree too (same numbering rule on both paths).
  const SupernodeGraph& sg1 = gen1.value()->repr->supernode_graph();
  const SupernodeGraph& sgr = rebuilt.value()->supernode_graph();
  EXPECT_EQ(sg1.page_start, sgr.page_start);
  EXPECT_EQ(sg1.offsets, sgr.offsets);
  EXPECT_EQ(sg1.targets, sgr.targets);
  EXPECT_EQ(gen1.value()->repr->num_edges(), rebuilt.value()->num_edges());

  // And the generation serves the mutated graph exactly.
  ExpectMatchesGraph(gen1.value()->repr.get(), mutated.value());
}

TEST(VersionSnapshotTest, CleanSectionsAreSharedNotRewritten) {
  WebGraph base = TestGraph();
  std::string dir = TempDirFor("sharing");
  auto manager = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(manager.ok());
  GenerationPtr gen0 = manager.value()->current();

  ASSERT_TRUE(manager.value()->AppendDeltas(TestDeltas(base)).ok());
  DeltaOverlay overlay(base.num_pages());
  ASSERT_TRUE(manager.value()->BuildPendingOverlay(&overlay).ok());
  MaintainedPartition maintained =
      MaintainPartition(*gen0->repr, overlay, RefinementOptions());

  auto gen1 = manager.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  const Manifest& m0 = gen0->manifest;
  const Manifest& m1 = gen1.value()->manifest;

  EXPECT_GT(m1.sections_shared, 0u);
  EXPECT_GT(m1.sections_written, 0u);
  EXPECT_EQ(m1.sections_shared + m1.sections_written,
            m1.directory.sections.size());
  // Only the dirty sections were written, each whole; every clean one was
  // shared.
  EXPECT_EQ(m1.sections_written, maintained.dirty_count());
  // The file list grows append-only: the base generation's packs first.
  ASSERT_GE(m1.files.size(), m0.files.size());
  for (size_t f = 0; f < m0.files.size(); ++f) {
    EXPECT_EQ(m1.files[f], m0.files[f]);
  }

  // Every clean old section points into the base generation's pack files
  // at the base generation's exact location -- shared, not copied -- and
  // every dirty section lies in this generation's own pack.
  const SupernodeGraph& sg0 = gen0->repr->supernode_graph();
  const SupernodeGraph& sg1 = gen1.value()->repr->supernode_graph();
  size_t clean_checked = 0;
  for (uint32_t s = 0; s < maintained.partition.num_elements(); ++s) {
    const GraphStore::Section& b1 = m1.directory.sections[s];
    if (s >= maintained.num_old_elements || maintained.dirty[s] != 0) {
      EXPECT_GE(b1.file_index, m0.files.size()) << "dirty section " << s;
      continue;
    }
    const GraphStore::Section& b0 = m0.directory.sections[s];
    ASSERT_EQ(sg1.offsets[s + 1] - sg1.offsets[s],
              sg0.offsets[s + 1] - sg0.offsets[s]);
    EXPECT_EQ(b1.file_index, b0.file_index);
    EXPECT_EQ(b1.offset, b0.offset);
    EXPECT_EQ(b1.length, b0.length);
    EXPECT_EQ(b1.crc, b0.crc);
    ++clean_checked;
  }
  EXPECT_GT(clean_checked, 0u);
}

// A snapshot directory written in the previous format (WGM4 manifests,
// with a location, CRC and content hash per blob) must not open: its
// payload parses differently.
TEST(VersionSnapshotTest, PreviousFormatManifestRejected) {
  std::string dir = TempDirFor("previous_format");
  ASSERT_TRUE(SnapshotManager::Create(dir, TestGraph(600), {}).ok());
  auto file = RandomAccessFile::Open(dir + "/MANIFEST-000000");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Write(0, "WGM4", 4).ok());
  auto opened = SnapshotManager::Open(dir, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().ToString().find("bad magic"), std::string::npos)
      << opened.status().ToString();
}

// A MANIFEST whose frame checks out but whose file count is 2^62 fails
// the open with Corruption before anything is sized by the count.
TEST(VersionSnapshotTest, HugeCountInManifestIsCorruption) {
  std::string dir = TempDirFor("huge_count");
  ASSERT_TRUE(SnapshotManager::Create(dir, TestGraph(600), {}).ok());
  const std::string path = dir + "/MANIFEST-000000";
  const char magic[4] = {'W', 'G', 'M', '5'};
  auto payload = ReadFramedFile(path, magic);
  ASSERT_TRUE(payload.ok());
  SerialCursor cursor(payload.value());
  uint64_t generation = 0, log_applied = 0, files = 0;
  ASSERT_TRUE(cursor.ReadVarint64(&generation) &&
              cursor.ReadVarint64(&log_applied) &&
              cursor.ReadVarint64(&files));
  std::string edited;
  PutVarint64(&edited, generation);
  PutVarint64(&edited, log_applied);
  PutVarint64(&edited, uint64_t{1} << 62);
  edited += payload.value().substr(cursor.position());
  ASSERT_TRUE(WriteFramedFile(path, magic, edited).ok());
  auto opened = SnapshotManager::Open(dir, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

TEST(VersionSnapshotTest, ReopenServesPublishedGenerationAndKeepsPending) {
  WebGraph base = TestGraph(1000);
  std::string dir = TempDirFor("reopen");
  DeltaOverlay overlay(base.num_pages());
  {
    auto manager = SnapshotManager::Create(dir, base, {});
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager.value()->AppendDeltas(TestDeltas(base)).ok());
    ASSERT_TRUE(manager.value()->BuildPendingOverlay(&overlay).ok());
    ASSERT_TRUE(manager.value()->Compact().ok());
    // Two more records land after the compaction and stay pending.
    ASSERT_TRUE(manager.value()
                    ->AppendDeltas({DeltaRecord::AddLink(1, 5),
                                    DeltaRecord::AddLink(5, 9)})
                    .ok());
  }  // manager (and its generations) torn down: reopen from disk alone

  auto reopened = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->current()->manifest.generation, 1u);
  EXPECT_EQ(reopened.value()->pending_records(), 2u);

  auto mutated = ApplyOverlay(base, overlay);
  ASSERT_TRUE(mutated.ok());
  ExpectMatchesGraph(reopened.value()->current()->repr.get(),
                     mutated.value());

  // Compacting the reopened store folds the pending tail into gen 2.
  auto gen2 = reopened.value()->Compact();
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(gen2.value()->manifest.generation, 2u);
  EXPECT_EQ(reopened.value()->pending_records(), 0u);
  EXPECT_EQ(gen2.value()->repr->num_edges(),
            mutated.value().num_edges() + 2);
}

// A long-running server's manager must see backlog grown by another
// process (wgtool delta-apply appends through its own SnapshotManager):
// pending_records() counts only what this manager has seen until
// TailLog() re-scans the on-disk suffix. This is what wgserve's
// --auto-compact-backlog poller relies on.
TEST(VersionSnapshotTest, TailLogSeesRecordsAppendedByAnotherManager) {
  WebGraph base = TestGraph(800);
  std::string dir = TempDirFor("taillog");
  auto server = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(server.ok());

  {
    auto writer = SnapshotManager::Open(dir, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->AppendDeltas({DeltaRecord::AddLink(2, 7),
                                    DeltaRecord::AddLink(7, 2)})
                    .ok());
  }

  // Invisible until tailed; visible (not double-counted) after.
  EXPECT_EQ(server.value()->pending_records(), 0u);
  ASSERT_TRUE(server.value()->TailLog().ok());
  EXPECT_EQ(server.value()->pending_records(), 2u);
  ASSERT_TRUE(server.value()->TailLog().ok());
  EXPECT_EQ(server.value()->pending_records(), 2u);

  auto gen1 = server.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  EXPECT_EQ(gen1.value()->manifest.generation, 1u);
  EXPECT_EQ(server.value()->pending_records(), 0u);
  EXPECT_EQ(gen1.value()->repr->num_edges(), base.num_edges() + 2);
}

TEST(VersionSnapshotTest, CompactWithNothingPendingIsANoOp) {
  WebGraph base = TestGraph(600);
  auto manager = SnapshotManager::Create(TempDirFor("noop"), base, {});
  ASSERT_TRUE(manager.ok());
  GenerationPtr gen0 = manager.value()->current();
  auto same = manager.value()->Compact();
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value().get(), gen0.get());
  EXPECT_EQ(manager.value()->current()->manifest.generation, 0u);
}

TEST(VersionSnapshotTest, QueryServiceAnswersAcrossGenerationFlips) {
  WebGraph base = TestGraph(800);
  auto manager = SnapshotManager::Create(TempDirFor("flip"), base, {});
  ASSERT_TRUE(manager.ok());

  QueryContext ctx;  // forward supplied purely via SwapForward
  server::QueryServiceOptions sopts;
  sopts.num_workers = 3;
  sopts.queue_capacity = 64;
  server::QueryService service(ctx, sopts);
  service.SwapForward(version::ReprOf(manager.value()->current()));

  // Flipper: three delta+compact+swap cycles while queries are in flight.
  constexpr int kFlips = 3;
  std::thread flipper([&] {
    for (int i = 0; i < kFlips; ++i) {
      PageId from = static_cast<PageId>(10 + i);
      PageId to = static_cast<PageId>(700 + i);
      ASSERT_TRUE(
          manager.value()->AppendDeltas({DeltaRecord::AddLink(from, to)}).ok());
      auto next = manager.value()->Compact();
      ASSERT_TRUE(next.ok());
      service.SwapForward(version::ReprOf(next.value()));
    }
  });

  // Old pages exist in every generation, so each response must be kOk no
  // matter which side of a flip executed it.
  size_t base_pages = base.num_pages();
  std::vector<std::future<server::Response>> inflight;
  size_t ok = 0;
  auto drain = [&] {
    for (auto& f : inflight) {
      server::Response r = f.get();
      ASSERT_EQ(static_cast<int>(r.code),
                static_cast<int>(server::ResponseCode::kOk));
      ++ok;
    }
    inflight.clear();
  };
  for (int round = 0; round < 400; ++round) {
    server::Request out;
    out.type = server::RequestType::kOutNeighbors;
    out.page = static_cast<PageId>((round * 37) % base_pages);
    inflight.push_back(service.Submit(out));
    server::Request khop;
    khop.type = server::RequestType::kKHop;
    khop.page = static_cast<PageId>((round * 101) % base_pages);
    khop.k = 2;
    inflight.push_back(service.Submit(khop));
    if (inflight.size() >= 32) drain();
  }
  drain();
  flipper.join();
  EXPECT_EQ(ok, 800u);
  EXPECT_EQ(manager.value()->current()->manifest.generation,
            static_cast<uint64_t>(kFlips));

  // After the drain no request holds a pinned view in any generation.
  service.Shutdown();
  EXPECT_EQ(manager.value()->current()->repr->PinnedCacheEntries(), 0u);
  server::ServiceMetrics metrics = service.Snapshot();
  EXPECT_EQ(metrics.errors, 0u);
  EXPECT_EQ(metrics.completed, 800u);
}

}  // namespace
}  // namespace wg
