// Scrub + degraded-mode contracts:
//
//  * ScrubStore / ScrubSNodeStore / ScrubSnapshotDir verify every section
//    against its recorded CRC, accumulate (not stop at) every finding,
//    and name the damaged section and pack precisely.
//  * A snapshot scrub follows the live manifest across generations --
//    sections shared from older packs are verified too.
//  * verify_before_install: a manager refreshing onto a generation whose
//    pack bytes are damaged refuses the flip with Corruption and keeps
//    serving the previously installed generation (wgserve's degraded
//    mode); once the bytes are repaired the same Refresh flips forward.

#include <fcntl.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "version/gc.h"
#include "version/manifest.h"
#include "version/scrub.h"
#include "version/snapshot.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using version::DeltaRecord;
using version::ScrubReport;
using version::SnapshotManager;
using version::SnapshotOptions;

using test::TempDirFor;

WebGraph ScrubGraph() {
  GeneratorOptions opts;
  opts.num_pages = 900;
  opts.seed = 31;
  return GenerateWebGraph(opts);
}

void FlipByte(const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path;
  unsigned char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  byte ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  ::close(fd);
}

TEST(ScrubTest, CleanSNodeStoreScrubsClean) {
  std::string dir = TempDirFor("clean");
  WebGraph graph = ScrubGraph();
  auto built = SNodeRepr::Build(graph, dir + "/base", {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveMeta().ok());
  size_t num_sections = built.value()->store().num_sections();
  built.value().reset();

  ScrubReport report;
  ASSERT_TRUE(version::ScrubSNodeStore(dir + "/base", &report).ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.sections_checked, num_sections);
  EXPECT_GT(report.bytes_checked, 0u);
  EXPECT_FALSE(report.files.empty());
}

TEST(ScrubTest, DamageIsNamedPrecisely) {
  std::string dir = TempDirFor("named");
  WebGraph graph = ScrubGraph();
  auto built = SNodeRepr::Build(graph, dir + "/base", {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveMeta().ok());
  // Pick a mid-store nonempty section and smash its last byte.
  const GraphStore& store = built.value()->store();
  uint32_t victim = UINT32_MAX;
  for (uint32_t s = static_cast<uint32_t>(store.num_sections() / 2);
       s < store.num_sections(); ++s) {
    if (store.section(s).length > 0) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, UINT32_MAX);
  const GraphStore::Section section = store.section(victim);
  std::string pack = store.FilePath(section.file_index);
  built.value().reset();
  FlipByte(pack, section.offset + section.length - 1);

  ScrubReport report;
  ASSERT_TRUE(version::ScrubSNodeStore(dir + "/base", &report).ok());
  ASSERT_EQ(report.errors.size(), 1u) << report.ToString();
  EXPECT_EQ(report.errors[0].section, victim);
  EXPECT_EQ(report.errors[0].file_index, section.file_index);
  EXPECT_EQ(report.errors[0].file, pack);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("checksum mismatch"), std::string::npos);
  EXPECT_NE(text.find("section " + std::to_string(victim) + " (file "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(pack), std::string::npos) << text;
}

TEST(ScrubTest, SnapshotScrubCoversSharedBlobsAcrossGenerations) {
  std::string dir = TempDirFor("snapshot");
  WebGraph base = ScrubGraph();
  auto manager = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(manager.ok());
  PageId n = static_cast<PageId>(base.num_pages());
  std::vector<DeltaRecord> batch = {
      DeltaRecord::AddPage(n, "http://www.scrub.example.org/p.html",
                           "www.scrub.example.org", "example.org"),
      DeltaRecord::AddLink(n, 1),
      DeltaRecord::AddLink(5, n),
  };
  ASSERT_TRUE(manager.value()->AppendDeltas(batch).ok());
  auto gen1 = manager.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  ASSERT_GT(gen1.value()->manifest.sections_shared, 0u)
      << "scenario needs cross-generation sharing to mean anything";

  ScrubReport report;
  ASSERT_TRUE(version::ScrubSnapshotDir(dir, &report).ok());
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.sections_checked,
            gen1.value()->manifest.directory.sections.size());
  // Both the base pack and the new generation's pack were visited.
  EXPECT_GE(report.files.size(), 2u);

  // Damage a section in the BASE pack that gen 1 shares: the
  // live-generation scrub must still see it.
  const GraphStore& store = gen1.value()->repr->store();
  uint32_t victim = UINT32_MAX;
  for (uint32_t s = 0; s < store.num_sections(); ++s) {
    if (store.section(s).file_index == 0 && store.section(s).length > 0) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, UINT32_MAX);
  FlipByte(store.FilePath(store.section(victim).file_index),
           store.section(victim).offset);
  ScrubReport damaged;
  ASSERT_TRUE(version::ScrubSnapshotDir(dir, &damaged).ok());
  ASSERT_EQ(damaged.errors.size(), 1u) << damaged.ToString();
  EXPECT_EQ(damaged.errors[0].section, victim);
}

TEST(ScrubTest, VerifyBeforeInstallHoldsLastGoodGeneration) {
  std::string dir = TempDirFor("degraded");
  WebGraph base = ScrubGraph();
  // The serving manager verifies candidates before install (wgserve's
  // configuration); the writer publishes without verification.
  {
    auto created = SnapshotManager::Create(dir, base, {});
    ASSERT_TRUE(created.ok());
  }
  SnapshotOptions serving;
  serving.verify_before_install = true;
  auto server = SnapshotManager::Open(dir, serving);
  ASSERT_TRUE(server.ok());
  ASSERT_EQ(server.value()->current()->manifest.generation, 0u);

  auto writer = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(writer.ok());
  PageId n = static_cast<PageId>(base.num_pages());
  std::vector<DeltaRecord> batch = {
      DeltaRecord::AddPage(n, "http://www.degraded.example.org/p.html",
                           "www.degraded.example.org", "example.org"),
      DeltaRecord::AddLink(n, 2),
      DeltaRecord::AddLink(9, n),
  };
  ASSERT_TRUE(writer.value()->AppendDeltas(batch).ok());
  auto gen1 = writer.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  ASSERT_EQ(gen1.value()->manifest.generation, 1u);
  ASSERT_GT(gen1.value()->manifest.sections_written, 0u);

  // Corrupt a section gen 1 wrote itself (lives in its own pack).
  const GraphStore& store = gen1.value()->repr->store();
  uint32_t victim = UINT32_MAX;
  for (uint32_t s = 0; s < store.num_sections(); ++s) {
    const GraphStore::Section& section = store.section(s);
    if (section.length > 0 &&
        store.FilePath(section.file_index).find("gen-000001") !=
            std::string::npos) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, UINT32_MAX) << "gen 1 wrote no section of its own";
  const GraphStore::Section loc = store.section(victim);
  std::string pack = store.FilePath(loc.file_index);
  FlipByte(pack, loc.offset);

  // Degraded: the flip is refused, generation 0 keeps serving.
  auto refreshed = server.value()->Refresh();
  ASSERT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().code(), StatusCode::kCorruption)
      << refreshed.status().ToString();
  EXPECT_EQ(server.value()->current()->manifest.generation, 0u);
  {
    LinkView links;
    auto cursor = server.value()->current()->repr->NewCursor();
    EXPECT_TRUE(cursor->Links(0, &links).ok())
        << "degraded mode must keep serving the old generation";
  }

  // Repair the byte: the very same Refresh now installs generation 1.
  FlipByte(pack, loc.offset);
  auto recovered = server.value()->Refresh();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->manifest.generation, 1u);
  EXPECT_EQ(server.value()->current()->manifest.generation, 1u);
}

// Pack gc: unreferenced packs (e.g. left by a crashed or compacted-away
// generation) are reported in dry-run, removed only under --apply
// semantics, and referenced packs are NEVER touched -- the live
// generation must scrub clean and keep answering queries afterwards.
TEST(ScrubTest, GcRemovesOnlyUnreferencedPacks) {
  std::string dir = TempDirFor("gc");
  WebGraph base = ScrubGraph();
  auto manager = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(manager.ok());
  PageId n = static_cast<PageId>(base.num_pages());
  std::vector<DeltaRecord> batch = {
      DeltaRecord::AddPage(n, "http://www.gc.example.org/p.html",
                           "www.gc.example.org", "example.org"),
      DeltaRecord::AddLink(n, 3),
      DeltaRecord::AddLink(7, n),
  };
  ASSERT_TRUE(manager.value()->AppendDeltas(batch).ok());
  auto gen1 = manager.value()->Compact();
  ASSERT_TRUE(gen1.ok());

  // Every pack the live store reads must survive gc.
  const GraphStore& store = gen1.value()->repr->store();
  std::vector<std::string> referenced;
  for (uint32_t s = 0; s < store.num_sections(); ++s) {
    referenced.push_back(store.FilePath(store.section(s).file_index));
  }
  ASSERT_FALSE(referenced.empty());

  // An orphan pack: a generation that was never published (crashed
  // compaction) or whose manifest was superseded long ago.
  std::string orphan = dir + "/gen-000099.000";
  {
    auto file = RandomAccessFile::Open(orphan);
    ASSERT_TRUE(file.ok());
    std::string junk(4096, 'j');
    ASSERT_TRUE(file.value()->Append(junk.data(), junk.size()).ok());
  }

  // Dry run: the orphan is named, nothing is deleted.
  version::GcReport dry;
  ASSERT_TRUE(version::CollectGarbage(dir, {}, &dry).ok());
  ASSERT_EQ(dry.candidates.size(), 1u);
  EXPECT_EQ(dry.candidates[0], "gen-000099.000");
  EXPECT_EQ(dry.packs_removed, 0u);
  EXPECT_EQ(dry.bytes_reclaimable, 4096u);
  EXPECT_EQ(::access(orphan.c_str(), F_OK), 0) << "dry run must not delete";

  // Apply: only the orphan goes; every referenced pack survives.
  version::GcOptions apply;
  apply.apply = true;
  version::GcReport applied;
  ASSERT_TRUE(version::CollectGarbage(dir, apply, &applied).ok());
  EXPECT_EQ(applied.packs_removed, 1u);
  EXPECT_EQ(applied.bytes_reclaimed, 4096u);
  EXPECT_NE(::access(orphan.c_str(), F_OK), 0) << "orphan must be gone";
  for (const std::string& pack : referenced) {
    EXPECT_EQ(::access(pack.c_str(), F_OK), 0)
        << "gc touched referenced pack " << pack;
  }

  // The live generation is intact: clean scrub, working queries, and a
  // second gc finds nothing.
  ScrubReport report;
  ASSERT_TRUE(version::ScrubSnapshotDir(dir, &report).ok());
  EXPECT_TRUE(report.clean()) << report.ToString();
  auto reopened = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  LinkView links;
  auto cursor = reopened.value()->current()->repr->NewCursor();
  EXPECT_TRUE(cursor->Links(0, &links).ok());
  version::GcReport again;
  ASSERT_TRUE(version::CollectGarbage(dir, apply, &again).ok());
  EXPECT_EQ(again.candidates.size(), 0u);
}

// Looking for a store or a snapshot that is not there reports NotFound and
// leaves nothing behind: no `<base>.meta`, no `CURRENT` that would make a
// later scrub take the directory for a snapshot.
TEST(ScrubTest, MissingStoreIsNotFoundAndCreatesNothing) {
  std::string dir = TempDirFor("missing");
  ScrubReport report;
  Status scrubbed = version::ScrubSNodeStore(dir + "/nothere", &report);
  EXPECT_EQ(scrubbed.code(), StatusCode::kNotFound) << scrubbed.ToString();
  EXPECT_NE(::access((dir + "/nothere.meta").c_str(), F_OK), 0);

  auto opened = SnapshotManager::Open(dir, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound)
      << opened.status().ToString();
  Status snapshot = version::ScrubSnapshotDir(dir, &report);
  EXPECT_EQ(snapshot.code(), StatusCode::kNotFound) << snapshot.ToString();
  EXPECT_NE(::access((dir + "/CURRENT").c_str(), F_OK), 0);
}

// A manifest may list a pack no section lives in (gc removes such packs
// while manifests, being immutable, keep their names). Opening the
// generation must not look for it: the live generation opens, serves and
// scrubs clean, and the missing pack is not recreated.
TEST(ScrubTest, UnreferencedMissingPackOpensServesAndScrubs) {
  std::string dir = TempDirFor("unreferenced");
  WebGraph base = ScrubGraph();
  ASSERT_TRUE(SnapshotManager::Create(dir, base, {}).ok());
  auto name = version::ReadCurrentName(dir);
  ASSERT_TRUE(name.ok());
  auto manifest = version::Manifest::ReadFrom(dir + "/" + name.value());
  ASSERT_TRUE(manifest.ok());
  // Listed first, so every section's file index moves past it.
  const std::string missing = "gen-000077.000";
  version::Manifest edited = manifest.value();
  edited.files.insert(edited.files.begin(), missing);
  for (GraphStore::Section& section : edited.directory.sections) {
    ++section.file_index;
  }
  ASSERT_TRUE(edited.WriteTo(dir + "/" + name.value()).ok());

  auto reopened = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  LinkView links;
  auto cursor = reopened.value()->current()->repr->NewCursor();
  for (PageId p = 0; p < base.num_pages(); p += 37) {
    ASSERT_TRUE(cursor->Links(p, &links).ok());
    auto expected = base.OutLinks(p);
    EXPECT_EQ(links.ToVector(),
              std::vector<PageId>(expected.begin(), expected.end()));
  }
  ScrubReport report;
  ASSERT_TRUE(version::ScrubSnapshotDir(dir, &report).ok());
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.sections_checked, edited.directory.sections.size());
  EXPECT_NE(::access((dir + "/" + missing).c_str(), F_OK), 0)
      << "opening recreated the unreferenced pack";
}

}  // namespace
}  // namespace wg
