// Bit-flip fuzz over the graph store's pack files, plus the read-path
// fault contracts the fuzz relies on:
//
//  * Every corrupted byte inside a live blob is detected: the covering
//    blob's CRC verification fails on pread, and the blob's read returns
//    Corruption instead of decoded garbage. Bytes outside every live blob
//    (there should be none in an append-only pack) must leave a full
//    scrub clean.
//  * A cursor read of a corrupt blob fails its CRC check with
//    Corruption, the owning S-Node section is quarantined (later reads
//    fail fast with Unavailable, other sections keep serving), and the
//    process never decodes the bad bytes.
//  * Injected transient EIO on pread surfaces as a clean IOError from the
//    cursor with no cache pins leaked, and the same read succeeds once
//    the fault is lifted -- EIO must not quarantine.

#include <fcntl.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/snode_repr.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/file.h"
#include "version/scrub.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

std::string TempBase(const std::string& name) {
  return test::TempDirFor(name) + "/base";
}

WebGraph SmallGraph(size_t pages = 600) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 29;
  return GenerateWebGraph(opts);
}

// XORs the byte at `offset` of `path` with 0xFF via raw syscalls (no Env).
void FlipByte(const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path;
  unsigned char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  byte ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  ::close(fd);
}

// Supernode owning blob `id` (sections are laid out contiguously).
uint32_t SectionOfBlob(const SupernodeGraph& sg, uint32_t id) {
  for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
    if (id >= sg.FirstBlob(s) && id < sg.FirstBlob(s + 1)) return s;
  }
  return sg.num_supernodes();
}

TEST(BitflipFuzzTest, EveryFlippedByteIsDetectedOrOutsideLiveBlobs) {
  std::string base = TempBase("sweep");
  WebGraph graph = SmallGraph();
  auto built = SNodeRepr::Build(graph, base, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveMeta().ok());
  const GraphStore& store = built.value()->store();

  // Byte -> covering blob map per file.
  struct Extent {
    uint32_t blob;
    uint64_t offset;
    uint64_t end;
  };
  std::vector<std::vector<Extent>> extents(store.num_files());
  for (uint32_t id = 0; id < store.num_blobs(); ++id) {
    GraphStore::BlobLocation loc = store.Location(id);
    if (loc.length == 0) continue;
    extents[loc.file_index].push_back(
        {id, loc.offset, loc.offset + loc.length});
  }

  uint64_t covered = 0;
  uint64_t uncovered = 0;
  for (uint32_t f = 0; f < store.num_files(); ++f) {
    const std::string& path = store.FilePath(f);
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok());
    uint64_t file_size = file.value()->size();
    for (uint64_t byte = 0; byte < file_size; ++byte) {
      const Extent* hit = nullptr;
      for (const Extent& e : extents[f]) {
        if (byte >= e.offset && byte < e.end) {
          hit = &e;
          break;
        }
      }
      FlipByte(path, byte);
      if (hit != nullptr) {
        ++covered;
        Status verified = store.VerifyBlob(hit->blob);
        EXPECT_EQ(verified.code(), StatusCode::kCorruption)
            << "file " << f << " byte " << byte << " blob " << hit->blob
            << " undetected: " << verified.ToString();
        // The real read path must refuse the bytes too.
        std::vector<uint8_t> out;
        EXPECT_EQ(store.ReadBlob(hit->blob, &out).code(),
                  StatusCode::kCorruption);
      } else {
        // No live blob covers this byte: prove it cannot damage a read.
        ++uncovered;
        version::ScrubReport report;
        ASSERT_TRUE(version::ScrubStore(store, &report).ok());
        EXPECT_TRUE(report.clean())
            << "byte " << byte << " of file " << f
            << " is outside every blob yet scrub found damage";
      }
      FlipByte(path, byte);  // restore
    }
  }
  EXPECT_GT(covered, 0u);
  // Sanity after the sweep: everything restored.
  version::ScrubReport report;
  ASSERT_TRUE(version::ScrubStore(store, &report).ok());
  EXPECT_TRUE(report.clean()) << report.ToString();
  std::printf("fuzzed %llu covered + %llu uncovered bytes\n",
              static_cast<unsigned long long>(covered),
              static_cast<unsigned long long>(uncovered));
}

TEST(BitflipFuzzTest, MappedCorruptionQuarantinesOnlyItsSection) {
  std::string base = TempBase("quarantine");
  WebGraph graph = SmallGraph();
  {
    auto built = SNodeRepr::Build(graph, base, {});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->SaveMeta().ok());
  }
  auto repr = SNodeRepr::Open(base, {});
  ASSERT_TRUE(repr.ok());
  const SupernodeGraph& sg = repr.value()->supernode_graph();
  ASSERT_GE(sg.num_supernodes(), 2u) << "need a healthy section to compare";

  // Corrupt the first nonempty intranode blob under the open store; its
  // section's first read must catch it.
  uint32_t victim_blob = UINT32_MAX;
  for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
    if (repr.value()->store().blob_size(sg.FirstBlob(s)) > 0) {
      victim_blob = sg.FirstBlob(s);
      break;
    }
  }
  ASSERT_NE(victim_blob, UINT32_MAX);
  GraphStore::BlobLocation loc = repr.value()->store().Location(victim_blob);
  FlipByte(repr.value()->store().FilePath(loc.file_index), loc.offset);

  uint32_t victim_section = SectionOfBlob(sg, victim_blob);
  ASSERT_LT(victim_section, sg.num_supernodes());
  PageId victim_page = repr.value()->PageInNaturalOrder(
      sg.page_start[victim_section]);

  {
    std::unique_ptr<AdjacencyCursor> cursor = repr.value()->NewCursor();
    LinkView view;
    Status first = cursor->Links(victim_page, &view);
    EXPECT_EQ(first.code(), StatusCode::kCorruption) << first.ToString();
    EXPECT_TRUE(repr.value()->SectionQuarantined(victim_section));
    EXPECT_EQ(repr.value()->QuarantinedSectionCount(), 1u);

    // Second read fails fast with Unavailable -- no re-decode attempt.
    Status second = cursor->Links(victim_page, &view);
    EXPECT_EQ(second.code(), StatusCode::kUnavailable) << second.ToString();

    // Every other section still serves.
    for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
      if (s == victim_section) continue;
      PageId p = repr.value()->PageInNaturalOrder(sg.page_start[s]);
      LinkView links;
      ASSERT_TRUE(cursor->Links(p, &links).ok()) << "section " << s;
    }
  }
  // All views and the cursor are gone; nothing may still be pinned.
  EXPECT_EQ(repr.value()->PinnedCacheEntries(), 0u);
}

TEST(BitflipFuzzTest, InjectedEioIsTransientAndLeaksNoPins) {
  std::string base = TempBase("eio");
  WebGraph graph = SmallGraph();
  {
    auto built = SNodeRepr::Build(graph, base, {});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->SaveMeta().ok());
  }
  auto repr = SNodeRepr::Open(base, {});
  ASSERT_TRUE(repr.ok());
  std::unique_ptr<AdjacencyCursor> cursor = repr.value()->NewCursor();
  // A page with real out-links, so success is distinguishable.
  PageId victim = 0;
  while (victim < graph.num_pages() && graph.out_degree(victim) == 0) {
    ++victim;
  }
  ASSERT_LT(victim, graph.num_pages());

  FaultInjectingEnv::Options fopts;
  fopts.fail_reads = true;
  fopts.path_filter = "base.";  // pack files only, not unrelated paths
  FaultInjectingEnv env(fopts);
  Env::Install(&env);
  LinkView view;
  Status read = cursor->Links(victim, &view);
  Env::Install(nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kIOError) << read.ToString();
  EXPECT_EQ(repr.value()->PinnedCacheEntries(), 0u) << "leaked pin on EIO";
  EXPECT_EQ(repr.value()->QuarantinedSectionCount(), 0u)
      << "transient EIO must not quarantine";

  // Fault lifted: the very same read now succeeds.
  Status retry = cursor->Links(victim, &view);
  EXPECT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(view.size(), graph.out_degree(victim));
}

}  // namespace
}  // namespace wg
