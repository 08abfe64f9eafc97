// Bit-flip fuzz over the graph store's pack files, plus the read-path
// fault contracts the fuzz relies on:
//
//  * Every corrupted byte inside a live section is detected: the covering
//    section's read fails its CRC check with Corruption instead of
//    handing out garbage, and a scrub names exactly that section. Bytes
//    outside every live section (there should be none in an append-only
//    pack) must leave a full scrub clean.
//  * A cursor read of a corrupt section fails its CRC check with
//    Corruption, the section is quarantined (later reads fail fast with
//    Unavailable, other sections keep serving), and the process never
//    decodes the bad bytes.
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

TEST(BitflipFuzzTest, EveryFlippedByteIsDetectedOrOutsideLiveBlobs) {
  std::string base = TempBase("sweep");
  WebGraph graph = SmallGraph();
  auto built = SNodeRepr::Build(graph, base, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveMeta().ok());
  const GraphStore& store = built.value()->store();

  // Byte -> covering section map per file.
  struct Extent {
    uint32_t section;
    uint64_t offset;
    uint64_t end;
  };
  std::vector<std::vector<Extent>> extents(store.num_files());
  for (uint32_t s = 0; s < store.num_sections(); ++s) {
    const GraphStore::Section& section = store.section(s);
    if (section.length == 0) continue;
    extents[section.file_index].push_back(
        {s, section.offset, section.offset + section.length});
  }

  std::vector<uint8_t> scratch;
  std::vector<GraphStore::GraphSpan> graphs;
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
      version::ScrubReport report;
      ASSERT_TRUE(version::ScrubStore(store, &report).ok());
      if (hit != nullptr) {
        ++covered;
        Status read = store.ReadSection(hit->section, &scratch, &graphs);
        EXPECT_EQ(read.code(), StatusCode::kCorruption)
            << "file " << f << " byte " << byte << " section "
            << hit->section << " undetected: " << read.ToString();
        // The scrub names exactly that section and its pack.
        ASSERT_EQ(report.errors.size(), 1u) << report.ToString();
        EXPECT_EQ(report.errors[0].section, hit->section);
        EXPECT_EQ(report.errors[0].file, path);
      } else {
        // No live section covers this byte: prove it cannot damage a read.
        ++uncovered;
        EXPECT_TRUE(report.clean())
            << "byte " << byte << " of file " << f
            << " is outside every section yet scrub found damage";
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

  // Corrupt the first byte of the first nonempty section under the open
  // store; the section's first read must catch it.
  const GraphStore& store = repr.value()->store();
  uint32_t victim_section = UINT32_MAX;
  for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
    if (store.section(s).length > 0) {
      victim_section = s;
      break;
    }
  }
  ASSERT_NE(victim_section, UINT32_MAX);
  FlipByte(store.FilePath(store.section(victim_section).file_index),
           store.section(victim_section).offset);
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
