// Model-based test of the versioned snapshot store. Under fixed seeds it
// interleaves at random: delta batches of all four record kinds, Compact,
// a second manager's Refresh, a reopen through SnapshotManager::Open, and
// an applied CollectGarbage -- and checks the store against an in-memory
// reference adjacency after every step:
//
//  * every page's links through the live generation plus its pending
//    overlay equal the reference (for both managers);
//  * ScrubSnapshotDir is clean;
//  * every section of the live manifest lies inside one pack.
//
// Crash points are crash_recovery_test's business.

#include <sys/stat.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "version/gc.h"
#include "version/overlay.h"
#include "version/scrub.h"
#include "version/snapshot.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using version::DeltaOverlay;
using version::DeltaRecord;
using version::GenerationPtr;
using version::OverlayRepresentation;
using version::SnapshotManager;

// The reference: every page's out-links, plus the tombstones the pending
// (not yet compacted) deltas hold -- no delta may touch those.
struct Reference {
  std::vector<std::set<PageId>> links;
  std::set<PageId> pending_tombstones;

  bool Touchable(PageId p) const { return pending_tombstones.count(p) == 0; }
};

Reference ReferenceOf(const WebGraph& graph) {
  Reference ref;
  ref.links.resize(graph.num_pages());
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    for (PageId q : graph.OutLinks(p)) ref.links[p].insert(q);
  }
  return ref;
}

// A random valid batch of 1-6 records, applied to *ref as it is drawn.
std::vector<DeltaRecord> RandomBatch(std::mt19937_64& rng, Reference* ref) {
  std::vector<DeltaRecord> batch;
  const int size = 1 + static_cast<int>(rng() % 6);
  for (int i = 0; i < size; ++i) {
    const PageId n = static_cast<PageId>(ref->links.size());
    auto touchable_page = [&]() -> PageId {
      for (int tries = 0; tries < 100; ++tries) {
        PageId p = static_cast<PageId>(rng() % n);
        if (ref->Touchable(p)) return p;
      }
      return kInvalidPage;
    };
    switch (rng() % 4) {
      case 0: {
        const std::string host =
            "www.model" + std::to_string(rng() % 3) + ".example.org";
        batch.push_back(DeltaRecord::AddPage(
            n, "http://" + host + "/p" + std::to_string(n) + ".html", host,
            "example.org"));
        ref->links.emplace_back();
        break;
      }
      case 1: {
        const PageId p = touchable_page();
        if (p == kInvalidPage) break;
        batch.push_back(DeltaRecord::RemovePage(p));
        ref->links[p].clear();
        for (auto& out : ref->links) out.erase(p);
        ref->pending_tombstones.insert(p);
        break;
      }
      case 2: {
        const PageId from = touchable_page();
        const PageId to = touchable_page();
        if (from == kInvalidPage || to == kInvalidPage || from == to) break;
        batch.push_back(DeltaRecord::AddLink(from, to));
        ref->links[from].insert(to);
        break;
      }
      default: {
        // Mostly an existing link; sometimes one that is not there.
        const PageId from = touchable_page();
        if (from == kInvalidPage) break;
        PageId to = touchable_page();
        if (!ref->links[from].empty() && rng() % 4 != 0) {
          auto it = ref->links[from].begin();
          std::advance(it, rng() % ref->links[from].size());
          to = *it;
        }
        if (to == kInvalidPage || to == from || !ref->Touchable(to)) break;
        batch.push_back(DeltaRecord::RemoveLink(from, to));
        ref->links[from].erase(to);
        break;
      }
    }
  }
  return batch;
}

// Every page's links through `manager`'s live generation plus its pending
// overlay equal the reference.
void ExpectServesReference(const SnapshotManager& manager,
                           const Reference& ref) {
  GenerationPtr live = manager.current();
  DeltaOverlay overlay(live->repr->num_pages());
  ASSERT_TRUE(manager.BuildPendingOverlay(&overlay).ok());
  auto merged = OverlayRepresentation::Make(live->repr.get(), &overlay);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value()->num_pages(), ref.links.size());
  uint64_t edges = 0;
  std::unique_ptr<AdjacencyCursor> cursor = merged.value()->NewCursor();
  for (PageId p = 0; p < ref.links.size(); ++p) {
    LinkView view;
    ASSERT_TRUE(cursor->Links(p, &view).ok()) << "page " << p;
    ASSERT_EQ(view.ToVector(), std::vector<PageId>(ref.links[p].begin(),
                                                    ref.links[p].end()))
        << "page " << p << " generation " << live->manifest.generation;
    edges += ref.links[p].size();
  }
  EXPECT_EQ(merged.value()->num_edges(), edges);
}

// The live manifest scrubs clean and each of its sections lies inside the
// one pack it names.
void ExpectLiveManifestIntact(const std::string& dir,
                              const SnapshotManager& manager) {
  version::ScrubReport report;
  ASSERT_TRUE(version::ScrubSnapshotDir(dir, &report).ok());
  EXPECT_TRUE(report.clean()) << report.ToString();
  const version::Manifest& manifest = manager.current()->manifest;
  for (const GraphStore::Section& section : manifest.directory.sections) {
    struct stat st;
    const std::string pack = dir + "/" + manifest.files[section.file_index];
    ASSERT_EQ(::stat(pack.c_str(), &st), 0) << pack;
    EXPECT_LE(section.offset + section.length,
              static_cast<uint64_t>(st.st_size))
        << pack;
  }
}

void RunModel(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  GeneratorOptions gopts;
  gopts.num_pages = 700;
  gopts.seed = seed;
  const WebGraph base = GenerateWebGraph(gopts);
  const std::string dir = test::TempDirFor("model");
  auto created = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SnapshotManager> writer = std::move(created).value();
  auto follower = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(follower.ok());
  Reference ref = ReferenceOf(base);
  std::mt19937_64 rng(seed);

  uint64_t compactions = 0;
  for (int step = 0; step < 40; ++step) {
    switch (rng() % 6) {
      case 0:
      case 1: {
        std::vector<DeltaRecord> batch = RandomBatch(rng, &ref);
        ASSERT_TRUE(writer->AppendDeltas(batch).ok()) << "step " << step;
        break;
      }
      case 2: {
        auto compacted = writer->Compact();
        ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
        ref.pending_tombstones.clear();
        ++compactions;
        break;
      }
      case 3: {
        auto refreshed = follower.value()->Refresh();
        ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
        EXPECT_EQ(refreshed.value()->manifest.generation,
                  writer->current()->manifest.generation);
        ExpectServesReference(*follower.value(), ref);
        break;
      }
      case 4: {
        writer.reset();
        auto reopened = SnapshotManager::Open(dir, {});
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
        writer = std::move(reopened).value();
        break;
      }
      default: {
        version::GcOptions apply;
        apply.apply = true;
        version::GcReport gc;
        ASSERT_TRUE(version::CollectGarbage(dir, apply, &gc).ok());
        break;
      }
    }
    ExpectServesReference(*writer, ref);
    ExpectLiveManifestIntact(dir, *writer);
    if (testing::Test::HasFatalFailure()) return;
  }
  // Fold whatever is pending, so every seed ends on a compaction.
  ASSERT_TRUE(writer->Compact().ok());
  ref.pending_tombstones.clear();
  ExpectServesReference(*writer, ref);
  ExpectLiveManifestIntact(dir, *writer);
  std::printf("seed %llu: %llu compactions, generation %llu\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(compactions),
              static_cast<unsigned long long>(
                  writer->current()->manifest.generation));
}

TEST(VersionModelTest, RandomInterleavingsMatchReference) {
  for (uint64_t seed : {5, 6, 7, 8, 9}) RunModel(seed);
}

}  // namespace
}  // namespace wg
