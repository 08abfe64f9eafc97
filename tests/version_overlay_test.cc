// Overlay equivalence: an OverlayRepresentation over (base S-Node store,
// crawl deltas) must answer exactly like a representation of the freshly
// mutated graph -- same pages, same adjacency, same edge count -- and the
// DeltaOverlay must enforce the mutation semantics (dense new ids,
// tombstones reject further links, no self-loops).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "version/overlay.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using version::ApplyOverlay;
using version::DeltaOverlay;
using version::DeltaRecord;
using version::OverlayRepresentation;

using test::TempPath;

WebGraph TestGraph(size_t pages = 1500) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 11;
  return GenerateWebGraph(opts);
}

// Sorted out-links of `p` in the ground-truth graph.
std::vector<PageId> SortedLinks(const WebGraph& graph, PageId p) {
  auto links = graph.OutLinks(p);
  std::vector<PageId> out(links.begin(), links.end());
  std::sort(out.begin(), out.end());
  return out;
}

// A representative mutation batch: new pages (same + new domain), link
// edits between old pages, links to/from new pages, and a tombstone.
Status ApplyTestDeltas(const WebGraph& base, DeltaOverlay* overlay) {
  PageId n = static_cast<PageId>(base.num_pages());
  std::vector<DeltaRecord> batch = {
      DeltaRecord::AddPage(n, "http://www.newhost.example.com/a.html",
                           "www.newhost.example.com", "example.com"),
      DeltaRecord::AddPage(n + 1, "http://www.newhost.example.com/b.html",
                           "www.newhost.example.com", "example.com"),
      DeltaRecord::AddPage(n + 2, base.url(0) + "/sub/new.html", base.host_name(base.host_id(0)),
                           base.domain_name(base.domain_id(0))),
      DeltaRecord::AddLink(n, n + 1),
      DeltaRecord::AddLink(n, 0),
      DeltaRecord::AddLink(5, n),
      DeltaRecord::AddLink(7, n + 2),
      DeltaRecord::RemoveLink(
          3, SortedLinks(base, 3).empty() ? 0 : SortedLinks(base, 3)[0]),
      DeltaRecord::AddLink(3, static_cast<PageId>(base.num_pages() - 1)),
      DeltaRecord::RemovePage(42),
  };
  for (const DeltaRecord& record : batch) {
    WG_RETURN_IF_ERROR(overlay->Apply(record));
  }
  return Status::OK();
}

TEST(OverlayTest, OverlayEqualsFreshlyBuiltMutatedStore) {
  WebGraph base = TestGraph();
  auto base_repr = SNodeRepr::Build(base, TempPath("base"), {});
  ASSERT_TRUE(base_repr.ok());

  DeltaOverlay overlay(base.num_pages());
  ASSERT_TRUE(ApplyTestDeltas(base, &overlay).ok());

  // Ground truth: the mutated graph, built fresh.
  auto mutated = ApplyOverlay(base, overlay);
  ASSERT_TRUE(mutated.ok());
  ASSERT_EQ(mutated.value().num_pages(), overlay.num_pages());

  auto view = OverlayRepresentation::Make(base_repr.value().get(), &overlay);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value()->num_pages(), mutated.value().num_pages());
  EXPECT_EQ(view.value()->num_edges(), mutated.value().num_edges());

  auto cursor = view.value()->NewCursor();
  LinkView links;
  for (PageId p = 0; p < mutated.value().num_pages(); ++p) {
    ASSERT_TRUE(cursor->Links(p, &links).ok()) << "p=" << p;
    std::vector<PageId> expected = SortedLinks(mutated.value(), p);
    ASSERT_EQ(links.size(), expected.size()) << "p=" << p;
    EXPECT_TRUE(std::equal(links.begin(), links.end(), expected.begin()))
        << "p=" << p;
  }
  // The tombstone answers with empty adjacency.
  ASSERT_TRUE(cursor->Links(42, &links).ok());
  EXPECT_EQ(links.size(), 0u);
}

TEST(OverlayTest, EmptyOverlayIsZeroCopyPassThrough) {
  WebGraph base = TestGraph(800);
  auto base_repr = SNodeRepr::Build(base, TempPath("empty"), {});
  ASSERT_TRUE(base_repr.ok());
  DeltaOverlay overlay(base.num_pages());
  auto view = OverlayRepresentation::Make(base_repr.value().get(), &overlay);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value()->num_edges(), base.num_edges());

  auto cursor = view.value()->NewCursor();
  LinkView links;
  for (PageId p = 0; p < base.num_pages(); ++p) {
    ASSERT_TRUE(cursor->Links(p, &links).ok());
    std::vector<PageId> expected = SortedLinks(base, p);
    ASSERT_EQ(links.size(), expected.size()) << "p=" << p;
    EXPECT_TRUE(std::equal(links.begin(), links.end(), expected.begin()))
        << "p=" << p;
  }
}

TEST(OverlayTest, PagesInDomainIncludesAddedPages) {
  WebGraph base = TestGraph(600);
  auto base_repr = SNodeRepr::Build(base, TempPath("domains"), {});
  ASSERT_TRUE(base_repr.ok());
  PageId n = static_cast<PageId>(base.num_pages());
  DeltaOverlay overlay(base.num_pages());
  ASSERT_TRUE(overlay
                  .Apply(DeltaRecord::AddPage(
                      n, "http://www.x.brandnew.org/", "www.x.brandnew.org",
                      "brandnew.org"))
                  .ok());
  ASSERT_TRUE(overlay
                  .Apply(DeltaRecord::AddPage(
                      n + 1, base.url(0) + "/extra.html", base.host_name(base.host_id(0)),
                      base.domain_name(base.domain_id(0))))
                  .ok());
  auto view = OverlayRepresentation::Make(base_repr.value().get(), &overlay);
  ASSERT_TRUE(view.ok());

  std::vector<PageId> pages;
  ASSERT_TRUE(view.value()->PagesInDomain("brandnew.org", &pages).ok());
  EXPECT_EQ(pages, std::vector<PageId>{n});

  pages.clear();
  ASSERT_TRUE(view.value()->PagesInDomain(base.domain_name(base.domain_id(0)), &pages).ok());
  EXPECT_TRUE(std::find(pages.begin(), pages.end(), n + 1) != pages.end());
}

TEST(OverlayTest, ApplyRejectsInvalidRecords) {
  DeltaOverlay overlay(100);
  // Added pages must take dense ids starting at base_pages.
  EXPECT_FALSE(overlay.Apply(DeltaRecord::AddPage(101, "u", "h", "d")).ok());
  EXPECT_FALSE(overlay.Apply(DeltaRecord::AddPage(50, "u", "h", "d")).ok());
  EXPECT_FALSE(overlay.Apply(DeltaRecord::AddPage(100, "", "h", "d")).ok());
  ASSERT_TRUE(overlay.Apply(DeltaRecord::AddPage(100, "u", "h", "d")).ok());

  // Out-of-range and self-loop links.
  EXPECT_FALSE(overlay.Apply(DeltaRecord::AddLink(101, 0)).ok());
  EXPECT_FALSE(overlay.Apply(DeltaRecord::AddLink(0, 101)).ok());
  EXPECT_FALSE(overlay.Apply(DeltaRecord::AddLink(7, 7)).ok());

  // Tombstones: no duplicates, and links touching them are rejected.
  ASSERT_TRUE(overlay.Apply(DeltaRecord::RemovePage(10)).ok());
  EXPECT_FALSE(overlay.Apply(DeltaRecord::RemovePage(10)).ok());
  EXPECT_FALSE(overlay.Apply(DeltaRecord::AddLink(10, 0)).ok());
  EXPECT_FALSE(overlay.Apply(DeltaRecord::AddLink(0, 10)).ok());
  EXPECT_FALSE(overlay.Apply(DeltaRecord::RemoveLink(10, 0)).ok());
}

TEST(OverlayTest, AddAndRemoveLinkCancel) {
  DeltaOverlay overlay(10);
  ASSERT_TRUE(overlay.Apply(DeltaRecord::AddLink(1, 2)).ok());
  ASSERT_TRUE(overlay.Apply(DeltaRecord::RemoveLink(1, 2)).ok());
  EXPECT_TRUE(overlay.empty());

  std::vector<PageId> merged;
  overlay.MergeLinks(1, {}, &merged);
  EXPECT_TRUE(merged.empty());

  // And the other direction: removing a base link then re-adding it.
  ASSERT_TRUE(overlay.Apply(DeltaRecord::RemoveLink(3, 4)).ok());
  ASSERT_TRUE(overlay.Apply(DeltaRecord::AddLink(3, 4)).ok());
  std::vector<PageId> base = {4, 5};
  overlay.MergeLinks(3, base, &merged);
  EXPECT_EQ(merged, (std::vector<PageId>{4, 5}));
}

}  // namespace
}  // namespace wg
