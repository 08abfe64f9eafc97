// Cross-scheme property test for the zero-copy cursor/view read path:
// for every representation the cursor must return byte-identical link
// sequences to the legacy GetLinks wrapper, warm and cold (after
// ClearBuffers), and for S-Node also under eviction pressure while live
// pinned views are held. Plus the metrics contract: edges_returned is
// bumped from the cursor path and wg_repr_views_pinned is exported and
// returns to zero when views drop.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "obs/metrics.h"
#include "repr/huffman_repr.h"
#include "repr/link3_repr.h"
#include "repr/relational_repr.h"
#include "repr/uncompressed_repr.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

WebGraph TestGraph(size_t pages = 3000) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 7;
  return GenerateWebGraph(opts);
}

// Walks every page once through a single cursor and once through the
// GetLinks wrapper and demands identical sequences. `order` lets callers
// exercise both natural (streak-friendly) and scattered access.
void ExpectCursorMatchesGetLinks(GraphRepresentation* repr,
                                 const std::vector<PageId>& order) {
  auto cursor = repr->NewCursor();
  LinkView view;
  std::vector<PageId> expected;
  for (PageId p : order) {
    ASSERT_TRUE(cursor->Links(p, &view).ok()) << repr->name() << " p=" << p;
    expected.clear();
    ASSERT_TRUE(repr->GetLinks(p, &expected).ok())
        << repr->name() << " p=" << p;
    ASSERT_EQ(view.size(), expected.size()) << repr->name() << " p=" << p;
    EXPECT_TRUE(std::equal(view.begin(), view.end(), expected.begin()))
        << repr->name() << " p=" << p;
  }
}

std::vector<PageId> NaturalOrder(const GraphRepresentation& repr) {
  std::vector<PageId> order(repr.num_pages());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = repr.PageInNaturalOrder(i);
  }
  return order;
}

std::vector<PageId> ScatteredOrder(size_t num_pages) {
  std::vector<PageId> order;
  for (size_t stride = 0; stride < 7; ++stride) {
    for (size_t p = stride; p < num_pages; p += 7) {
      order.push_back(static_cast<PageId>(p));
    }
  }
  return order;
}

void CheckScheme(GraphRepresentation* repr) {
  SCOPED_TRACE(repr->name());
  ExpectCursorMatchesGetLinks(repr, NaturalOrder(*repr));
  ExpectCursorMatchesGetLinks(repr, ScatteredOrder(repr->num_pages()));
  // Cold again: drop every decoded buffer and re-verify.
  repr->ClearBuffers();
  ExpectCursorMatchesGetLinks(repr, NaturalOrder(*repr));
}

TEST(CursorEquivalenceTest, HuffmanMatchesGetLinks) {
  WebGraph g = TestGraph();
  auto repr = HuffmanRepr::Build(g);
  CheckScheme(repr.get());
}

TEST(CursorEquivalenceTest, UncompressedFileMatchesGetLinks) {
  WebGraph g = TestGraph();
  auto repr = UncompressedFileRepr::Build(g, TempPath("unc"), {});
  ASSERT_TRUE(repr.ok());
  CheckScheme(repr.value().get());
}

TEST(CursorEquivalenceTest, Link3MatchesGetLinks) {
  WebGraph g = TestGraph();
  auto repr = Link3Repr::Build(g, TempPath("l3"), {});
  ASSERT_TRUE(repr.ok());
  CheckScheme(repr.value().get());
}

TEST(CursorEquivalenceTest, RelationalMatchesGetLinks) {
  WebGraph g = TestGraph();
  auto repr = RelationalRepr::Build(g, TempPath("rel"), {});
  ASSERT_TRUE(repr.ok());
  CheckScheme(repr.value().get());
}

TEST(CursorEquivalenceTest, SNodeMatchesGetLinks) {
  WebGraph g = TestGraph();
  auto repr = SNodeRepr::Build(g, TempPath("sn"), {});
  ASSERT_TRUE(repr.ok());
  CheckScheme(repr.value().get());
}

// The S-Node has to agree with GetLinks warm, scattered, and cold again --
// and edge-for-edge with every other scheme over the same crawl.
TEST(CursorEquivalenceTest, SNodeMatchesGetLinksAndAllSchemes) {
  WebGraph g = TestGraph();
  auto built = SNodeRepr::Build(g, TempPath("snall"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* snode = built.value().get();
  CheckScheme(snode);

  auto huffman = HuffmanRepr::Build(g);
  auto unc = UncompressedFileRepr::Build(g, TempPath("all_unc"), {});
  ASSERT_TRUE(unc.ok());
  auto l3 = Link3Repr::Build(g, TempPath("all_l3"), {});
  ASSERT_TRUE(l3.ok());
  auto rel = RelationalRepr::Build(g, TempPath("all_rel"), {});
  ASSERT_TRUE(rel.ok());
  GraphRepresentation* others[] = {huffman.get(), unc.value().get(),
                                   l3.value().get(), rel.value().get()};
  auto snode_cursor = snode->NewCursor();
  LinkView snode_view;
  LinkView other_view;
  for (GraphRepresentation* other : others) {
    SCOPED_TRACE(other->name());
    auto other_cursor = other->NewCursor();
    for (PageId p = 0; p < g.num_pages(); ++p) {
      ASSERT_TRUE(snode_cursor->Links(p, &snode_view).ok()) << "p=" << p;
      ASSERT_TRUE(other_cursor->Links(p, &other_view).ok()) << "p=" << p;
      ASSERT_EQ(snode_view.size(), other_view.size()) << "p=" << p;
      EXPECT_TRUE(std::equal(snode_view.begin(), snode_view.end(),
                             other_view.begin()))
          << "p=" << p;
    }
  }
}

// Same contract through the persisted path: SaveMeta, then Open; reads
// must still match.
TEST(CursorEquivalenceTest, SNodeReopenMatchesGetLinks) {
  WebGraph g = TestGraph();
  std::string base = TempPath("snro");
  {
    auto built = SNodeRepr::Build(g, base, {});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->SaveMeta().ok());
  }
  auto reopened = SNodeRepr::Open(base, {});
  ASSERT_TRUE(reopened.ok());
  CheckScheme(reopened.value().get());
  // Ground truth straight from the crawl, not just wrapper-vs-cursor.
  auto cursor = reopened.value()->NewCursor();
  LinkView view;
  for (PageId p = 0; p < g.num_pages(); ++p) {
    ASSERT_TRUE(cursor->Links(p, &view).ok()) << "p=" << p;
    auto expected = g.OutLinks(p);
    ASSERT_EQ(view.size(), expected.size()) << "p=" << p;
    EXPECT_TRUE(std::equal(view.begin(), view.end(), expected.begin()))
        << "p=" << p;
  }
}

// Under a tiny cache budget the assembled blocks behind pinned views get
// evicted constantly; the pins must keep every held view's bytes valid,
// and the contents must still match ground truth after heavy churn.
TEST(CursorEquivalenceTest, SNodePinnedViewsSurviveEviction) {
  WebGraph g = TestGraph();
  auto built = SNodeRepr::Build(g, TempPath("snp"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  repr->set_buffer_budget(16 * 1024);  // force eviction on nearly every miss

  // Stream the first pages in natural order and keep every pinned view
  // alive along with a private copy of what it showed at capture time.
  std::vector<PageId> order = NaturalOrder(*repr);
  const size_t kHeld = std::min<size_t>(400, order.size());
  auto cursor = repr->NewCursor();
  std::vector<LinkView> held;
  std::vector<std::pair<PageId, std::vector<PageId>>> captured;
  LinkView view;
  for (size_t i = 0; i < kHeld; ++i) {
    ASSERT_TRUE(cursor->Links(order[i], &view).ok());
    if (view.pinned()) {
      held.push_back(view);
      captured.emplace_back(order[i], view.ToVector());
    }
  }
  ASSERT_FALSE(held.empty())
      << "natural-order streaming never produced a pinned view";

  // Churn the cache hard with a second cursor so the budget evicts the
  // entries behind `held`, then also drop the decode-path buffers.
  auto churn = repr->NewCursor();
  for (PageId p : ScatteredOrder(repr->num_pages())) {
    ASSERT_TRUE(churn->Links(p, &view).ok());
  }
  view = LinkView();
  repr->ClearBuffers();

  // Every held view must still read the bytes it was captured with, and
  // those must equal the ground-truth adjacency.
  for (size_t i = 0; i < held.size(); ++i) {
    const PageId p = captured[i].first;
    ASSERT_EQ(held[i].size(), captured[i].second.size()) << "p=" << p;
    EXPECT_TRUE(std::equal(held[i].begin(), held[i].end(),
                           captured[i].second.begin()))
        << "p=" << p;
    auto expected = g.OutLinks(p);
    ASSERT_EQ(held[i].size(), expected.size()) << "p=" << p;
    EXPECT_TRUE(std::equal(held[i].begin(), held[i].end(), expected.begin()))
        << "p=" << p;
  }

  EXPECT_GT(repr->PinnedCacheEntries(), 0u);
  EXPECT_EQ(repr->stats().views_pinned.value(),
            static_cast<double>(held.size()));
  // Cursors keep a ref on their current assembled block, so drop them
  // along with the views before demanding a fully unpinned cache.
  held.clear();
  cursor.reset();
  churn.reset();
  EXPECT_EQ(repr->PinnedCacheEntries(), 0u);
  EXPECT_EQ(repr->stats().views_pinned.value(), 0.0);
}

// The cursor path must feed the same ReprStats counters the wrapper
// always fed: one adjacency_request per Links call, edges_returned
// matching the returned sizes.
TEST(CursorEquivalenceTest, CursorPathBumpsReprStats) {
  WebGraph g = TestGraph(1000);
  auto repr = HuffmanRepr::Build(g);
  repr->stats().Reset();
  auto cursor = repr->NewCursor();
  LinkView view;
  uint64_t edges = 0;
  for (PageId p = 0; p < 500; ++p) {
    ASSERT_TRUE(cursor->Links(p, &view).ok());
    edges += view.size();
  }
  EXPECT_EQ(repr->stats().adjacency_requests.value(), 500u);
  EXPECT_EQ(repr->stats().edges_returned.value(), edges);
  EXPECT_GT(edges, 0u);
}

TEST(CursorEquivalenceTest, SNodeCursorPathBumpsReprStats) {
  WebGraph g = TestGraph(1000);
  auto built = SNodeRepr::Build(g, TempPath("snm"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  repr->stats().Reset();
  auto cursor = repr->NewCursor();
  LinkView view;
  uint64_t edges = 0;
  std::vector<PageId> order = NaturalOrder(*repr);
  for (PageId p : order) {
    ASSERT_TRUE(cursor->Links(p, &view).ok());
    edges += view.size();
  }
  EXPECT_EQ(repr->stats().adjacency_requests.value(), order.size());
  EXPECT_EQ(repr->stats().edges_returned.value(), edges);
  EXPECT_EQ(edges, g.num_edges());
}

// wg_repr_views_pinned must be exported through the MetricRegistry and
// reflect the live-view balance: up while pinned views exist, back to
// zero when they drop -- including views created before the bind.
TEST(CursorEquivalenceTest, ViewsPinnedGaugeExported) {
  obs::MetricRegistry registry;
  ReprStats stats;
  const PageId data[3] = {1, 2, 3};
  auto owner = std::make_shared<int>(0);

  LinkView pre_bind(data, 3, std::shared_ptr<const void>(owner, data),
                    &stats.views_pinned);
  stats.Register(registry, {{"scheme", "test"}});

  {
    LinkView post_bind(data, 2, std::shared_ptr<const void>(owner, data),
                       &stats.views_pinned);
    LinkView copy = post_bind;  // copies of pinned views count too
    obs::Gauge gauge =
        registry.GetGauge("wg_repr_views_pinned", {{"scheme", "test"}});
    EXPECT_EQ(gauge.value(), 3.0);
    std::string prom = registry.PrometheusText();
    EXPECT_NE(prom.find("wg_repr_views_pinned"), std::string::npos);
    EXPECT_NE(prom.find("scheme=\"test\""), std::string::npos);
  }

  obs::Gauge gauge =
      registry.GetGauge("wg_repr_views_pinned", {{"scheme", "test"}});
  EXPECT_EQ(gauge.value(), 1.0);
  pre_bind = LinkView();
  EXPECT_EQ(gauge.value(), 0.0);

  // Reset() must not disturb the live-view balance.
  LinkView again(data, 1, std::shared_ptr<const void>(owner, data),
                 &stats.views_pinned);
  stats.Reset();
  EXPECT_EQ(gauge.value(), 1.0);
}

}  // namespace
}  // namespace wg
