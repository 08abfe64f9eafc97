#ifndef WG_REPR_REPRESENTATION_H_
#define WG_REPR_REPRESENTATION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/webgraph.h"
#include "obs/metrics.h"
#include "util/status.h"

// The common contract for all five Web-graph representation schemes the
// paper evaluates (uncompressed files, relational, plain Huffman, Link3,
// S-Node). A representation is built once from the ground-truth WebGraph
// and then serves adjacency queries under a fixed memory budget, counting
// its own I/O and decode work. Direction is baked in at build time: to
// navigate backlinks, build a second representation over
// WebGraph::Transpose(), exactly as the paper does for WG^T.
//
// Adjacency is served through a cursor/view API (AdjacencyCursor /
// LinkView below): the hot path hands out borrowed spans over decoded
// data instead of copying every neighbor list into a caller-owned vector.
// GetLinks survives as a thin compatibility wrapper on top of it.

namespace wg {

// Counters are obs::Counter handles (relaxed atomics with value-copy
// semantics, see obs/metrics.h) so representations that serve concurrent
// readers -- SNodeRepr under the server/QueryService thread pool -- can
// bump them without data races, and so every instance can publish its
// counters into the process metric registry. Single-threaded schemes pay
// one uncontended atomic add per bump.
struct ReprStats {
  obs::Counter adjacency_requests;
  obs::Counter edges_returned;
  obs::Counter disk_reads;   // physical read ops (0 for in-memory schemes)
  obs::Counter bytes_read;   // physical bytes read
  // Disk-model accounting (see storage/file.h): non-sequential reads and
  // total transferred bytes including skipped near gaps. Experiments price
  // these with 2001-era disk constants.
  obs::Counter disk_seeks;
  obs::Counter disk_transfer_bytes;
  obs::Counter cache_hits;
  obs::Counter cache_misses;   // S-Node: blobs demand reads load from disk
  obs::Counter graphs_loaded;  // S-Node: lower-level graphs decoded
  // Build-side counters, bumped by SNodeRepr::Build's encode workers (many
  // threads at once when SNodeBuildOptions::threads > 1) -- they must stay
  // atomic like the read-path counters above.
  obs::Counter graphs_encoded;  // lower-level graphs compressed
  obs::Counter encoded_bytes;   // bytes produced by the encoders

  // Live pinned LinkViews handed out by this representation: views whose
  // pin keeps a cache-resident decoded block alive. Maintained by
  // LinkView's RAII accounting; must read 0 once every view is dropped.
  obs::Gauge views_pinned;

  // Binds every counter to `registry` series named wg_repr_*_total (plus
  // the wg_repr_views_pinned gauge) with the given base labels (each
  // scheme instance adds {"scheme",name()} + a unique {"instance",N}, so
  // concurrent instances never share cells). Values accumulated before
  // the bind are folded into the registry cells; Reset() keeps the
  // binding (it zeroes the cells in place).
  void Register(obs::MetricRegistry& registry, const obs::Labels& labels);

  // Zeroes the cumulative counters in place (registry bindings survive).
  // views_pinned is deliberately left alone: it tracks live views, not
  // cumulative work, and outstanding views still decrement it on drop.
  void Reset() {
    adjacency_requests = 0;
    edges_returned = 0;
    disk_reads = 0;
    bytes_read = 0;
    disk_seeks = 0;
    disk_transfer_bytes = 0;
    cache_hits = 0;
    cache_misses = 0;
    graphs_loaded = 0;
    graphs_encoded = 0;
    encoded_bytes = 0;
  }
};

// Tracks a monotone (seeks, transferred) counter pair and feeds deltas into
// ReprStats; reprs call Absorb after each physical load.
struct DiskCounterTracker {
  uint64_t last_seeks = 0;
  uint64_t last_transfer = 0;
  void Absorb(uint64_t seeks, uint64_t transfer, ReprStats* stats) {
    stats->disk_seeks += seeks - last_seeks;
    stats->disk_transfer_bytes += transfer - last_transfer;
    last_seeks = seeks;
    last_transfer = transfer;
  }
};

// A borrowed, sorted neighbor list: a span over PageIds owned elsewhere.
// Two backing modes:
//
//  * Cursor-scratch backed (no pin): the data lives in the producing
//    cursor's reusable scratch buffer and stays valid until the next
//    Links() call on that cursor (or the cursor's destruction).
//  * Pinned (pin() != nullptr): the refcounted pin keeps the backing
//    decoded block -- typically an S-Node cache entry -- alive for the
//    life of the view, so the view survives cursor reuse and concurrent
//    cache eviction. Pinned views must still not outlive the
//    representation itself (the pin protects the decoded block, not the
//    repr's resident structures or its stats).
//
// Pinned views maintain the owning scheme's wg_repr_views_pinned gauge:
// construction/copy increment it, destruction decrements it, so the
// metric exposition shows outstanding pins at any instant.
class LinkView {
 public:
  LinkView() = default;

  // Unpinned view over cursor scratch (or any longer-lived array).
  LinkView(const PageId* data, size_t size) : data_(data), size_(size) {}

  // Pinned view: `pin` keeps the backing block alive; `pin_gauge` (may be
  // nullptr) is the owning scheme's live-pin gauge.
  LinkView(const PageId* data, size_t size, std::shared_ptr<const void> pin,
           const obs::Gauge* pin_gauge = nullptr)
      : data_(data), size_(size), pin_(std::move(pin)), gauge_(pin_gauge) {
    if (gauge_ != nullptr) gauge_->Add(1);
  }

  LinkView(const LinkView& other)
      : data_(other.data_),
        size_(other.size_),
        pin_(other.pin_),
        gauge_(other.gauge_) {
    if (gauge_ != nullptr) gauge_->Add(1);
  }

  LinkView(LinkView&& other) noexcept
      : data_(other.data_),
        size_(other.size_),
        pin_(std::move(other.pin_)),
        gauge_(other.gauge_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.gauge_ = nullptr;
  }

  // Unified copy/move assignment: the by-value parameter does the gauge
  // bookkeeping through the constructors above.
  LinkView& operator=(LinkView other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(pin_, other.pin_);
    std::swap(gauge_, other.gauge_);
    return *this;
  }

  ~LinkView() {
    if (gauge_ != nullptr) gauge_->Add(-1);
  }

  const PageId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const PageId* begin() const { return data_; }
  const PageId* end() const { return data_ + size_; }
  PageId operator[](size_t i) const { return data_[i]; }
  PageId front() const { return data_[0]; }
  PageId back() const { return data_[size_ - 1]; }

  // Non-null iff the view holds a pin on a cache-resident block.
  const std::shared_ptr<const void>& pin() const { return pin_; }
  bool pinned() const { return pin_ != nullptr; }

  void AppendTo(std::vector<PageId>* out) const {
    out->insert(out->end(), begin(), end());
  }
  std::vector<PageId> ToVector() const {
    return std::vector<PageId>(begin(), end());
  }

 private:
  const PageId* data_ = nullptr;
  size_t size_ = 0;
  std::shared_ptr<const void> pin_;
  const obs::Gauge* gauge_ = nullptr;
};

// A streaming adjacency reader over one representation. Cursors own the
// scratch buffers the unpinned views point into, so a multi-page visit
// (BFS level, neighborhood union, bulk export, one server request) pays
// zero per-page allocations once the scratch is warm. Cursors are
// single-threaded objects -- one per visiting thread/request -- but any
// number of cursors may read one representation concurrently when the
// scheme itself is concurrent-safe (S-Node; the baselines are not).
class AdjacencyCursor {
 public:
  virtual ~AdjacencyCursor() = default;

  // Points *view at the sorted out-links of `p`. The view stays valid
  // until the next Links() call on this cursor -- longer if it carries a
  // pin (see LinkView). Bumps the scheme's adjacency_requests and
  // edges_returned stats.
  virtual Status Links(PageId p, LinkView* view) = 0;
};

class GraphRepresentation {
 public:
  virtual ~GraphRepresentation() = default;

  virtual std::string name() const = 0;
  virtual size_t num_pages() const = 0;
  virtual uint64_t num_edges() const = 0;

  // Creates a streaming reader; the canonical adjacency read path.
  virtual std::unique_ptr<AdjacencyCursor> NewCursor() = 0;

  // Compatibility wrapper over NewCursor()/Links(): appends the links of
  // `p` (out-links of the graph this representation was built over) to
  // *out, sorted ascending. One cursor per call; hot paths should hold a
  // cursor instead.
  Status GetLinks(PageId p, std::vector<PageId>* out);

  // All pages belonging to `domain`, sorted (the domain index every scheme
  // carries in the paper's setup).
  virtual Status PagesInDomain(const std::string& domain,
                               std::vector<PageId>* out) = 0;

  // Visits the links of each page of `sources` (any order of visitation;
  // one callback per source) that fall inside the sorted page set
  // `targets`. The default streams full adjacency views through one
  // cursor and intersects into a reused buffer; schemes with a structural
  // index (S-Node's supernode graph) override this to skip encoded graphs
  // that cannot contain matching links -- the paper's "top-level graph
  // serves the role of an index".
  virtual Status VisitLinksInto(
      const std::vector<PageId>& sources, const std::vector<PageId>& targets,
      const std::function<void(PageId, const std::vector<PageId>&)>& visit) {
    std::unique_ptr<AdjacencyCursor> cursor = NewCursor();
    std::vector<PageId> filtered;
    LinkView links;
    for (PageId p : sources) {
      WG_RETURN_IF_ERROR(cursor->Links(p, &links));
      filtered.clear();
      for (PageId q : links) {
        if (std::binary_search(targets.begin(), targets.end(), q)) {
          filtered.push_back(q);
        }
      }
      visit(p, filtered);
    }
    return Status::OK();
  }

  // Key such that pages with nearby keys are physically close in this
  // scheme's storage; batch operations visit pages in key order to turn
  // scattered requests into near-sequential ones (the paper's Section 3.3
  // disk layout makes exactly this access pattern cheap).
  virtual uint64_t LocalityKey(PageId p) const { return p; }

  // The i-th page in this scheme's own storage order. Sequential-scan
  // experiments (paper Table 2) iterate "in the order of page identifiers";
  // each scheme's identifiers are its internal order (URL order for Link3,
  // supernode order for S-Node), so a faithful sequential scan must follow
  // it. Default: external id order.
  virtual PageId PageInNaturalOrder(size_t i) const {
    return static_cast<PageId>(i);
  }

  // Size in bits of the encoded adjacency structure, excluding the resident
  // page-id/domain indexes (the paper's bits/edge metric divides encoded
  // graph size by edge count).
  virtual uint64_t encoded_bits() const = 0;

  double BitsPerEdge() const {
    return num_edges() == 0
               ? 0.0
               : static_cast<double>(encoded_bits()) / num_edges();
  }

  // Bytes of memory pinned for the lifetime of the representation
  // (resident indexes; for in-memory schemes this includes the encoding).
  virtual size_t resident_memory() const = 0;

  // Drops buffered/cached disk state (no-op for in-memory schemes).
  // Experiments use this to measure cold navigation, since at 1:1000
  // scale per-query footprints fit in buffers that the paper's full-scale
  // working sets overflowed.
  virtual void ClearBuffers() {}

  ReprStats& stats() { return stats_; }
  const ReprStats& stats() const { return stats_; }

 protected:
  // Publishes this instance's counters into the default metric registry
  // under {scheme=<scheme>, instance=<unique ordinal>}. Each scheme's
  // Build/Open calls this once the instance identity is known.
  void RegisterStats(const std::string& scheme) {
    stats_.Register(
        obs::MetricRegistry::Default(),
        {{"scheme", scheme},
         {"instance", std::to_string(obs::NextInstanceId())}});
  }

  ReprStats stats_;
};

}  // namespace wg

#endif  // WG_REPR_REPRESENTATION_H_
