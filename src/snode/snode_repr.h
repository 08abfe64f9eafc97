#ifndef WG_SNODE_SNODE_REPR_H_
#define WG_SNODE_SNODE_REPR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "repr/representation.h"
#include "snode/codecs.h"
#include "snode/graph_cache.h"
#include "snode/refinement.h"
#include "snode/section_encode.h"
#include "snode/supernode_graph.h"
#include "storage/graph_store.h"
#include "storage/serial.h"
#include "util/status.h"

// The paper's contribution: the two-level S-Node representation, exposed
// through the common GraphRepresentation interface so it can be compared
// head-to-head with the baseline schemes.
//
// Resident (pinned) state: the supernode graph, the PageID range index,
// the domain index, and the crawl-order <-> S-Node-order permutations.
// Lower-level graphs live in the GraphStore on disk and are decoded on
// demand: a lone probe decodes its section into per-thread scratch, and a
// byte-budgeted sharded LRU cache holds assembled sections (plus the
// per-graph entries VisitLinksInto and decode-ahead load). The load
// counters in ReprStats (graphs_loaded, disk seeks and transfer) are the
// instrumentation the paper used to explain Figures 11/12.
//
// One read path: every byte this repr reads from the store goes through
// ReadSectionBlobs, whether for a lone probe, a VisitLinksInto fetch, a
// decode-ahead, or a supernode assembly, and every such read is one whole
// section. The store (storage/graph_store.h) owns the pread and the
// section's CRC check. ReadSectionBlobs owns what a read
// means here: the quarantined-section check and quarantine on corruption,
// io_mutex_ with the disk-model charge, the storage trace span, and every
// load counter (disk_reads, bytes_read, graphs_loaded, cache_misses,
// wg_cold_* by source).
//
// Concurrency: after Build/Open, the read path (GetLinks, VisitLinksInto,
// PagesInDomain) is safe to call from many threads at once -- this is what
// the server/QueryService worker pool relies on. The resident structures
// are immutable; the decoded-graph cache is sharded and singleflighted
// (snode/graph_cache.h); physical reads and the disk-model tracker are
// serialized behind io_mutex_ (one spindle in the paper's disk model),
// decoding is not; ReprStats counters are atomics.

namespace wg {

struct SNodeBuildOptions {
  RefinementOptions refinement;
  IntranodeEncodeOptions intranode;
  SuperedgeEncodeOptions superedge;
  GraphStore::Options store;
  // Worker threads for the build: refinement-pass evaluation and
  // intranode/superedge graph encoding. <= 0 means
  // ParallelExecutor::HardwareThreads(). Overrides refinement.threads.
  // The store files and the resident structures are byte-for-byte
  // identical for every value (encode into per-graph buffers, write in
  // supernode order); threads changes build wall-clock only.
  int threads = 1;
  // Budget for decoded lower-level graphs.
  size_t buffer_bytes = 4 << 20;
  // Locality decode-ahead: when a cursor takes a cold miss into a
  // supernode section, a background executor decodes the next N sections
  // in layout order (= LocalityKey order, the order a sweep will want
  // them) into the cache. 0 disables.
  int decode_ahead_sections = 0;
};

// The resident half of an S-Node representation, separated from the repr
// object so the versioned-snapshot layer (src/version) can assemble a
// generation from a manifest: the crawl-order -> S-Node-order permutation,
// the supernode graph (with its domain index), and the edge count. Only
// what cannot be derived is stored: FromParts derives the inverse
// permutation, and SupernodeGraph::FirstBlob the blob ids. Serialize/Parse
// are the `.meta` payload format; Parse checks syntax only, FromParts
// checks meaning.
struct SNodeResidentState {
  std::vector<PageId> new_of_orig;
  SupernodeGraph supernodes;
  uint64_t num_edges = 0;

  void Serialize(std::string* out) const;
  static Result<SNodeResidentState> Parse(SerialCursor* cursor);
};

class PrefetchExecutor;

// Data plane of the numbering/encode/layout half of the build: the counts
// plus two accessors, which is all that half ever asks of a WebGraph. The
// classic build binds a resident graph; the streaming build serves these
// from spill files. Both funnel into BuildFromPartitionSource, so equal
// answers give byte-identical stores.
struct SNodeBuildSource {
  size_t num_pages = 0;
  uint64_t num_edges = 0;
  // Appends page p's out-links (original ids, sorted ascending) to *out.
  // Must be thread-safe when options.threads > 1.
  SectionLinksFn links_of;
  // Domain name owning page p (called once per element, with its first
  // page -- every partition element stays inside one domain).
  std::function<std::string(PageId)> domain_name_of;
};

// Who initiated a cold blob load -- demand read (a query is waiting) or
// decode-ahead (the locality executor running ahead of a cursor).
// Exposition splits the wg_cold_* series by this so a dashboard can tell a
// cold-read cliff from speculative decode I/O.
enum class SNodeLoadSource { kDemand = 0, kDecodeAhead = 1 };

// Cold-path counters (registry series wg_cold_*), split by load source.
struct SNodeColdStats {
  obs::Counter demand_blobs, demand_bytes;
  obs::Counter decode_ahead_blobs, decode_ahead_bytes;
  obs::Counter assembles;  // supernode CSR assemblies (cold cursor work)
  void Register(obs::MetricRegistry& registry, const obs::Labels& labels);
  void Bump(SNodeLoadSource source, uint64_t blobs, uint64_t bytes);
};

class SNodeRepr : public GraphRepresentation {
 public:
  // Builds the complete representation: runs iterative refinement,
  // installs the paper's numbering rule, reference-encodes every
  // intranode/superedge graph, and lays them out in the graph store with
  // each intranode graph followed by its outgoing superedge graphs.
  // Store files are created under `base_path`.
  static Result<std::unique_ptr<SNodeRepr>> Build(
      const WebGraph& graph, const std::string& base_path,
      const SNodeBuildOptions& options, RefinementStats* stats = nullptr);

  // The second half of Build: numbering, encode, and layout over an
  // already-refined partition. Exposed for the versioned-snapshot layer,
  // whose byte-identity contract ("incremental generation == from-scratch
  // rebuild, per section") is defined against this entry point with the
  // deterministically maintained partition -- both paths then funnel
  // through EncodeSupernodeSection and the pure codecs, so equal inputs
  // give equal bytes. Fills stats->encode/layout/total_seconds (adding any
  // refine_seconds the caller already recorded into total).
  static Result<std::unique_ptr<SNodeRepr>> BuildFromPartition(
      const WebGraph& graph, const Partition& partition,
      const std::string& base_path, const SNodeBuildOptions& options,
      RefinementStats* stats = nullptr);

  // The same half against an abstract data plane (SNodeBuildSource).
  // BuildFromPartition is a thin binding of this to a resident WebGraph;
  // the streaming build (snode/streaming_build.h) binds it to a spilled
  // crawl. Byte-identity across the two follows from the sources
  // answering identically.
  static Result<std::unique_ptr<SNodeRepr>> BuildFromPartitionSource(
      const SNodeBuildSource& source, const Partition& partition,
      const std::string& base_path, const SNodeBuildOptions& options,
      RefinementStats* stats = nullptr);

  // Assembles a repr from parts produced elsewhere: a resident state and
  // an open store laid out as the state's supernode graph says
  // (SupernodeGraph::FirstBlob). This is how a snapshot generation becomes
  // queryable -- the manifest supplies the store (possibly spanning pack
  // files from several generations) and the embedded resident payload.
  // Only runtime options (buffer budget, decode-ahead) from `options`
  // apply. Derives the inverse permutation. Returns Corruption when the
  // state is inconsistent: new_of_orig is not a permutation, page ranges
  // or superedge offsets do not ascend to their totals, a superedge target
  // or domain entry is past the last supernode, or a store section holds a
  // different number of graphs than the supernode graph lays out there.
  static Result<std::unique_ptr<SNodeRepr>> FromParts(
      SNodeResidentState state, std::unique_ptr<GraphStore> store,
      const std::string& base_path, const SNodeBuildOptions& options);

  // Persists the resident state (permutations, supernode graph, domain
  // index, store directory) to `<base_path>.meta`, so the representation
  // can later be attached without rebuilding. The store files written by
  // Build are reused as-is.
  Status SaveMeta() const;

  // Attaches to a representation previously built at `base_path` and
  // persisted with SaveMeta. Only runtime options (buffer budget,
  // decode-ahead) from `options` apply; the encoded data is taken from
  // disk. A missing `.meta` is NotFound.
  static Result<std::unique_ptr<SNodeRepr>> Open(
      const std::string& base_path, const SNodeBuildOptions& options);

  std::string name() const override { return "s-node"; }
  size_t num_pages() const override { return new_of_orig_.size(); }
  uint64_t num_edges() const override { return num_edges_; }

  // Streaming cursor (repr/representation.h). A lone Links() probe
  // decodes its section into per-thread scratch and caches nothing
  // (CollectPageLinks). A supernode's full external adjacency is
  // assembled into a cache-resident CSR block -- and every further page
  // of it served as a zero-copy pinned view -- when the cursor sees a
  // second consecutive page in it (a streak), or when a probe lands in a
  // section probed recently enough that its block would still be cached
  // (ProbeWithinReach). Assembled blocks share the decoded-graph cache
  // (budget, LRU, singleflight); eviction cannot invalidate live views
  // because the view's pin shares ownership of the entry.
  std::unique_ptr<AdjacencyCursor> NewCursor() override;
  Status PagesInDomain(const std::string& domain,
                       std::vector<PageId>* out) override;
  PageId PageInNaturalOrder(size_t i) const override {
    return orig_of_new_[i];
  }
  uint64_t LocalityKey(PageId p) const override { return new_of_orig_[p]; }

  // Predicate pushdown through the supernode graph: only superedge graphs
  // whose target supernode intersects `targets` are loaded and decoded.
  Status VisitLinksInto(
      const std::vector<PageId>& sources, const std::vector<PageId>& targets,
      const std::function<void(PageId, const std::vector<PageId>&)>& visit)
      override;
  uint64_t encoded_bits() const override;
  size_t resident_memory() const override;

  ~SNodeRepr() override;

  const SupernodeGraph& supernode_graph() const { return supernodes_; }
  const GraphStore& store() const { return *store_; }

  // Best-effort page-cache eviction of the store files plus a cache
  // clear: the true cold state a first query after process start sees.
  // Used by cold-read benchmarks.
  void DropToColdState();

  const SNodeColdStats& cold_stats() const { return cold_stats_; }

  // Decoded-graph cache controls (Figure 12 sweeps the budget).
  void set_buffer_budget(size_t bytes) { cache_->set_budget(bytes); }
  size_t buffer_budget() const { return cache_->budget(); }
  size_t buffer_bytes_used() const { return cache_->bytes_used(); }

  void ClearCache() { cache_->Clear(); }
  void ClearBuffers() override { ClearCache(); }

  // Cache entries currently held outside the cache (live LinkView pins or
  // readers mid-walk); 0 once every view is dropped.
  size_t PinnedCacheEntries() const { return cache_->PinnedEntries(); }

  // True when `supernode`'s section was quarantined after a corrupt read:
  // store reads of it fail fast with Unavailable (one request fails, the
  // process and every other section keep serving) until the store is
  // repaired and the generation reloaded. Graphs of the section already
  // in the cache were decoded from verified bytes and keep serving.
  bool SectionQuarantined(uint32_t supernode) const;
  size_t QuarantinedSectionCount() const;

 private:
  class Cursor;

  // Sets the runtime half (options, cache, stats registration); Install
  // adds the resident state and the store.
  SNodeRepr(std::string base_path, const SNodeBuildOptions& options);

  // The tail of Build and FromParts: checks `state` against `store`,
  // derives the inverse permutation (the one permutation check), installs
  // both, and starts the runtime (cold-path counters, decode-ahead
  // executor). Corruption when the state is inconsistent (see FromParts).
  Status Install(SNodeResidentState state, std::unique_ptr<GraphStore> store);

  using EntryPtr = ShardedGraphCache::EntryPtr;

  // Cache key of supernode s's assembled-adjacency block. Blob (graph) ids
  // occupy [0, num_graphs); assembled blocks live past them in the key space
  // so they share the cache's sharding, budget, and singleflight.
  uint32_t AssembledKey(uint32_t supernode) const;

  // Fully remapped, sorted external adjacency of every page in
  // `supernode`, built from GatherSection's graphs and published into the
  // cache under AssembledKey (singleflighted). `scratch_stamp` is the
  // stamp of the cursor's last lone probe, whose scratch decode a streak
  // consumes instead of reading the section again (0: none).
  Result<EntryPtr> AssembleSupernode(uint32_t supernode,
                                     uint64_t scratch_stamp = 0);

  // A section's graphs as GatherSection hands them out: each pointer aims
  // into a pinned cache entry or the calling thread's scratch (valid until
  // that thread's next gather).
  struct SectionGraphs {
    const IntranodeGraph* intranode = nullptr;
    std::vector<const SuperedgeGraph*> superedges;  // by outgoing superedge
    std::vector<EntryPtr> pins;
  };

  // The one gather of a whole section, shared by lone probes and
  // assembly. Graphs the calling thread's scratch still holds from the
  // probe stamped `scratch_stamp` (nonzero) are reused; graphs already in
  // the cache are pinned; the rest are read with one ReadSectionBlobs call
  // and decoded into the thread's scratch, which is then stamped with
  // `scratch_stamp`. Publishes nothing.
  Status GatherSection(uint32_t supernode, uint64_t scratch_stamp,
                       SectionGraphs* graphs);

  // Appends the full external adjacency of page `p` (sorted) to *out: the
  // lone probe. Gathers p's section into per-thread scratch under
  // `stamp`, then walks p's intranode row and its row in every outgoing
  // superedge graph. Caches nothing. Bumps I/O and cache counters but not
  // the request/edge counters (callers own those).
  Status CollectPageLinks(PageId p, uint64_t stamp, std::vector<PageId>* out);

  // Ticks the probe clock for a lone probe of `supernode` and returns its
  // stamp in *stamp. True when the section's previous probe lies within
  // the cache's reach: fewer probes ago than the cache budget holds
  // assembled sections of mean size (4 bytes per page, supernode and edge,
  // over the supernode count), so its block would still be cached had that
  // probe assembled it. A cache smaller than one such section never admits.
  bool ProbeWithinReach(uint32_t supernode, uint64_t* stamp);

  // Claim-read-publish over `supernode`'s section, the fetch behind
  // VisitLinksInto and decode-ahead. Pins every cached graph marked in
  // `need` into (*graphs)[b] (b: the graph's index in the section), then
  // claims without blocking every graph -- all of the section's when
  // `all` is set, else those marked in `need` -- that is neither cached
  // nor in flight, reads the section once for them, and decodes and
  // publishes each, pinning the needed ones. Needed graphs in flight on
  // another thread stay null: their owners publish them. `need` and
  // `graphs` may be null when nothing is needed.
  Status PrefetchSection(uint32_t supernode, SNodeLoadSource source, bool all,
                         const std::vector<uint8_t>* need,
                         std::vector<EntryPtr>* graphs);

  // Read-through fetch of the graphs of `supernode`'s section marked in
  // `need`, for VisitLinksInto: one PrefetchSection (the whole section
  // decoded when SectionWorthPrefetching), then, holding no claims, a
  // wait for the graphs other threads had in flight. (*graphs)[b] pins
  // every needed graph for the caller regardless of concurrent eviction.
  Status LoadSectionGraphs(uint32_t supernode, const std::vector<uint8_t>& need,
                           std::vector<EntryPtr>* graphs);

  // Hands sections supernode+1 .. supernode+decode_ahead_sections to the
  // background executor (no-op when decode-ahead is off).
  void MaybeDecodeAhead(uint32_t supernode);

  // True if enough of the section is wanted that decoding (and caching)
  // all of its graphs beats decoding just the wanted ones.
  bool SectionWorthPrefetching(uint32_t supernode, size_t graphs_needed) const;

  // The one store read (see the header comment): reads `supernode`'s
  // section (one pread, one CRC) and hands each blob in `wanted`
  // (ascending ids of the section) to `decode`, whose bytes are borrowed
  // for the call only. Fails fast with Unavailable on a quarantined
  // section and quarantines it when the bytes prove corrupt. The caller
  // resolves its cache claims from the returned status.
  using BlobDecodeFn =
      std::function<Status(uint32_t blob_id, const uint8_t* data, size_t size)>;
  Status ReadSectionBlobs(uint32_t supernode,
                          const std::vector<uint32_t>& wanted,
                          SNodeLoadSource source, const BlobDecodeFn& decode);

  // The one decode dispatch: decodes store blob `blob_id` of `supernode`'s
  // section from [data, data+size) into the intranode or superedge graph
  // of *entry, reusing the graph object already there (the per-thread
  // gather scratch) or allocating it (a fresh cache entry). An intranode
  // graph whose page count differs from the section's page range is
  // Corruption, so ReadSectionBlobs quarantines the section instead of a
  // reader indexing past the graph.
  Status DecodeSectionBlob(uint32_t supernode, uint32_t blob_id,
                           const uint8_t* data, size_t size,
                           ShardedGraphCache::Entry* entry) const;

  // Immutable after Build.
  std::string base_path_;
  std::vector<PageId> new_of_orig_;
  std::vector<PageId> orig_of_new_;  // derived by Install
  SupernodeGraph supernodes_;
  std::unique_ptr<GraphStore> store_;
  uint64_t num_edges_ = 0;
  SNodeBuildOptions options_;

  // Decoded-graph cache, sharded by blob id (snode/graph_cache.h).
  // Created by the constructor once the options are known (shards hold
  // mutexes, so the cache is not reassignable in place).
  std::unique_ptr<ShardedGraphCache> cache_;

  // Cold-path attribution counters (wg_cold_* series).
  SNodeColdStats cold_stats_;

  // Process-unique id of this repr (its wg_cold_* instance label); tags
  // the per-thread gather scratch so no other repr's graphs are reused.
  uint64_t instance_id_ = 0;

  // Lone-probe admission (ProbeWithinReach): a clock ticked by every
  // lone probe, the clock value of each section's last probe (0: never),
  // and the mean assembled-section bytes the reach is measured in. Relaxed
  // atomics -- a lost race only misjudges one admission.
  std::atomic<uint64_t> probe_clock_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> last_probe_;
  double assembled_section_bytes_ = 0;

  // Background decode-ahead executor (null when
  // options_.decode_ahead_sections == 0). Declared after the state its
  // worker reads; the destructor stops it before members die.
  std::unique_ptr<PrefetchExecutor> decode_ahead_;

  // Serializes every store read and the monotone disk-model tracker (the
  // paper's testbed has one disk; concurrent readers queue on it). Taken
  // only in ReadSectionBlobs.
  mutable std::mutex io_mutex_;
  DiskCounterTracker disk_tracker_;

  // One bit per supernode section, set when a read of it proved corrupt
  // (allocated by Install; relaxed ops -- a race on first set only costs
  // one extra failing read).
  std::unique_ptr<std::atomic<uint64_t>[]> section_quarantined_;
};

}  // namespace wg

#endif  // WG_SNODE_SNODE_REPR_H_
