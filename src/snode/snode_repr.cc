#include "snode/snode_repr.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "snode/section_encode.h"
#include "storage/integrity.h"
#include "storage/serial.h"
#include "util/coding.h"
#include "util/parallel.h"

namespace wg {

namespace {

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Encode workers hold many sections in memory before the layout phase
// drains them; windowing bounds that footprint without serializing
// anything inside a window.
constexpr uint32_t kEncodeWindow = 4096;

// Lock shards of the decoded-graph cache: concurrent readers contend only
// when their graphs hash to the same shard.
constexpr size_t kCacheShards = 8;

// Decode scratch for GatherSection, one per thread and shared by lone
// probes and supernode assembly (so a worker holds at most one section's
// graphs outside the cache). Slot b holds blob b of the tagged section;
// the graph objects are grow-only, so their vectors keep their high-water
// capacity across sections. The tag -- repr instance, section, probe
// stamp -- scopes reuse to the streak that starts with the stamped probe.
struct SectionScratch {
  uint64_t owner = UINT64_MAX;
  uint32_t supernode = UINT32_MAX;
  uint64_t stamp = 0;
  std::vector<ShardedGraphCache::Entry> entries;
  std::vector<uint8_t> valid;  // slot decoded for the tag
};

SectionScratch& ThreadScratch() {
  thread_local SectionScratch scratch;
  return scratch;
}

}  // namespace

void SNodeColdStats::Register(obs::MetricRegistry& registry,
                              const obs::Labels& labels) {
  assembles.Bind(registry, "wg_cold_assembles_total", labels,
                 "Supernode CSR assemblies (cold cursor work)");
}

Result<std::unique_ptr<SNodeRepr>> SNodeRepr::Build(
    const WebGraph& graph, const std::string& base_path,
    const SNodeBuildOptions& options, RefinementStats* stats) {
  // 1. Iterative partition refinement (elements come out URL-sorted).
  SNodeBuildOptions resolved = options;
  resolved.threads = options.threads > 0 ? options.threads
                                         : ParallelExecutor::HardwareThreads();
  resolved.refinement.threads = resolved.threads;
  Partition partition;
  {
    obs::Span span("build.refine", "build");
    partition = RefinePartition(graph, resolved.refinement, stats);
  }
  return BuildFromPartition(graph, partition, base_path, resolved, stats);
}

Result<std::unique_ptr<SNodeRepr>> SNodeRepr::BuildFromPartition(
    const WebGraph& graph, const Partition& partition,
    const std::string& base_path, const SNodeBuildOptions& options,
    RefinementStats* stats) {
  SNodeBuildSource source;
  source.num_pages = graph.num_pages();
  source.num_edges = graph.num_edges();
  source.links_of = [&graph](PageId p, std::vector<PageId>* out) {
    for (PageId q : graph.OutLinks(p)) out->push_back(q);
    return Status::OK();
  };
  source.domain_name_of = [&graph](PageId p) {
    return graph.domain_name(graph.domain_id(p));
  };
  return BuildFromPartitionSource(source, partition, base_path, options,
                                  stats);
}

Result<std::unique_ptr<SNodeRepr>> SNodeRepr::BuildFromPartitionSource(
    const SNodeBuildSource& source, const Partition& partition,
    const std::string& base_path, const SNodeBuildOptions& options,
    RefinementStats* stats) {
  auto t_total = std::chrono::steady_clock::now();
  std::unique_ptr<SNodeRepr> repr(new SNodeRepr(base_path, options));

  int threads = options.threads > 0 ? options.threads
                                    : ParallelExecutor::HardwareThreads();
  ParallelExecutor executor(threads);

  WG_RETURN_IF_ERROR(partition.Validate(source.num_pages));
  uint32_t n_super = static_cast<uint32_t>(partition.num_elements());

  // 2. Numbering rule: supernodes in order, pages URL-sorted within, so
  //    each supernode owns a contiguous new-id range.
  SNodeResidentState state;
  state.num_edges = source.num_edges;
  SupernodeGraph& sg = state.supernodes;
  NumberPages(partition, source.num_pages, &state.new_of_orig,
              &sg.page_start);
  std::vector<uint32_t> owner = partition.ElementOf(source.num_pages);

  // 3. Encode each supernode's intranode graph and its outgoing superedge
  //    graphs into per-graph byte buffers -- independent per supernode, so
  //    a window of sections is compressed in parallel -- then append the
  //    buffers to the store serially in exactly the paper's order: each
  //    intranode graph immediately followed by its superedge graphs (the
  //    linear disk layout, Figure 8, which SupernodeGraph::FirstBlob
  //    derives blob ids from). Because the layout loop below is the only
  //    writer and walks supernodes in order, the store files are
  //    byte-identical for every thread count. The per-section work lives
  //    in EncodeSupernodeSection, shared with the incremental maintenance
  //    path (src/version) so both produce identical bytes.
  WG_ASSIGN_OR_RETURN(std::unique_ptr<GraphStore> store,
                      GraphStore::Create(base_path, options.store));

  const SectionLinksFn& links_of = source.links_of;

  double encode_seconds = 0;
  double layout_seconds = 0;
  sg.offsets.push_back(0);
  std::vector<EncodedSection> sections(
      std::min<uint32_t>(n_super, kEncodeWindow));
  std::mutex encode_mutex;
  Status encode_status;
  for (uint32_t window = 0; window < n_super; window += kEncodeWindow) {
    uint32_t window_end = std::min(n_super, window + kEncodeWindow);

    // Parallel encode: workers read only immutable state (the graph, the
    // partition, owner, the numbering built in step 2) and write disjoint
    // sections; the stats bumps are relaxed atomics. The span covers the
    // whole window on the building thread (worker internals are inside).
    auto t_encode = std::chrono::steady_clock::now();
    auto encode_one = [&](size_t s_index) {
      uint32_t s = static_cast<uint32_t>(s_index);
      EncodedSection& section = sections[s - window];
      Status encoded = EncodeSupernodeSection(
          s, partition.elements[s], links_of, owner, state.new_of_orig,
          sg.page_start, options.intranode, options.superedge, &section);
      if (!encoded.ok()) {
        std::lock_guard<std::mutex> lock(encode_mutex);
        if (encode_status.ok()) encode_status = encoded;
        return;
      }
      repr->stats_.encoded_bytes += section.total_bytes();
      repr->stats_.graphs_encoded += section.graphs.size();
    };
    {
      obs::Span encode_span("build.encode", "build");
      encode_span.AddArg("window_first", window);
      encode_span.AddArg("window_size", window_end - window);
      executor.ParallelFor(window, window_end, encode_one);
    }
    WG_RETURN_IF_ERROR(encode_status);
    encode_seconds += SecondsSince(t_encode);

    // Ordered layout: single-threaded, supernode order, intranode first.
    auto t_layout = std::chrono::steady_clock::now();
    obs::Span layout_span("build.layout", "build");
    layout_span.AddArg("window_first", window);
    for (uint32_t s = window; s < window_end; ++s) {
      EncodedSection& section = sections[s - window];
      WG_RETURN_IF_ERROR(store->AppendSection(section.graphs).status());
      sg.targets.insert(sg.targets.end(), section.targets.begin(),
                        section.targets.end());
      sg.offsets.push_back(static_cast<uint32_t>(sg.targets.size()));
    }
    layout_seconds += SecondsSince(t_layout);
  }

  // 4. Domain index: every element stays inside one domain.
  for (uint32_t s = 0; s < n_super; ++s) {
    PageId first = partition.elements[s].front();
    sg.domain_supernodes[source.domain_name_of(first)].push_back(s);
  }

  if (stats != nullptr) {
    stats->encode_seconds = encode_seconds;
    stats->layout_seconds = layout_seconds;
    // Refinement (if the caller ran it) happened before this function, so
    // total = its wall-clock plus everything from numbering through the
    // domain index.
    stats->total_seconds = stats->refine_seconds + SecondsSince(t_total);
    stats->PublishTo(
        obs::MetricRegistry::Default(),
        {{"build", std::to_string(obs::NextInstanceId())}});
  }
  WG_RETURN_IF_ERROR(repr->Install(std::move(state), std::move(store)));
  return repr;
}

namespace {
// Bumped to SNM2 when the blob directory gained per-blob CRCs, to SNM3
// when intranode lists dropped their per-list id (pack blobs written under
// SNM2 decode differently), and to SNM4 when the resident state stopped
// storing blob ids and the directory its max_file_size, and to SNM5 when
// the directory became one entry per section plus a length per graph.
constexpr char kMetaMagic[4] = {'S', 'N', 'M', '5'};
}  // namespace

void SNodeResidentState::Serialize(std::string* out) const {
  PutVarint64(out, new_of_orig.size());
  PutVarint64(out, num_edges);
  for (PageId nid : new_of_orig) PutVarint32(out, nid);

  const SupernodeGraph& sg = supernodes;
  PutVarint64(out, sg.num_supernodes());
  for (size_t i = 0; i < sg.page_start.size(); ++i) {
    PutVarint32(out, sg.page_start[i]);
  }
  for (size_t i = 0; i < sg.offsets.size(); ++i) {
    PutVarint32(out, sg.offsets[i]);
  }
  PutVarint64(out, sg.targets.size());
  for (uint32_t t : sg.targets) PutVarint32(out, t);
  PutVarint64(out, sg.domain_supernodes.size());
  for (const auto& [name, supernodes_in] : sg.domain_supernodes) {
    PutVarint64(out, name.size());
    out->append(name);
    PutVarint64(out, supernodes_in.size());
    for (uint32_t s : supernodes_in) PutVarint32(out, s);
  }
}

Result<SNodeResidentState> SNodeResidentState::Parse(SerialCursor* cursor) {
  SNodeResidentState state;
  // Every count is checked against the bytes left before it sizes a
  // vector (SerialCursor::ReadCount), so a crafted count fails here
  // instead of allocating.
  uint64_t num_pages = 0;
  if (!cursor->ReadCount(&num_pages) ||
      !cursor->ReadVarint64(&state.num_edges)) {
    return Status::Corruption("snode meta: bad header");
  }
  state.new_of_orig.resize(num_pages);
  for (auto& v : state.new_of_orig) {
    if (!cursor->ReadVarint32(&v)) {
      return Status::Corruption("snode meta: bad permutation");
    }
  }

  SupernodeGraph& sg = state.supernodes;
  uint64_t n_super = 0;
  if (!cursor->ReadCount(&n_super)) {
    return Status::Corruption("snode meta: bad supernode count");
  }
  sg.page_start.resize(n_super + 1);
  for (auto& v : sg.page_start) {
    if (!cursor->ReadVarint32(&v)) {
      return Status::Corruption("snode meta: bad page_start");
    }
  }
  sg.offsets.resize(n_super + 1);
  for (auto& v : sg.offsets) {
    if (!cursor->ReadVarint32(&v)) {
      return Status::Corruption("snode meta: bad offsets");
    }
  }
  uint64_t n_edges = 0;
  if (!cursor->ReadCount(&n_edges)) {
    return Status::Corruption("snode meta: bad superedge count");
  }
  sg.targets.resize(n_edges);
  for (auto& v : sg.targets) {
    if (!cursor->ReadVarint32(&v)) {
      return Status::Corruption("snode meta: bad superedge target");
    }
  }
  uint64_t n_domains = 0;
  if (!cursor->ReadCount(&n_domains)) {
    return Status::Corruption("snode meta: bad domain count");
  }
  for (uint64_t d = 0; d < n_domains; ++d) {
    std::string name;
    uint64_t count = 0;
    if (!cursor->ReadString(&name) || !cursor->ReadCount(&count)) {
      return Status::Corruption("snode meta: bad domain entry");
    }
    auto& list = sg.domain_supernodes[name];
    list.resize(count);
    for (auto& v : list) {
      if (!cursor->ReadVarint32(&v)) {
        return Status::Corruption("snode meta: bad domain supernode");
      }
    }
  }
  return state;
}

Status SNodeRepr::SaveMeta() const {
  std::string payload;
  SNodeResidentState state;
  state.new_of_orig = new_of_orig_;
  state.supernodes = supernodes_;
  state.num_edges = num_edges_;
  state.Serialize(&payload);
  store_->SerializeDirectory(&payload);
  // The meta file's directory records pack offsets and CRCs; make the
  // pack bytes it points at durable before the pointer is.
  WG_RETURN_IF_ERROR(store_->SyncAll());
  return WriteFramedFile(base_path_ + ".meta", kMetaMagic, payload);
}

Result<std::unique_ptr<SNodeRepr>> SNodeRepr::Open(
    const std::string& base_path, const SNodeBuildOptions& options) {
  WG_ASSIGN_OR_RETURN(std::string payload,
                      ReadFramedFile(base_path + ".meta", kMetaMagic));
  SerialCursor cursor(payload);
  WG_ASSIGN_OR_RETURN(SNodeResidentState state,
                      SNodeResidentState::Parse(&cursor));
  WG_ASSIGN_OR_RETURN(
      std::unique_ptr<GraphStore> store,
      GraphStore::OpenExisting(base_path, &cursor));
  return FromParts(std::move(state), std::move(store), base_path, options);
}

namespace {

// Parse reads the resident fields without judging them; this checks that
// they fit together and fit the store, for parsed and in-memory states
// alike, so a state that is consistent but wrong (a writer bug, a crafted
// manifest) fails the attach instead of a later probe. Readers index by
// these arrays, and derive a section's blob ids from the offsets
// (SupernodeGraph::FirstBlob), hence the check of every store section's
// graph count.
Status ValidateResidentShape(const SNodeResidentState& state,
                             const GraphStore& store) {
  const SupernodeGraph& sg = state.supernodes;
  const uint32_t n_super = sg.num_supernodes();
  auto bad = [](const std::string& what) {
    return Status::Corruption("snode meta: " + what);
  };
  if (sg.offsets.empty() || sg.page_start.size() != sg.offsets.size()) {
    return bad("resident arrays disagree in size");
  }
  if (sg.page_start.front() != 0 ||
      sg.page_start.back() != state.new_of_orig.size() ||
      !std::is_sorted(sg.page_start.begin(), sg.page_start.end())) {
    return bad("page ranges do not ascend from 0 to the page count");
  }
  if (sg.offsets.front() != 0 || sg.offsets.back() != sg.targets.size() ||
      !std::is_sorted(sg.offsets.begin(), sg.offsets.end())) {
    return bad("superedge offsets do not ascend to the superedge count");
  }
  for (uint32_t t : sg.targets) {
    if (t >= n_super) return bad("superedge target past the last supernode");
  }
  for (const auto& [domain, supernodes_in] : sg.domain_supernodes) {
    for (uint32_t s : supernodes_in) {
      if (s >= n_super) return bad("domain entry past the last supernode");
    }
  }
  if (store.num_sections() != n_super) {
    return bad("store holds " + std::to_string(store.num_sections()) +
               " sections, the supernode graph lays out " +
               std::to_string(n_super));
  }
  for (uint32_t s = 0; s < n_super; ++s) {
    const uint32_t graphs = sg.FirstBlob(s + 1) - sg.FirstBlob(s);
    if (store.section(s).num_graphs != graphs) {
      return bad("store section " + std::to_string(s) + " holds " +
                 std::to_string(store.section(s).num_graphs) +
                 " graphs, the supernode graph lays out " +
                 std::to_string(graphs));
    }
  }
  return Status::OK();
}

}  // namespace

SNodeRepr::SNodeRepr(std::string base_path, const SNodeBuildOptions& options)
    : base_path_(std::move(base_path)),
      cache_(std::make_unique<ShardedGraphCache>(kCacheShards,
                                                 options.buffer_bytes)),
      instance_id_(RegisterStats("s-node")) {
  cold_stats_.Register(
      obs::MetricRegistry::Default(),
      {{"scheme", "s-node"}, {"instance", std::to_string(instance_id_)}});
}

Result<std::unique_ptr<SNodeRepr>> SNodeRepr::FromParts(
    SNodeResidentState state, std::unique_ptr<GraphStore> store,
    const std::string& base_path, const SNodeBuildOptions& options) {
  std::unique_ptr<SNodeRepr> repr(new SNodeRepr(base_path, options));
  WG_RETURN_IF_ERROR(repr->Install(std::move(state), std::move(store)));
  return repr;
}

Status SNodeRepr::Install(SNodeResidentState state,
                          std::unique_ptr<GraphStore> store) {
  WG_RETURN_IF_ERROR(ValidateResidentShape(state, *store));
  // The inverse is derived, never stored, so deriving it is the one check
  // that new_of_orig is a permutation.
  const size_t n = state.new_of_orig.size();
  orig_of_new_.assign(n, kInvalidPage);
  for (size_t p = 0; p < n; ++p) {
    const PageId nid = state.new_of_orig[p];
    if (nid >= n || orig_of_new_[nid] != kInvalidPage) {
      return Status::Corruption("snode meta: new_of_orig is not a permutation");
    }
    orig_of_new_[nid] = static_cast<PageId>(p);
  }
  new_of_orig_ = std::move(state.new_of_orig);
  supernodes_ = std::move(state.supernodes);
  num_edges_ = state.num_edges;
  store_ = std::move(store);

  const size_t n_super = supernodes_.num_supernodes();
  size_t words = (n_super + 63) / 64;
  section_quarantined_.reset(new std::atomic<uint64_t>[words]());
  last_probe_.reset(new std::atomic<uint64_t>[n_super]());
  // An assembled block holds pages + 1 offsets and one target per edge,
  // 4 bytes each.
  if (n_super > 0) {
    assembled_section_bytes_ =
        4.0 * static_cast<double>(num_pages() + n_super + num_edges_) /
        static_cast<double>(n_super);
  }
  return Status::OK();
}

void SNodeRepr::DropToColdState() {
  cache_->Clear();
  store_->EvictFromPageCache();
}

bool SNodeRepr::SectionQuarantined(uint32_t supernode) const {
  if (section_quarantined_ == nullptr ||
      supernode >= supernodes_.num_supernodes()) {
    return false;
  }
  uint64_t word =
      section_quarantined_[supernode / 64].load(std::memory_order_relaxed);
  return (word >> (supernode % 64)) & 1;
}

size_t SNodeRepr::QuarantinedSectionCount() const {
  if (section_quarantined_ == nullptr) return 0;
  size_t count = 0;
  size_t words = (supernodes_.num_supernodes() + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = section_quarantined_[w].load(std::memory_order_relaxed);
    while (word != 0) {
      word &= word - 1;
      ++count;
    }
  }
  return count;
}

Status SNodeRepr::ReadSectionBlobs(uint32_t supernode,
                                   const std::vector<uint32_t>& wanted,
                                   const BlobDecodeFn& decode) {
  if (SectionQuarantined(supernode)) {
    return Status::Unavailable("supernode section " +
                               std::to_string(supernode) +
                               " quarantined after corrupt section read");
  }
  std::vector<uint8_t> scratch;
  std::vector<GraphStore::GraphSpan> graphs;
  Status status;
  {
    // One disk arm (the paper's testbed): store reads queue on io_mutex_,
    // which also guards the seek/transfer counters the disk model is
    // charged from. The disk is waited for before the storage span opens,
    // so queueing for it shows as cache time and the span times the read
    // itself. Decoding below never holds it.
    std::lock_guard<std::mutex> io_lock(io_mutex_);
    {
      obs::Span read_span("store.read_section", "storage");
      read_span.AddArg("supernode", supernode);
      status = store_->ReadSection(supernode, &scratch, &graphs);
    }
    if (status.ok()) {
      ++stats_.disk_reads;
      stats_.bytes_read += scratch.size();
      disk_tracker_.Absorb(store_->seek_ops(), store_->transferred_bytes(),
                           &stats_);
    }
  }
  const uint32_t first = supernodes_.FirstBlob(supernode);
  size_t loaded = 0;
  while (status.ok() && loaded < wanted.size()) {
    uint32_t id = wanted[loaded];
    const GraphStore::GraphSpan& graph = graphs[id - first];
    status = decode(id, graph.data, graph.length);
    if (!status.ok()) break;
    ++loaded;
  }
  // Every read is a demand read, so each graph it loads is a cache miss.
  stats_.graphs_loaded += loaded;
  stats_.cache_misses += loaded;
  // Only persistent damage quarantines the section; a transient I/O error
  // (injected EIO, for instance) leaves it retryable.
  if (status.code() == StatusCode::kCorruption) {
    uint64_t mask = uint64_t{1} << (supernode % 64);
    uint64_t prev = section_quarantined_[supernode / 64].fetch_or(
        mask, std::memory_order_relaxed);
    if ((prev & mask) == 0) ++IntegrityCounters::Get().quarantined_sections;
  }
  return status;
}

Status SNodeRepr::DecodeSectionBlob(uint32_t supernode, uint32_t blob_id,
                                    const uint8_t* data, size_t size,
                                    ShardedGraphCache::Entry* entry) const {
  uint32_t index = blob_id - supernodes_.FirstBlob(supernode);
  if (index == 0) {
    if (entry->intranode == nullptr) {
      entry->intranode = std::make_unique<IntranodeGraph>();
    }
    WG_RETURN_IF_ERROR(DecodeIntranode(data, size,
                                       supernodes_.pages_in(supernode),
                                       entry->intranode.get()));
    entry->bytes = entry->intranode->MemoryUsage();
    return Status::OK();
  }
  // Blob index k > 0 of a section is its k-th outgoing superedge graph
  // (SupernodeGraph::FirstBlob).
  uint32_t e = supernodes_.offsets[supernode] + (index - 1);
  if (entry->superedge == nullptr) {
    entry->superedge = std::make_unique<SuperedgeGraph>();
  }
  WG_RETURN_IF_ERROR(DecodeSuperedge(
      data, size, supernodes_.pages_in(supernode),
      supernodes_.pages_in(supernodes_.targets[e]), entry->superedge.get()));
  entry->bytes = entry->superedge->MemoryUsage();
  return Status::OK();
}

bool SNodeRepr::SectionWorthPrefetching(uint32_t supernode,
                                        size_t graphs_needed) const {
  size_t section_graphs =
      1 + (supernodes_.offsets[supernode + 1] - supernodes_.offsets[supernode]);
  // Every fetch reads the whole section; decoding and caching all of it
  // pays once a quarter of its graphs is wanted.
  return graphs_needed * 4 >= section_graphs;
}

Status SNodeRepr::LoadSectionGraphs(uint32_t supernode,
                                    const std::vector<uint8_t>& need,
                                    std::vector<EntryPtr>* graphs) {
  const uint32_t first = supernodes_.FirstBlob(supernode);
  const uint32_t num_blobs = supernodes_.FirstBlob(supernode + 1) - first;
  size_t num_needed = 0;
  for (uint8_t n : need) num_needed += n;
  const bool all = SectionWorthPrefetching(supernode, num_needed);
  graphs->assign(need.size(), nullptr);
  std::vector<uint32_t> keys;
  for (uint32_t b = 0; b < num_blobs; ++b) {
    if (need[b]) {
      if (EntryPtr cached = cache_->Lookup(first + b); cached != nullptr) {
        ++stats_.cache_hits;
        (*graphs)[b] = std::move(cached);
        continue;
      }
    }
    if (all || need[b]) keys.push_back(first + b);
  }
  // Graphs already cached or in flight on another thread are skipped
  // (their owners publish them); this never blocks.
  std::vector<uint32_t> claimed = cache_->ClaimKeys(keys);
  if (!claimed.empty()) {
    obs::Span prefetch_span("cache.prefetch_section", "cache");
    prefetch_span.AddArg("supernode", supernode);
    prefetch_span.AddArg("blobs", claimed.size());
    size_t published = 0;
    Status read = ReadSectionBlobs(
        supernode, claimed,
        [&](uint32_t id, const uint8_t* data, size_t size) {
          ShardedGraphCache::Entry entry;
          WG_RETURN_IF_ERROR(
              DecodeSectionBlob(supernode, id, data, size, &entry));
          EntryPtr pinned = cache_->Publish(id, std::move(entry));
          ++published;
          if (need[id - first]) (*graphs)[id - first] = std::move(pinned);
          return Status::OK();
        });
    // Whatever the failed read left unpublished must still be resolved.
    for (size_t i = published; i < claimed.size(); ++i) {
      cache_->Abort(claimed[i], read);
    }
    WG_RETURN_IF_ERROR(read);
  }
  // Only now, holding no claims, wait for the graphs other threads had in
  // flight. A graph published and evicted meanwhile comes back as a claim
  // of ours, resolved by its own read before the next wait.
  for (uint32_t b = 0; b < need.size(); ++b) {
    if (!need[b] || (*graphs)[b] != nullptr) continue;
    ShardedGraphCache::Claim claim = cache_->BeginLoad(first + b);
    if (claim.kind == ShardedGraphCache::ClaimKind::kFailed) {
      return claim.status;
    }
    if (claim.kind == ShardedGraphCache::ClaimKind::kHit) {
      ++stats_.cache_hits;
      (*graphs)[b] = std::move(claim.entry);
      continue;
    }
    ShardedGraphCache::Entry entry;
    Status read = ReadSectionBlobs(
        supernode, {first + b},
        [&](uint32_t id, const uint8_t* data, size_t size) {
          return DecodeSectionBlob(supernode, id, data, size, &entry);
        });
    if (!read.ok()) {
      cache_->Abort(first + b, read);
      return read;
    }
    (*graphs)[b] = cache_->Publish(first + b, std::move(entry));
  }
  return Status::OK();
}

bool SNodeRepr::ProbeWithinReach(uint32_t supernode, uint64_t* stamp) {
  const uint64_t now = probe_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t last =
      last_probe_[supernode].exchange(now, std::memory_order_relaxed);
  *stamp = now;
  if (last == 0) return false;
  const double reach =
      static_cast<double>(cache_->budget()) / assembled_section_bytes_;
  return static_cast<double>(now - last) <= reach;
}

Status SNodeRepr::GatherSection(uint32_t supernode, uint64_t scratch_stamp,
                                SectionGraphs* graphs) {
  const uint32_t first = supernodes_.FirstBlob(supernode);
  const uint32_t num_blobs = supernodes_.FirstBlob(supernode + 1) - first;
  SectionScratch& scratch = ThreadScratch();
  const bool reuse = scratch_stamp != 0 && scratch.stamp == scratch_stamp &&
                     scratch.owner == instance_id_ &&
                     scratch.supernode == supernode;
  graphs->intranode = nullptr;
  graphs->superedges.assign(num_blobs - 1, nullptr);
  graphs->pins.clear();
  auto use = [graphs](uint32_t b, const ShardedGraphCache::Entry& entry) {
    if (b == 0) {
      graphs->intranode = entry.intranode.get();
    } else {
      graphs->superedges[b - 1] = entry.superedge.get();
    }
  };
  std::vector<uint32_t> missing;
  for (uint32_t b = 0; b < num_blobs; ++b) {
    if (reuse && scratch.valid[b]) {
      use(b, scratch.entries[b]);
      continue;
    }
    if (EntryPtr cached = cache_->Lookup(first + b); cached != nullptr) {
      ++stats_.cache_hits;
      use(b, *cached);
      graphs->pins.push_back(std::move(cached));
      continue;
    }
    missing.push_back(first + b);
  }
  if (missing.empty()) return Status::OK();

  if (!reuse) {
    scratch.owner = instance_id_;
    scratch.supernode = supernode;
    scratch.stamp = scratch_stamp;
    scratch.valid.assign(num_blobs, 0);
  }
  if (scratch.entries.size() < num_blobs) scratch.entries.resize(num_blobs);
  obs::Span span("snode.decode_section", "cache");
  span.AddArg("supernode", supernode);
  span.AddArg("blobs", missing.size());
  return ReadSectionBlobs(
      supernode, missing,
      [&](uint32_t id, const uint8_t* data, size_t size) {
        const uint32_t b = id - first;
        WG_RETURN_IF_ERROR(
            DecodeSectionBlob(supernode, id, data, size, &scratch.entries[b]));
        scratch.valid[b] = 1;
        use(b, scratch.entries[b]);
        return Status::OK();
      });
}

Status SNodeRepr::CollectPageLinks(PageId p, uint64_t stamp,
                                   std::vector<PageId>* out) {
  PageId nid = new_of_orig_[p];
  uint32_t s = supernodes_.SupernodeOf(nid);
  uint32_t base = supernodes_.page_start[s];
  uint32_t local = nid - base;
  size_t first = out->size();

  // An unrestricted adjacency needs the whole section: one sequential
  // read of whatever the cache does not hold, decoded into scratch.
  SectionGraphs graphs;
  WG_RETURN_IF_ERROR(GatherSection(s, stamp, &graphs));

  const IntranodeGraph* intra = graphs.intranode;
  for (uint32_t i = intra->offsets[local]; i < intra->offsets[local + 1];
       ++i) {
    out->push_back(orig_of_new_[base + intra->targets[i]]);
  }

  // Cross links through every outgoing superedge graph of s.
  std::vector<uint32_t> cross;
  for (uint32_t e = supernodes_.offsets[s]; e < supernodes_.offsets[s + 1];
       ++e) {
    cross.clear();
    graphs.superedges[e - supernodes_.offsets[s]]->LinksOf(local, &cross);
    uint32_t tbase = supernodes_.page_start[supernodes_.targets[e]];
    for (uint32_t t : cross) out->push_back(orig_of_new_[tbase + t]);
  }

  std::sort(out->begin() + first, out->end());
  return Status::OK();
}

uint32_t SNodeRepr::AssembledKey(uint32_t supernode) const {
  return static_cast<uint32_t>(store_->num_graphs()) + supernode;
}

// One-pass supernode assembly: gathers each graph of the section exactly
// once, then builds the CSR directly: count pass -> prefix-sum offsets ->
// fill pass -> per-page sort. The cold cost per edge is roughly decode +
// two array writes + sort.
Result<SNodeRepr::EntryPtr> SNodeRepr::AssembleSupernode(
    uint32_t supernode, uint64_t scratch_stamp) {
  const uint32_t key = AssembledKey(supernode);
  ShardedGraphCache::Claim claim = cache_->BeginLoad(key);
  if (claim.kind == ShardedGraphCache::ClaimKind::kHit) {
    ++stats_.cache_hits;
    return claim.entry;
  }
  if (claim.kind == ShardedGraphCache::ClaimKind::kFailed) return claim.status;
  obs::Span span("snode.assemble_supernode", "cache");
  span.AddArg("supernode", supernode);
  ++cold_stats_.assembles;
  const uint32_t base = supernodes_.page_start[supernode];
  const uint32_t pages = supernodes_.page_start[supernode + 1] - base;
  const uint32_t e_begin = supernodes_.offsets[supernode];
  const uint32_t e_end = supernodes_.offsets[supernode + 1];

  // The assembled block is the only artifact worth caching on the
  // streaming path: graphs the gather decodes stay in per-thread scratch,
  // and the fill pass below copies everything it needs out of them.
  SectionGraphs graphs;
  if (Status read = GatherSection(supernode, scratch_stamp, &graphs);
      !read.ok()) {
    cache_->Abort(key, read);
    return read;
  }
  const std::vector<const SuperedgeGraph*>& ses = graphs.superedges;
  const IntranodeGraph& ig = *graphs.intranode;

  // Count pass: external out-degree of every local page.
  std::vector<uint32_t> counts(pages, 0);
  for (uint32_t local = 0; local < pages; ++local) {
    counts[local] = ig.offsets[local + 1] - ig.offsets[local];
  }
  for (uint32_t e = e_begin; e < e_end; ++e) {
    const SuperedgeGraph& se = *ses[e - e_begin];
    if (se.positive) {
      for (size_t k = 0; k < se.sources.size(); ++k) {
        counts[se.sources[k]] += se.offsets[k + 1] - se.offsets[k];
      }
    } else {
      // Negative polarity: absent sources point to all of N_j; present
      // sources to the complement of their (absent-link) list.
      uint32_t nj = se.num_target_pages;
      for (uint32_t local = 0; local < pages; ++local) counts[local] += nj;
      for (size_t k = 0; k < se.sources.size(); ++k) {
        counts[se.sources[k]] -= se.offsets[k + 1] - se.offsets[k];
      }
    }
  }

  auto assembled = std::make_unique<ShardedGraphCache::AssembledAdjacency>();
  assembled->offsets.resize(pages + 1);
  assembled->offsets[0] = 0;
  for (uint32_t local = 0; local < pages; ++local) {
    assembled->offsets[local + 1] = assembled->offsets[local] + counts[local];
  }
  assembled->targets.resize(assembled->offsets[pages]);
  PageId* out = assembled->targets.data();

  // Fill pass; `fill` tracks each page's write head.
  std::vector<uint32_t> fill(assembled->offsets.begin(),
                             assembled->offsets.end() - 1);
  for (uint32_t local = 0; local < pages; ++local) {
    uint32_t w = fill[local];
    for (uint32_t i = ig.offsets[local]; i < ig.offsets[local + 1]; ++i) {
      out[w++] = orig_of_new_[base + ig.targets[i]];
    }
    fill[local] = w;
  }
  for (uint32_t e = e_begin; e < e_end; ++e) {
    const SuperedgeGraph& se = *ses[e - e_begin];
    const uint32_t tbase = supernodes_.page_start[supernodes_.targets[e]];
    if (se.positive) {
      for (size_t k = 0; k < se.sources.size(); ++k) {
        uint32_t w = fill[se.sources[k]];
        for (uint32_t i = se.offsets[k]; i < se.offsets[k + 1]; ++i) {
          out[w++] = orig_of_new_[tbase + se.targets[i]];
        }
        fill[se.sources[k]] = w;
      }
    } else {
      uint32_t nj = se.num_target_pages;
      size_t k = 0;
      for (uint32_t local = 0; local < pages; ++local) {
        uint32_t w = fill[local];
        if (k < se.sources.size() && se.sources[k] == local) {
          uint32_t next = 0;
          for (uint32_t i = se.offsets[k]; i < se.offsets[k + 1]; ++i) {
            for (uint32_t t = next; t < se.targets[i]; ++t) {
              out[w++] = orig_of_new_[tbase + t];
            }
            next = se.targets[i] + 1;
          }
          for (uint32_t t = next; t < nj; ++t) {
            out[w++] = orig_of_new_[tbase + t];
          }
          ++k;
        } else {
          for (uint32_t t = 0; t < nj; ++t) {
            out[w++] = orig_of_new_[tbase + t];
          }
        }
        fill[local] = w;
      }
    }
  }

  // The per-page lists merge several graphs, each remapped through the
  // permutation, so they end unsorted in original-id space; sort each to
  // keep the adjacency contract identical to CollectPageLinks. Typical
  // lists are a dozen entries, where introsort's per-call dispatch costs
  // more than the sort itself -- insertion-sort those inline.
  for (uint32_t local = 0; local < pages; ++local) {
    PageId* lo = out + assembled->offsets[local];
    PageId* hi = out + assembled->offsets[local + 1];
    if (hi - lo <= 32) {
      for (PageId* i = lo + 1; i < hi; ++i) {
        PageId v = *i;
        PageId* j = i;
        for (; j > lo && j[-1] > v; --j) *j = j[-1];
        *j = v;
      }
    } else {
      std::sort(lo, hi);
    }
  }

  ShardedGraphCache::Entry entry;
  entry.bytes = assembled->MemoryUsage();
  entry.assembled = std::move(assembled);
  return cache_->Publish(key, std::move(entry));
}

// The S-Node streaming cursor. A lone probe decodes its section into
// per-thread scratch, extracts the page's row, and caches nothing. Once the
// cursor sees a second consecutive page land in one supernode (a BFS level,
// a bulk sweep, a locality-sorted batch) it assembles that supernode's
// external adjacency into a cache-resident CSR -- from the scratch the
// streak's first probe decoded -- and serves every further page of the
// supernode as a zero-copy view pinned to the cache entry: no decode, no
// remap, no sort, no allocation. A lone probe of a section probed recently
// enough that its block would still be cached assembles it too, so hot
// sections converge to cache hits while uniform cold traffic decodes each
// probe once and publishes nothing.
class SNodeRepr::Cursor : public AdjacencyCursor {
 public:
  explicit Cursor(SNodeRepr* repr) : repr_(repr) {}

  Status Links(PageId p, LinkView* view) override {
    if (p >= repr_->new_of_orig_.size()) {
      return Status::OutOfRange("page id out of range");
    }
    obs::Span span("snode.get_links", "repr");
    span.AddArg("page", p);
    ++repr_->stats_.adjacency_requests;
    PageId nid = repr_->new_of_orig_[p];
    uint32_t s = repr_->supernodes_.SupernodeOf(nid);
    uint32_t local = nid - repr_->supernodes_.page_start[s];

    EntryPtr entry;
    uint64_t stamp = 0;
    if (assembled_snode_ == s && assembled_entry_ != nullptr) {
      entry = assembled_entry_;
    } else {
      entry = repr_->cache_->Lookup(repr_->AssembledKey(s));
      if (entry != nullptr) {
        ++repr_->stats_.cache_hits;
      } else if (s == last_snode_ ||
                 (last_snode_ != UINT32_MAX && s == last_snode_ + 1 &&
                  local == 0)) {
        // Streaming: either a second page in this supernode, or the
        // stream just crossed into the next section at its first page (a
        // layout-order sweep). Assembling now pays for itself across the
        // rest of the streak.
        WG_ASSIGN_OR_RETURN(entry,
                            repr_->AssembleSupernode(s, probe_stamp_));
      } else if (repr_->ProbeWithinReach(s, &stamp)) {
        WG_ASSIGN_OR_RETURN(entry, repr_->AssembleSupernode(s));
      }
      if (entry != nullptr) {
        assembled_entry_ = entry;
        assembled_snode_ = s;
      }
    }
    last_snode_ = s;
    probe_stamp_ = entry != nullptr ? 0 : stamp;

    if (entry != nullptr) {
      const ShardedGraphCache::AssembledAdjacency& a = *entry->assembled;
      uint32_t begin = a.offsets[local];
      uint32_t end = a.offsets[local + 1];
      repr_->stats_.edges_returned += end - begin;
      // Aliasing pin: shares the cache entry's control block, so handing
      // out the view allocates nothing.
      *view = LinkView(a.targets.data() + begin, end - begin,
                       std::shared_ptr<const void>(entry,
                                                   a.targets.data() + begin),
                       &repr_->stats_.views_pinned);
      return Status::OK();
    }

    links_.clear();
    WG_RETURN_IF_ERROR(repr_->CollectPageLinks(p, stamp, &links_));
    repr_->stats_.edges_returned += links_.size();
    *view = LinkView(links_.data(), links_.size());
    return Status::OK();
  }

 private:
  SNodeRepr* repr_;
  uint32_t last_snode_ = UINT32_MAX;
  // Stamp of the lone probe the previous Links() call ran (0: none); a
  // streak continuing it consumes that probe's scratch decode.
  uint64_t probe_stamp_ = 0;
  uint32_t assembled_snode_ = UINT32_MAX;
  EntryPtr assembled_entry_;
  std::vector<PageId> links_;
};

std::unique_ptr<AdjacencyCursor> SNodeRepr::NewCursor() {
  return std::make_unique<Cursor>(this);
}


Status SNodeRepr::VisitLinksInto(
    const std::vector<PageId>& sources, const std::vector<PageId>& targets,
    const std::function<void(PageId, const std::vector<PageId>&)>& visit) {
  // Compile the target set once: which supernodes does it touch, and which
  // local ids within each? This is the paper's use of the supernode graph
  // as an index -- superedge graphs into untouched supernodes are never
  // read from disk, let alone decoded.
  std::unordered_map<uint32_t, std::vector<uint32_t>> allowed;  // s -> locals
  obs::Span span("snode.visit_links_into", "repr");
  span.AddArg("sources", sources.size());
  span.AddArg("targets", targets.size());
  for (PageId t : targets) {
    // No page links to an id past the last page, so such a target matches
    // nothing, as in the default implementation.
    if (t >= new_of_orig_.size()) continue;
    PageId nid = new_of_orig_[t];
    uint32_t s = supernodes_.SupernodeOf(nid);
    allowed[s].push_back(nid - supernodes_.page_start[s]);
  }
  for (auto& [s, locals] : allowed) std::sort(locals.begin(), locals.end());

  std::vector<PageId> links;
  std::vector<uint32_t> cross;
  std::vector<uint8_t> need;
  std::vector<EntryPtr> graphs;
  for (PageId p : sources) {
    if (p >= new_of_orig_.size()) {
      return Status::OutOfRange("page id out of range");
    }
    ++stats_.adjacency_requests;
    PageId nid = new_of_orig_[p];
    uint32_t s = supernodes_.SupernodeOf(nid);
    uint32_t base = supernodes_.page_start[s];
    uint32_t local = nid - base;
    links.clear();

    // Warm shortcut: a cursor already assembled this supernode's full
    // external adjacency, so filter straight from the cached CSR instead
    // of touching the lower-level graphs at all.
    if (EntryPtr assembled = cache_->Lookup(AssembledKey(s));
        assembled != nullptr) {
      ++stats_.cache_hits;
      const ShardedGraphCache::AssembledAdjacency& a = *assembled->assembled;
      for (uint32_t i = a.offsets[local]; i < a.offsets[local + 1]; ++i) {
        if (std::binary_search(targets.begin(), targets.end(),
                               a.targets[i])) {
          links.push_back(a.targets[i]);
        }
      }
      stats_.edges_returned += links.size();
      visit(p, links);
      continue;
    }

    // Every graph this source needs comes from one fetch of its section:
    // the intranode graph when targets fall in s, and the superedge
    // graphs into supernodes the targets touch (pushdown: the rest are
    // never decoded).
    const uint32_t e_begin = supernodes_.offsets[s];
    const uint32_t e_end = supernodes_.offsets[s + 1];
    auto allowed_it = allowed.find(s);
    need.assign(1 + (e_end - e_begin), 0);
    need[0] = allowed_it != allowed.end();
    for (uint32_t e = e_begin; e < e_end; ++e) {
      need[1 + (e - e_begin)] = allowed.count(supernodes_.targets[e]) > 0;
    }
    WG_RETURN_IF_ERROR(LoadSectionGraphs(s, need, &graphs));

    if (allowed_it != allowed.end()) {
      const IntranodeGraph* intra = graphs[0]->intranode.get();
      const auto& locals = allowed_it->second;
      for (uint32_t i = intra->offsets[local]; i < intra->offsets[local + 1];
           ++i) {
        if (std::binary_search(locals.begin(), locals.end(),
                               intra->targets[i])) {
          links.push_back(orig_of_new_[base + intra->targets[i]]);
        }
      }
    }
    for (uint32_t e = e_begin; e < e_end; ++e) {
      if (!need[1 + (e - e_begin)]) continue;
      const uint32_t j = supernodes_.targets[e];
      const SuperedgeGraph* se = graphs[1 + (e - e_begin)]->superedge.get();
      cross.clear();
      se->LinksOf(local, &cross);
      uint32_t tbase = supernodes_.page_start[j];
      const auto& locals = allowed.find(j)->second;
      for (uint32_t t : cross) {
        if (std::binary_search(locals.begin(), locals.end(), t)) {
          links.push_back(orig_of_new_[tbase + t]);
        }
      }
    }
    std::sort(links.begin(), links.end());
    stats_.edges_returned += links.size();
    visit(p, links);
  }
  return Status::OK();
}

Status SNodeRepr::PagesInDomain(const std::string& domain,
                                std::vector<PageId>* out) {
  auto it = supernodes_.domain_supernodes.find(domain);
  if (it == supernodes_.domain_supernodes.end()) return Status::OK();
  size_t first = out->size();
  for (uint32_t s : it->second) {
    for (PageId nid = supernodes_.page_start[s];
         nid < supernodes_.page_start[s + 1]; ++nid) {
      out->push_back(orig_of_new_[nid]);
    }
  }
  std::sort(out->begin() + first, out->end());
  return Status::OK();
}

uint64_t SNodeRepr::encoded_bits() const {
  // Store blobs + the Huffman-coded supernode adjacency. The paper's 4-byte
  // graph pointers are resident directory state (reported through Figure
  // 10's HuffmanEncodedBytes; here the store directory's length per graph,
  // counted in resident_memory), mirroring how the baselines' resident
  // indexes are excluded from their bits/edge.
  return store_->total_bytes() * 8 + supernodes_.HuffmanAdjacencyBits();
}

size_t SNodeRepr::resident_memory() const {
  return (new_of_orig_.size() + orig_of_new_.size()) * sizeof(PageId) +
         supernodes_.MemoryUsage() + store_->DirectoryMemoryUsage() +
         cache_->bytes_used();
}

}  // namespace wg
