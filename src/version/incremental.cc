#include "version/incremental.h"

#include <chrono>
#include <map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "snode/section_encode.h"

namespace wg::version {

namespace {

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Supernode of base page p (crawl-order id) in the base generation.
inline uint32_t BaseOwner(const SNodeRepr& base, PageId p) {
  return base.supernode_graph().SupernodeOf(
      static_cast<PageId>(base.LocalityKey(p)));
}

}  // namespace

MaintainedPartition MaintainPartition(const SNodeRepr& base,
                                      const DeltaOverlay& overlay,
                                      const RefinementOptions& options,
                                      RefinementStats* stats) {
  auto t0 = std::chrono::steady_clock::now();
  obs::Span span("version.maintain_partition", "version");
  const SupernodeGraph& sg = base.supernode_graph();
  uint32_t n_old = sg.num_supernodes();
  size_t base_pages = base.num_pages();

  MaintainedPartition result;
  result.num_old_elements = n_old;

  // Old elements verbatim: pages in URL-sorted order straight from the
  // base numbering (tombstones included -- see the header contract).
  result.partition.elements.reserve(n_old);
  for (uint32_t s = 0; s < n_old; ++s) {
    std::vector<PageId> element;
    element.reserve(sg.pages_in(s));
    for (PageId nid = sg.page_start[s]; nid < sg.page_start[s + 1]; ++nid) {
      element.push_back(base.PageInNaturalOrder(nid));
    }
    result.partition.elements.push_back(std::move(element));
  }

  // New pages: group by domain (P0), URL-split each group, append in
  // domain order. std::map keeps domain order deterministic.
  const auto& added = overlay.added_pages();
  std::map<std::string, std::vector<PageId>> by_domain;
  for (size_t i = 0; i < added.size(); ++i) {
    by_domain[added[i].domain].push_back(static_cast<PageId>(base_pages + i));
  }
  auto url_of = [&](PageId p) -> const std::string& {
    return added[p - base_pages].url;
  };
  for (auto& [domain, pages] : by_domain) {
    std::vector<std::vector<PageId>> groups =
        RefineNewElement(std::move(pages), url_of, options);
    for (auto& group : groups) {
      result.partition.elements.push_back(std::move(group));
      result.new_element_domains.push_back(domain);
    }
  }

  // Dirty marking.
  result.dirty.assign(result.partition.num_elements(), 0);
  // Rule 1: elements of locally dirty pages; rule 3: new elements.
  for (PageId p : overlay.DirtySources()) {
    if (p < base_pages) result.dirty[BaseOwner(base, p)] = 1;
  }
  for (size_t e = n_old; e < result.partition.num_elements(); ++e) {
    result.dirty[e] = 1;
  }
  // Rule 2: elements with a base superedge into a tombstoned page's
  // element (their pages may have lost links onto the tombstone).
  if (overlay.has_tombstones()) {
    std::unordered_set<uint32_t> tomb_elements;
    for (PageId t : overlay.tombstones()) {
      tomb_elements.insert(BaseOwner(base, t));
    }
    for (uint32_t s = 0; s < n_old; ++s) {
      if (result.dirty[s]) continue;
      auto [begin, end] = sg.OutEdges(s);
      for (const uint32_t* j = begin; j != end; ++j) {
        if (tomb_elements.count(*j) > 0) {
          result.dirty[s] = 1;
          break;
        }
      }
    }
  }

  span.AddArg("elements", result.partition.num_elements());
  span.AddArg("dirty", result.dirty_count());
  if (stats != nullptr) {
    stats->final_elements = result.partition.num_elements();
    stats->refine_seconds = SecondsSince(t0);
  }
  return result;
}

Result<Manifest> BuildIncrementalGeneration(
    SNodeRepr& base, const Manifest& base_manifest,
    const DeltaOverlay& overlay, const MaintainedPartition& maintained,
    uint64_t generation, uint64_t log_applied, uint64_t num_edges,
    const std::string& dir, const SNodeBuildOptions& options,
    RefinementStats* stats) {
  auto t_total = std::chrono::steady_clock::now();
  obs::Span span("version.build_generation", "version");
  span.AddArg("generation", generation);

  const Partition& partition = maintained.partition;
  size_t num_pages = overlay.num_pages();
  WG_RETURN_IF_ERROR(partition.Validate(num_pages));
  uint32_t n_super = static_cast<uint32_t>(partition.num_elements());
  const SupernodeGraph& base_sg = base.supernode_graph();

  // Numbering rule over the maintained partition. Old elements are a
  // verbatim prefix, so old pages keep their base-generation ids.
  SNodeResidentState state;
  state.num_edges = num_edges;
  SupernodeGraph& sg = state.supernodes;
  NumberPages(partition, num_pages, &state.new_of_orig, &sg.page_start);
  std::vector<uint32_t> owner = partition.ElementOf(num_pages);

  Manifest manifest;
  manifest.generation = generation;
  manifest.log_applied = log_applied;
  manifest.files = base_manifest.files;

  // Fresh pack for this generation, created lazily: a compaction with no
  // dirty section writes no pack at all.
  std::unique_ptr<GraphStore> pack;
  char pack_name[32];
  std::snprintf(pack_name, sizeof(pack_name), "gen-%06llu",
                static_cast<unsigned long long>(generation));
  const uint32_t base_file_count =
      static_cast<uint32_t>(base_manifest.files.size());
  const GraphStore::Directory& base_directory = base_manifest.directory;
  GraphStore::Directory& directory = manifest.directory;

  // Adjacency source for dirty sections: base cursor views merged with
  // the overlay -- exactly the mutated graph's out-links, so the encoded
  // bytes match a from-scratch rebuild over the same partition.
  std::unique_ptr<AdjacencyCursor> cursor = base.NewCursor();
  std::vector<PageId> merged;
  SectionLinksFn links_of = [&](PageId p,
                                std::vector<PageId>* out) -> Status {
    if (p < overlay.base_pages() && !overlay.is_tombstoned(p)) {
      LinkView view;
      WG_RETURN_IF_ERROR(cursor->Links(p, &view));
      overlay.MergeLinks(p, {view.data(), view.size()}, &merged);
    } else {
      overlay.MergeLinks(p, {}, &merged);
    }
    out->insert(out->end(), merged.begin(), merged.end());
    return Status::OK();
  };

  // Layout in supernode order, dense blob ids, intranode first -- the
  // same linear order as a full build (SupernodeGraph::FirstBlob), whether
  // a section is shared or re-encoded. Sections are processed serially:
  // the dirty set is small by design, and serial layout keeps ids
  // deterministic.
  double encode_seconds = 0;
  double layout_seconds = 0;
  sg.offsets.push_back(0);
  EncodedSection section;
  for (uint32_t s = 0; s < n_super; ++s) {
    bool clean = s < maintained.num_old_elements && maintained.dirty[s] == 0;
    if (clean) {
      // Share the whole base section: same targets, same bytes, new
      // dense ids. file_index values carry over because the new file
      // list starts with the base's.
      auto t_layout = std::chrono::steady_clock::now();
      directory.sections.push_back(base_directory.sections[s]);
      directory.graph_lengths.insert(
          directory.graph_lengths.end(),
          base_directory.graph_lengths.begin() + base_sg.FirstBlob(s),
          base_directory.graph_lengths.begin() + base_sg.FirstBlob(s + 1));
      ++manifest.sections_shared;
      sg.targets.insert(sg.targets.end(),
                        base_sg.targets.begin() + base_sg.offsets[s],
                        base_sg.targets.begin() + base_sg.offsets[s + 1]);
      sg.offsets.push_back(static_cast<uint32_t>(sg.targets.size()));
      layout_seconds += SecondsSince(t_layout);
      continue;
    }
    // A dirty section is written whole into this generation's pack.
    auto t_encode = std::chrono::steady_clock::now();
    WG_RETURN_IF_ERROR(EncodeSupernodeSection(
        s, partition.elements[s], links_of, owner, state.new_of_orig,
        sg.page_start, options.intranode, options.superedge, &section));
    encode_seconds += SecondsSince(t_encode);
    auto t_layout = std::chrono::steady_clock::now();
    if (pack == nullptr) {
      WG_ASSIGN_OR_RETURN(
          pack, GraphStore::Create(dir + "/" + pack_name, options.store));
    }
    WG_ASSIGN_OR_RETURN(uint32_t written, pack->AppendSection(section.graphs));
    directory.sections.push_back(pack->section(written));
    directory.sections.back().file_index += base_file_count;
    for (const std::vector<uint8_t>& graph : section.graphs) {
      directory.graph_lengths.push_back(static_cast<uint32_t>(graph.size()));
    }
    ++manifest.sections_written;
    sg.targets.insert(sg.targets.end(), section.targets.begin(),
                      section.targets.end());
    sg.offsets.push_back(static_cast<uint32_t>(sg.targets.size()));
    layout_seconds += SecondsSince(t_layout);
  }

  // Register this generation's pack files (relative names), fsynced
  // first: the manifest that names them publishes right after this.
  if (pack != nullptr) {
    WG_RETURN_IF_ERROR(pack->SyncAll());
    for (uint32_t f = 0; f < pack->num_files(); ++f) {
      const std::string& path = pack->FilePath(f);
      manifest.files.push_back(path.substr(dir.size() + 1));
    }
  }

  // Domain index: old elements keep their ids, so the base index carries
  // over; new elements append under their own domains.
  sg.domain_supernodes = base_sg.domain_supernodes;
  for (size_t i = 0; i < maintained.new_element_domains.size(); ++i) {
    sg.domain_supernodes[maintained.new_element_domains[i]].push_back(
        static_cast<uint32_t>(maintained.num_old_elements + i));
  }

  state.Serialize(&manifest.resident);

  span.AddArg("sections_shared", manifest.sections_shared);
  span.AddArg("sections_written", manifest.sections_written);
  if (stats != nullptr) {
    stats->encode_seconds = encode_seconds;
    stats->layout_seconds = layout_seconds;
    stats->total_seconds = stats->refine_seconds + SecondsSince(t_total);
    stats->PublishTo(
        obs::MetricRegistry::Default(),
        {{"build", std::to_string(obs::NextInstanceId())}});
  }
  return manifest;
}

}  // namespace wg::version
