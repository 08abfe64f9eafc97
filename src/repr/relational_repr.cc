#include "repr/relational_repr.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/coding.h"

namespace wg {

Result<std::unique_ptr<RelationalRepr>> RelationalRepr::Build(
    const WebGraph& graph, const std::string& path, Options options) {
  std::unique_ptr<RelationalRepr> repr(new RelationalRepr());
  WG_RETURN_IF_ERROR(RemoveFileIfExists(path));
  auto pager = Pager::Open(path, options.buffer_bytes);
  if (!pager.ok()) return pager.status();
  repr->pager_ = std::move(pager).value();

  auto heap = HeapFile::Create(repr->pager_.get());
  if (!heap.ok()) return heap.status();
  repr->heap_ = std::move(heap).value();

  // Load the table first, then bulk-build each index: indexes get
  // contiguous page runs (as they would in a real DBMS's separate index
  // files), so range scans are near-sequential on disk.
  std::vector<RowId> rids;
  rids.reserve(graph.num_pages());
  std::string row;
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    row.clear();
    auto links = graph.OutLinks(p);
    PutVarint32(&row, static_cast<uint32_t>(links.size()));
    PageId prev = 0;
    for (PageId q : links) {
      PutVarint32(&row, q - prev);
      prev = q;
    }
    WG_ASSIGN_OR_RETURN(RowId rid, repr->heap_->Append(row));
    rids.push_back(rid);
  }
  auto page_index = BTree::Create(repr->pager_.get());
  if (!page_index.ok()) return page_index.status();
  repr->page_index_ = std::move(page_index).value();
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    WG_RETURN_IF_ERROR(repr->page_index_->Insert(p, rids[p]));
  }
  auto domain_index = BTree::Create(repr->pager_.get());
  if (!domain_index.ok()) return domain_index.status();
  repr->domain_index_ = std::move(domain_index).value();
  // Sorted (domain, page) insertion keeps leaves in key order on disk.
  std::vector<PageId> by_domain(graph.num_pages());
  for (PageId p = 0; p < graph.num_pages(); ++p) by_domain[p] = p;
  std::sort(by_domain.begin(), by_domain.end(),
            [&graph](PageId a, PageId b) {
              if (graph.domain_id(a) != graph.domain_id(b)) {
                return graph.domain_id(a) < graph.domain_id(b);
              }
              return a < b;
            });
  for (PageId p : by_domain) {
    uint64_t dkey = (static_cast<uint64_t>(graph.domain_id(p)) << 32) | p;
    WG_RETURN_IF_ERROR(repr->domain_index_->Insert(dkey, rids[p]));
  }
  for (uint32_t d = 0; d < graph.num_domains(); ++d) {
    repr->domain_ids_[graph.domain_name(d)] = d;
  }
  repr->num_pages_ = graph.num_pages();
  repr->num_edges_ = graph.num_edges();
  WG_RETURN_IF_ERROR(repr->pager_->Flush());
  repr->pager_->ResetStats();
  // Baseline the disk tracker so build-time I/O is not charged to the
  // first query.
  ReprStats scratch;
  repr->disk_tracker_.Absorb(repr->pager_->file().seek_ops(),
                             repr->pager_->file().transferred_bytes(),
                             &scratch);
  repr->RegisterStats("relational");
  return repr;
}

// Per-cursor scratch: the heap row bytes and the gap-decoded id array are
// reused across Links() calls.
class RelationalRepr::Cursor : public AdjacencyCursor {
 public:
  explicit Cursor(RelationalRepr* repr) : repr_(repr) {}

  Status Links(PageId p, LinkView* view) override {
    if (p >= repr_->num_pages_) {
      return Status::OutOfRange("page id out of range");
    }
    obs::Span span("relational.get_links", "repr");
    span.AddArg("page", p);
    ReprStats& stats = repr_->stats_;
    ++stats.adjacency_requests;
    uint64_t rid = 0;
    bool found = false;
    WG_RETURN_IF_ERROR(repr_->page_index_->Get(p, &rid, &found));
    if (!found) return Status::NotFound("relational: page missing");
    row_.clear();
    WG_RETURN_IF_ERROR(repr_->heap_->Read(rid, &row_));
    size_t pos = 0;
    uint32_t count = 0;
    size_t used = GetVarint32(row_.data(), row_.size(), &count);
    if (used == 0) return Status::Corruption("relational: bad row");
    pos += used;
    PageId prev = 0;
    links_.clear();
    links_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t gap = 0;
      used = GetVarint32(row_.data() + pos, row_.size() - pos, &gap);
      if (used == 0) return Status::Corruption("relational: bad row");
      pos += used;
      prev += gap;
      links_.push_back(prev);
    }
    stats.edges_returned += count;
    // Every physical page read is a demand miss.
    uint64_t reads = repr_->pager_->stats().misses.value();
    stats.disk_reads = reads;
    stats.bytes_read = reads * kPageSize;
    repr_->disk_tracker_.Absorb(repr_->pager_->file().seek_ops(),
                                repr_->pager_->file().transferred_bytes(),
                                &stats);
    stats.cache_hits = repr_->pager_->stats().hits;
    stats.cache_misses = repr_->pager_->stats().misses;
    *view = LinkView(links_.data(), links_.size());
    return Status::OK();
  }

 private:
  RelationalRepr* repr_;
  std::string row_;
  std::vector<PageId> links_;
};

std::unique_ptr<AdjacencyCursor> RelationalRepr::NewCursor() {
  return std::make_unique<Cursor>(this);
}

Status RelationalRepr::PagesInDomain(const std::string& domain,
                                     std::vector<PageId>* out) {
  auto it = domain_ids_.find(domain);
  if (it == domain_ids_.end()) return Status::OK();
  uint64_t d = it->second;
  WG_ASSIGN_OR_RETURN(BTree::Iterator iter, domain_index_->Seek(d << 32));
  while (iter.Valid() && (iter.key() >> 32) == d) {
    out->push_back(static_cast<PageId>(iter.key() & 0xffffffff));
    iter.Next();
  }
  return iter.status();
}

uint64_t RelationalRepr::encoded_bits() const {
  return static_cast<uint64_t>(pager_->num_pages()) * kPageSize * 8;
}

size_t RelationalRepr::resident_memory() const {
  size_t catalog = 0;
  for (const auto& [name, id] : domain_ids_) catalog += name.size() + 16;
  return pager_->memory_budget() + catalog;
}

}  // namespace wg
