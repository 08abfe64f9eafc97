#include "snode/codecs.h"

#include <algorithm>
#include <string>

#include "snode/reference_encoding.h"
#include "util/bitstream.h"
#include "util/coding.h"
#include "util/rle.h"

namespace wg {

namespace {

// Stand-alone list: gamma count, first value in minimal binary over
// [0, universe), then gamma-coded gaps-minus-one. Must stay in lockstep
// with StandaloneCostBits (the reference planner's cost model).
void WriteStandalone(BitWriter* w, const std::vector<uint32_t>& list,
                     uint32_t universe) {
  WriteGamma(w, list.size());
  if (list.empty()) return;
  WriteMinimalBinary(w, list[0], universe);
  for (size_t i = 1; i < list.size(); ++i) {
    WriteGamma(w, list[i] - list[i - 1] - 1);
  }
}

// Returns false if the claimed count is impossible (a standalone list is
// strictly ascending over [0, universe), so count can never exceed the
// universe) -- guarding the bulk resize below against corrupt headers.
bool ReadStandalone(BitReader* r, uint32_t universe,
                    std::vector<uint32_t>* out) {
  uint64_t count = ReadGamma(r);
  if (count == 0) return true;
  if (count > universe) return false;
  size_t off = out->size();
  out->resize(off + count);
  uint32_t* p = out->data() + off;
  uint32_t v = static_cast<uint32_t>(ReadMinimalBinary(r, universe));
  p[0] = v;
  for (uint64_t i = 1; i < count; ++i) {
    v += static_cast<uint32_t>(ReadGamma(r)) + 1;
    p[i] = v;
  }
  return true;
}

// Appends the reference-decoded list (the copied positions of the ref
// list merged with the residuals, both sorted ascending) to *pool. The
// ref list lives in *pool too, at [ref_off, ref_off + ref_len). The copy
// bits arrive as RLE runs (first run's value in `first_bit`): zero runs
// skip whole stretches of the ref list without a per-bit branch. Runs
// can cover fewer than ref_len bits on truncated input (ReadRleRuns
// stops when the reader fails; the caller rejects the record right
// after) -- missing bits count as 0.
void AppendMergedRuns(uint32_t ref_off, uint32_t ref_len, bool first_bit,
                      const std::vector<uint32_t>& runs,
                      const std::vector<uint32_t>& residuals,
                      std::vector<uint32_t>* pool) {
  // Resize once to the upper bound (every ref position copied + all
  // residuals), then write through raw pointers; no reallocation can
  // happen mid-merge, so the ref span pointer stays valid.
  size_t off = pool->size();
  pool->resize(off + ref_len + residuals.size());
  uint32_t* base = pool->data();
  const uint32_t* ref = base + ref_off;
  uint32_t* w = base + off;
  size_t ri = 0;
  size_t j = 0;
  bool bit = first_bit;
  for (uint32_t len : runs) {
    if (bit) {
      size_t end = std::min<size_t>(j + len, ref_len);
      for (size_t k = j; k < end; ++k) {
        uint32_t v = ref[k];
        while (ri < residuals.size() && residuals[ri] < v) {
          *w++ = residuals[ri++];
        }
        *w++ = v;
      }
    }
    j += len;
    bit = !bit;
  }
  for (; ri < residuals.size(); ++ri) *w++ = residuals[ri];
  pool->resize(static_cast<size_t>(w - base));
}

// Per-thread decode scratch: the decoders run thousands of times per
// cold sweep, and re-growing these buffers from empty on every blob is
// pure allocator churn. Capacities stick at their high-water mark.
struct DecodeScratch {
  std::vector<uint32_t> runs;
  std::vector<uint32_t> residuals;
};

DecodeScratch& Scratch() {
  thread_local DecodeScratch scratch;
  return scratch;
}

Status Corrupt(const char* graph_kind, const char* what) {
  return Status::Corruption(std::string(graph_kind) + ": " + what);
}

// ---------- The list codec both graph kinds share ----------
//
// Lists go out in local order. Each is a reference flag, then either the
// stand-alone list, or gamma(back - 1) naming the list `back` positions
// earlier, the RLE copy bits over that list and the stand-alone
// residuals. List k thus costs its flag bit plus its share of
// plan.total_cost_bits.

// Writes every list of `lists` as `plan` says. `prefix(k)` runs before
// list k, for whatever the graph kind stores per list (a superedge
// graph's source id).
template <typename Prefix>
void WriteLists(BitWriter* w, const std::vector<std::vector<uint32_t>>& lists,
                const ReferencePlan& plan, uint32_t universe, Prefix prefix) {
  std::vector<uint8_t> copy_bits;
  std::vector<uint32_t> residuals;
  for (size_t k = 0; k < lists.size(); ++k) {
    prefix(k);
    int ref = plan.reference[k];
    w->WriteBit(ref != kNoReference);
    if (ref == kNoReference) {
      WriteStandalone(w, lists[k], universe);
      continue;
    }
    WriteGamma(w, k - static_cast<size_t>(ref) - 1);
    DiffAgainstReference(lists[k], lists[ref], &copy_bits, &residuals);
    WriteRleBits(w, copy_bits);
    WriteStandalone(w, residuals, universe);
  }
}

// Reads `count` lists written by WriteLists straight into a CSR: list k
// lands in targets[offsets[k], offsets[k + 1]), and a reference resolves
// against the lists already there. `prefix(k)` reads what WriteLists'
// prefix wrote. `graph_kind` names the codec in Corruption messages.
template <typename Prefix>
Status ReadLists(BitReader* r, const char* graph_kind, uint64_t count,
                 uint32_t universe, Prefix prefix,
                 std::vector<uint32_t>* offsets,
                 std::vector<uint32_t>* targets) {
  offsets->clear();
  offsets->reserve(count + 1);
  offsets->push_back(0);
  targets->clear();
  DecodeScratch& sc = Scratch();
  for (uint64_t k = 0; k < count; ++k) {
    WG_RETURN_IF_ERROR(prefix(k));
    if (!r->ReadBit()) {
      if (!ReadStandalone(r, universe, targets)) {
        return Corrupt(graph_kind, "bad list count");
      }
    } else {
      uint64_t back = ReadGamma(r) + 1;
      if (back > k) return Corrupt(graph_kind, "bad reference");
      uint32_t ref_off = (*offsets)[k - back];
      uint32_t ref_len = (*offsets)[k - back + 1] - ref_off;
      sc.runs.clear();
      bool first_bit = ReadRleRuns(r, ref_len, &sc.runs);
      sc.residuals.clear();
      if (!ReadStandalone(r, universe, &sc.residuals)) {
        return Corrupt(graph_kind, "bad residual count");
      }
      AppendMergedRuns(ref_off, ref_len, first_bit, sc.runs, sc.residuals,
                       targets);
    }
    offsets->push_back(static_cast<uint32_t>(targets->size()));
    if (!r->ok()) return Corrupt(graph_kind, "truncated");
  }
  // Range-check with one linear max scan (vectorizes) instead of a branch
  // per decoded element.
  uint32_t max_t = 0;
  for (uint32_t t : *targets) max_t = std::max(max_t, t);
  if (!targets->empty() && max_t >= universe) {
    return Corrupt(graph_kind, "target out of range");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeIntranode(
    const std::vector<std::vector<uint32_t>>& lists,
    const IntranodeEncodeOptions& options) {
  uint32_t universe = static_cast<uint32_t>(lists.size());
  ReferencePlan plan =
      ComputeReferencePlan(lists, universe, kIntranodeReferenceWindow,
                           options.use_reference_encoding);
  BitWriter w;
  WriteGamma(&w, lists.size());
  WriteLists(&w, lists, plan, universe, [](size_t) {});
  return w.Finish();
}

Status DecodeIntranode(const uint8_t* data, size_t size, uint32_t num_pages,
                       IntranodeGraph* out) {
  BitReader r(data, size);
  uint64_t n = ReadGamma(&r);
  if (!r.ok() || n != num_pages) {
    return Status::Corruption("intranode: blob holds " + std::to_string(n) +
                              " pages, expected " +
                              std::to_string(num_pages));
  }
  out->num_pages = num_pages;
  WG_RETURN_IF_ERROR(ReadLists(
      &r, "intranode", n, num_pages, [](uint64_t) { return Status::OK(); },
      &out->offsets, &out->targets));
  if (r.position() + 8 <= r.size_bits()) {
    return Status::Corruption("intranode: trailing garbage");
  }
  return Status::OK();
}

void SuperedgeGraph::LinksOf(uint32_t src, std::vector<uint32_t>* out) const {
  auto it = std::lower_bound(sources.begin(), sources.end(), src);
  bool present = it != sources.end() && *it == src;
  if (positive) {
    if (!present) return;
    size_t k = static_cast<size_t>(it - sources.begin());
    out->insert(out->end(), targets.begin() + offsets[k],
                targets.begin() + offsets[k + 1]);
    return;
  }
  // Negative polarity: absent source points to all of N_j.
  if (!present) {
    for (uint32_t t = 0; t < num_target_pages; ++t) out->push_back(t);
    return;
  }
  size_t k = static_cast<size_t>(it - sources.begin());
  uint32_t next = 0;
  for (uint32_t idx = offsets[k]; idx < offsets[k + 1]; ++idx) {
    uint32_t missing = targets[idx];
    for (uint32_t t = next; t < missing; ++t) out->push_back(t);
    next = missing + 1;
  }
  for (uint32_t t = next; t < num_target_pages; ++t) out->push_back(t);
}

uint64_t SuperedgeGraph::NumPositiveEdges(uint32_t num_source_pages) const {
  if (positive) return targets.size();
  return static_cast<uint64_t>(num_source_pages) * num_target_pages -
         targets.size();
}

std::vector<uint8_t> EncodeSuperedge(
    const std::vector<uint32_t>& sources,
    const std::vector<std::vector<uint32_t>>& lists,
    uint32_t num_source_pages, uint32_t num_target_pages,
    const SuperedgeEncodeOptions& options) {
  uint64_t pos_edges = 0;
  for (const auto& list : lists) pos_edges += list.size();
  uint64_t neg_edges =
      static_cast<uint64_t>(num_source_pages) * num_target_pages - pos_edges;

  bool positive = !(options.allow_negative && neg_edges < pos_edges);

  // Materialize the source set + lists actually encoded.
  std::vector<uint32_t> enc_sources;
  std::vector<std::vector<uint32_t>> enc_lists;
  if (positive) {
    enc_sources = sources;
    enc_lists = lists;
  } else {
    // Complement per source over all of N_i; sources with complete links
    // are omitted, sources with no links carry the full complement.
    size_t k = 0;
    for (uint32_t src = 0; src < num_source_pages; ++src) {
      const std::vector<uint32_t>* list = nullptr;
      if (k < sources.size() && sources[k] == src) {
        list = &lists[k];
        ++k;
      }
      std::vector<uint32_t> comp;
      if (list == nullptr) {
        comp.resize(num_target_pages);
        for (uint32_t t = 0; t < num_target_pages; ++t) comp[t] = t;
      } else {
        comp.reserve(num_target_pages - list->size());
        uint32_t next = 0;
        for (uint32_t present : *list) {
          for (uint32_t t = next; t < present; ++t) comp.push_back(t);
          next = present + 1;
        }
        for (uint32_t t = next; t < num_target_pages; ++t) comp.push_back(t);
      }
      if (!comp.empty()) {
        enc_sources.push_back(src);
        enc_lists.push_back(std::move(comp));
      }
    }
  }

  // ni and nj are NOT stored: the resident supernode graph knows both at
  // decode time, and with tens of superedge graphs per supernode the header
  // savings are significant.
  ReferencePlan plan =
      ComputeReferencePlan(enc_lists, num_target_pages,
                           kSuperedgeReferenceWindow,
                           options.use_reference_encoding);
  BitWriter w;
  w.WriteBit(positive);
  WriteGamma(&w, enc_sources.size());
  WriteLists(&w, enc_lists, plan, num_target_pages, [&](size_t k) {
    if (k == 0) {
      WriteMinimalBinary(&w, enc_sources[0], num_source_pages);
    } else {
      WriteGamma(&w, enc_sources[k] - enc_sources[k - 1] - 1);
    }
  });
  return w.Finish();
}

Status DecodeSuperedge(const uint8_t* data, size_t size,
                       uint32_t num_source_pages, uint32_t num_target_pages,
                       SuperedgeGraph* out) {
  BitReader r(data, size);
  out->positive = r.ReadBit();
  out->num_target_pages = num_target_pages;
  uint64_t present = ReadGamma(&r);
  if (!r.ok() || present > num_source_pages) {
    return Status::Corruption("superedge: bad header");
  }
  out->sources.clear();
  out->sources.reserve(present);
  uint32_t src = 0;
  auto read_source = [&](uint64_t k) {
    if (k == 0) {
      src = static_cast<uint32_t>(ReadMinimalBinary(&r, num_source_pages));
    } else {
      src += static_cast<uint32_t>(ReadGamma(&r)) + 1;
    }
    if (src >= num_source_pages) {
      return Status::Corruption("superedge: source out of range");
    }
    out->sources.push_back(src);
    return Status::OK();
  };
  return ReadLists(&r, "superedge", present, num_target_pages, read_source,
                   &out->offsets, &out->targets);
}

}  // namespace wg
