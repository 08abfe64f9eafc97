#include "snode/refinement.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <unordered_map>

#include "obs/trace.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace wg {

namespace {

// Seed of the clustered split's RNG streams (SplitSeed).
constexpr uint64_t kRefinementSeed = 17;

// "Upper bound on the running time" of one k-means attempt, expressed in
// Lloyd iterations, and the number of k += 2 retries before aborting.
constexpr int kKmeansMaxIterations = 25;
constexpr int kKmeansAttempts = 3;

// Cap on k and on bit-vector dimensionality, for robustness on hub
// elements.
constexpr uint32_t kMaxK = 48;
constexpr size_t kMaxDimensions = 512;

// One refinement element plus its URL-split progress.
struct Element {
  std::vector<PageId> pages;  // sorted by URL
  int url_level = -1;  // prefix levels defining it; -1 = domain grouping
  bool url_exhausted = false;
};

// Returns the prefix of `url` covering the host and the first `levels`
// path directories (level 0 = host only). If the URL has fewer directory
// levels, returns its full directory part.
std::string UrlPrefix(const std::string& url, int levels) {
  size_t pos = url.find("//");
  pos = pos == std::string::npos ? 0 : pos + 2;
  size_t slash = url.find('/', pos);
  if (slash == std::string::npos) return url;
  // Consume `levels` further directories.
  size_t end = slash;
  for (int l = 0; l < levels; ++l) {
    size_t next = url.find('/', end + 1);
    if (next == std::string::npos) {
      return url.substr(0, end + 1);  // ran out of directories
    }
    end = next;
  }
  return url.substr(0, end + 1);
}

// Sorts a page list lexicographically by URL.
void SortByUrl(const WebGraph& graph, std::vector<PageId>* pages) {
  std::sort(pages->begin(), pages->end(), [&graph](PageId a, PageId b) {
    return graph.url(a) < graph.url(b);
  });
}

void SortByUrl(const ElementData& data, std::vector<PageId>* pages) {
  std::sort(pages->begin(), pages->end(), [&data](PageId a, PageId b) {
    return data.url(a) < data.url(b);
  });
}

// Coalesces groups smaller than `min_group_size` into one residual group.
// Keeps the partition from shattering into elements so small that the
// superedge-graph and supernode-pointer overhead dominates the encoding.
void CoalesceSmallGroups(size_t min_group_size,
                         std::vector<std::vector<PageId>>* groups) {
  std::vector<std::vector<PageId>> kept;
  std::vector<PageId> residual;
  for (auto& g : *groups) {
    if (g.size() >= min_group_size) {
      kept.push_back(std::move(g));
    } else {
      residual.insert(residual.end(), g.begin(), g.end());
    }
  }
  if (!residual.empty()) kept.push_back(std::move(residual));
  *groups = std::move(kept);
}

// --- URL split, the one rule behind the build's passes and incremental
// maintenance (RefineNewElement): groups `pages` by the URL prefix one
// level deeper than *level, coalesces groups below `min_group_size`, and
// probes deeper levels until one leaves at least two groups. *level ends
// at the last level probed. Returns the groups in prefix order (URL order
// over URL-sorted pages), or none when no level up to `max_levels` splits.
template <typename UrlOf>
std::vector<std::vector<PageId>> UrlSplit(const std::vector<PageId>& pages,
                                          const UrlOf& url_of, int* level,
                                          int max_levels,
                                          size_t min_group_size) {
  while (*level < max_levels) {
    ++*level;
    std::map<std::string, std::vector<PageId>> by_prefix;
    for (PageId p : pages) {
      by_prefix[UrlPrefix(url_of(p), *level)].push_back(p);
    }
    if (by_prefix.size() < 2) continue;
    std::vector<std::vector<PageId>> groups;
    groups.reserve(by_prefix.size());
    for (auto& [prefix, members] : by_prefix) {
      groups.push_back(std::move(members));
    }
    CoalesceSmallGroups(min_group_size, &groups);
    if (groups.size() > 1) return groups;
    // All groups below the floor: keep probing deeper levels.
  }
  return {};
}

// --- Clustered split (k-means over supernode-adjacency bit vectors).

struct ClusteredSplitResult {
  bool success = false;
  std::vector<std::vector<PageId>> groups;
};

ClusteredSplitResult ClusteredSplit(const ElementData& data,
                                    const Element& element,
                                    const std::vector<uint32_t>& owner,
                                    uint32_t self_element,
                                    size_t min_group_size, Rng* rng) {
  ClusteredSplitResult result;
  size_t n = element.pages.size();

  // Dimensions = other elements this element's pages point to, most
  // frequent first, capped for robustness.
  std::unordered_map<uint32_t, uint32_t> freq;
  for (PageId p : element.pages) {
    for (PageId q : data.links(p)) {
      uint32_t e = owner[q];
      if (e != self_element) ++freq[e];
    }
  }
  if (freq.empty()) return result;  // no external links: nothing to cluster
  std::vector<std::pair<uint32_t, uint32_t>> by_freq(freq.begin(), freq.end());
  std::sort(by_freq.begin(), by_freq.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  size_t dims = std::min(by_freq.size(), kMaxDimensions);
  std::unordered_map<uint32_t, uint32_t> dim_of;
  for (size_t d = 0; d < dims; ++d) dim_of[by_freq[d].first] = d;

  // Sparse binary adjacency vector per page: sorted unique dim indices.
  std::vector<std::vector<uint32_t>> vecs(n);
  for (size_t i = 0; i < n; ++i) {
    for (PageId q : data.links(element.pages[i])) {
      auto it = dim_of.find(owner[q]);
      if (it != dim_of.end()) vecs[i].push_back(it->second);
    }
    std::sort(vecs[i].begin(), vecs[i].end());
    vecs[i].erase(std::unique(vecs[i].begin(), vecs[i].end()), vecs[i].end());
  }

  // k starts at the supernode out-degree (paper), clamped to sane bounds.
  uint32_t k0 = static_cast<uint32_t>(by_freq.size());
  k0 = std::min({k0, kMaxK, static_cast<uint32_t>(n / 2)});
  if (k0 < 2) k0 = 2;

  for (int attempt = 0; attempt < kKmeansAttempts; ++attempt) {
    uint32_t k = k0 + 2 * static_cast<uint32_t>(attempt);
    if (k > n) break;

    // Init centroids from k distinct random pages.
    std::vector<std::vector<double>> centroids(k,
                                               std::vector<double>(dims, 0));
    std::vector<size_t> seeds;
    while (seeds.size() < k) {
      size_t cand = rng->Uniform(n);
      if (std::find(seeds.begin(), seeds.end(), cand) == seeds.end()) {
        seeds.push_back(cand);
      }
    }
    for (uint32_t c = 0; c < k; ++c) {
      for (uint32_t d : vecs[seeds[c]]) centroids[c][d] = 1.0;
    }

    std::vector<uint32_t> assign(n, UINT32_MAX);
    bool converged = false;
    for (int iter = 0; iter < kKmeansMaxIterations; ++iter) {
      // Squared centroid norms.
      std::vector<double> cnorm(k, 0);
      for (uint32_t c = 0; c < k; ++c) {
        for (double v : centroids[c]) cnorm[c] += v * v;
      }
      bool changed = false;
      for (size_t i = 0; i < n; ++i) {
        double best = 0;
        uint32_t best_c = 0;
        bool first = true;
        for (uint32_t c = 0; c < k; ++c) {
          double dot = 0;
          for (uint32_t d : vecs[i]) dot += centroids[c][d];
          double dist = static_cast<double>(vecs[i].size()) - 2 * dot +
                        cnorm[c];
          if (first || dist < best) {
            best = dist;
            best_c = c;
            first = false;
          }
        }
        if (assign[i] != best_c) {
          assign[i] = best_c;
          changed = true;
        }
      }
      if (!changed) {
        converged = true;
        break;
      }
      // Recompute centroids.
      for (auto& c : centroids) std::fill(c.begin(), c.end(), 0.0);
      std::vector<uint32_t> counts(k, 0);
      for (size_t i = 0; i < n; ++i) {
        ++counts[assign[i]];
        for (uint32_t d : vecs[i]) centroids[assign[i]][d] += 1.0;
      }
      for (uint32_t c = 0; c < k; ++c) {
        if (counts[c] > 0) {
          for (double& v : centroids[c]) v /= counts[c];
        }
      }
    }
    if (!converged) continue;  // k += 2 and retry (paper's policy)

    std::vector<std::vector<PageId>> groups(k);
    for (size_t i = 0; i < n; ++i) {
      groups[assign[i]].push_back(element.pages[i]);
    }
    groups.erase(std::remove_if(groups.begin(), groups.end(),
                                [](const auto& g) { return g.empty(); }),
                 groups.end());
    CoalesceSmallGroups(min_group_size, &groups);
    if (groups.size() < 2) return result;  // converged but did not split
    result.success = true;
    result.groups = std::move(groups);
    return result;
  }
  return result;  // every attempt failed to converge: abort
}

// RNG stream for one candidate evaluation: a deterministic function of
// (pass number, element id), so the draw sequence a split sees does not
// depend on which thread evaluates it or in what order.
uint64_t SplitSeed(size_t pass, uint32_t element) {
  return kRefinementSeed ^
         (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(pass) + 1)) ^
         (0xc2b2ae3d27d4eb4fULL * (static_cast<uint64_t>(element) + 1));
}

// What one candidate's evaluation produced, to be installed at merge time.
struct SplitOutcome {
  Status status;                            // borrow/read failures
  std::vector<std::vector<PageId>> groups;  // empty = no split
  bool clustered_attempt = false;
};

// The classic data plane: zero-copy borrows against a resident WebGraph.
class WebGraphRefinementGraph : public RefinementGraph {
 public:
  explicit WebGraphRefinementGraph(const WebGraph& graph) : graph_(graph) {}

  size_t num_pages() const override { return graph_.num_pages(); }
  Result<Partition> InitialPartition() const override {
    return InitialDomainPartition(graph_);
  }
  Status Borrow(const std::vector<PageId>&, bool,
                ElementData* out) const override {
    out->BindGraph(&graph_);
    return Status::OK();
  }

 private:
  const WebGraph& graph_;
};

}  // namespace

void ElementData::Load(std::vector<PageId> pages_by_id,
                       std::vector<std::string> urls,
                       std::vector<std::vector<PageId>> links) {
  graph_ = nullptr;
  pages_ = std::move(pages_by_id);
  urls_ = std::move(urls);
  links_ = std::move(links);
}

size_t ElementData::IndexOf(PageId p) const {
  auto it = std::lower_bound(pages_.begin(), pages_.end(), p);
  WG_DCHECK(it != pages_.end() && *it == p);
  return static_cast<size_t>(it - pages_.begin());
}

const std::string& ElementData::url(PageId p) const {
  if (graph_ != nullptr) return graph_->url(p);
  return urls_[IndexOf(p)];
}

std::span<const PageId> ElementData::links(PageId p) const {
  if (graph_ != nullptr) return graph_->OutLinks(p);
  const std::vector<PageId>& l = links_[IndexOf(p)];
  return {l.data(), l.size()};
}

Partition InitialDomainPartition(const WebGraph& graph) {
  Partition partition;
  std::vector<std::vector<PageId>> by_domain(graph.num_domains());
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    by_domain[graph.domain_id(p)].push_back(p);
  }
  for (auto& pages : by_domain) {
    if (!pages.empty()) {
      SortByUrl(graph, &pages);
      partition.elements.push_back(std::move(pages));
    }
  }
  return partition;
}

Partition RefinePartition(const WebGraph& graph,
                          const RefinementOptions& options,
                          RefinementStats* stats) {
  WebGraphRefinementGraph source(graph);
  Result<Partition> result = RefinePartitionFrom(source, options, stats);
  // The WebGraph data plane has no error paths.
  WG_CHECK(result.ok());
  return std::move(result).value();
}

Result<Partition> RefinePartitionFrom(const RefinementGraph& source,
                                      const RefinementOptions& options,
                                      RefinementStats* stats) {
  auto t0 = std::chrono::steady_clock::now();
  RefinementStats local_stats;
  ParallelExecutor executor(options.threads);

  WG_ASSIGN_OR_RETURN(Partition initial, source.InitialPartition());
  std::vector<Element> elements;
  elements.reserve(initial.elements.size());
  for (auto& pages : initial.elements) {
    Element e;
    e.pages = std::move(pages);
    elements.push_back(std::move(e));
  }

  // owner[p] = current element of page p, maintained across splits.
  std::vector<uint32_t> owner(source.num_pages(), 0);
  for (uint32_t e = 0; e < elements.size(); ++e) {
    for (PageId p : elements[e].pages) owner[p] = e;
  }

  auto eligible = [&](uint32_t e) {
    if (elements[e].pages.size() < options.min_split_size) return false;
    if (!elements[e].url_exhausted) return true;
    return options.use_clustered_split;
  };

  std::vector<uint32_t> candidates;
  for (uint32_t e = 0; e < elements.size(); ++e) {
    if (eligible(e)) candidates.push_back(e);
  }

  size_t consecutive_aborts = 0;
  bool stopped = false;
  while (!candidates.empty() && !stopped) {
    // Merge (= install) order of this pass: by size for the
    // largest-first policy, by element id otherwise.
    if (options.split_largest_first) {
      std::sort(candidates.begin(), candidates.end(),
                [&](uint32_t a, uint32_t b) {
                  if (elements[a].pages.size() != elements[b].pages.size()) {
                    return elements[a].pages.size() > elements[b].pages.size();
                  }
                  return a < b;
                });
    } else {
      std::sort(candidates.begin(), candidates.end());
    }
    size_t pass = local_stats.passes++;

    // One span per pass (evaluate + ordered merge), not per candidate:
    // a pass can hold thousands of candidates and the trace should show
    // convergence shape, not drown in it.
    obs::Span pass_span("refine.pass", "build");
    pass_span.AddArg("pass", pass);
    pass_span.AddArg("candidates", candidates.size());

    // Evaluate every candidate against the pass-start partition. Each
    // worker owns its candidate's Element exclusively (URL-split level
    // advancement mutates it); `elements`, `owner`, and the graph are
    // read-only until the merge below.
    std::vector<SplitOutcome> outcomes(candidates.size());
    executor.ParallelFor(0, candidates.size(), [&](size_t i) {
      uint32_t e = candidates[i];
      SplitOutcome& out = outcomes[i];
      ElementData data;
      bool need_links = elements[e].url_exhausted;
      out.status = source.Borrow(elements[e].pages, need_links, &data);
      if (!out.status.ok()) return;
      if (!elements[e].url_exhausted) {
        out.groups = UrlSplit(
            elements[e].pages,
            [&data](PageId p) -> const std::string& { return data.url(p); },
            &elements[e].url_level, options.url_split_max_levels,
            options.min_group_size);
        // If URL split exhausted without splitting, the element stays a
        // candidate and is clustered-split in a later pass.
        elements[e].url_exhausted = out.groups.empty();
      } else {
        out.clustered_attempt = true;
        Rng rng(SplitSeed(pass, e));
        ClusteredSplitResult cs =
            ClusteredSplit(data, elements[e], owner, e,
                           options.min_group_size, &rng);
        if (cs.success) out.groups = std::move(cs.groups);
      }
      for (auto& group : out.groups) SortByUrl(data, &group);
    });

    // Ordered merge: install results one candidate at a time, evolving the
    // abort counter and stats exactly as a serial run of the same pass
    // would. Results past the stopping point are discarded.
    for (size_t i = 0; i < candidates.size(); ++i) {
      size_t abort_max = std::max<size_t>(
          1, static_cast<size_t>(options.abort_max_fraction *
                                 static_cast<double>(elements.size())));
      if (consecutive_aborts >= abort_max) {
        stopped = true;
        break;
      }
      uint32_t e = candidates[i];
      SplitOutcome& out = outcomes[i];
      // Surface I/O failures in merge order, after the stop check, so the
      // first error a run reports is the same at every thread count.
      WG_RETURN_IF_ERROR(out.status);
      ++local_stats.iterations;

      if (out.groups.empty()) {
        if (out.clustered_attempt) {
          ++local_stats.clustered_aborts;
          ++consecutive_aborts;
        }
        continue;
      }
      if (out.clustered_attempt) {
        ++local_stats.clustered_splits;
        consecutive_aborts = 0;
      } else {
        ++local_stats.url_splits;
      }

      // Install the split: element e keeps group 0; the rest are appended.
      int inherited_level = elements[e].url_level;
      bool inherited_exhausted = elements[e].url_exhausted;
      for (size_t g = 0; g < out.groups.size(); ++g) {
        uint32_t id;
        if (g == 0) {
          id = e;
          elements[e].pages = std::move(out.groups[0]);
        } else {
          id = static_cast<uint32_t>(elements.size());
          Element fresh;
          fresh.pages = std::move(out.groups[g]);
          fresh.url_level = inherited_level;
          fresh.url_exhausted = inherited_exhausted;
          elements.push_back(std::move(fresh));
        }
        for (PageId p : elements[id].pages) owner[p] = id;
      }
    }

    // Next pass: everything still (or newly) splittable.
    candidates.clear();
    for (uint32_t e = 0; e < elements.size(); ++e) {
      if (eligible(e)) candidates.push_back(e);
    }
  }

  Partition result;
  result.elements.reserve(elements.size());
  for (auto& element : elements) {
    result.elements.push_back(std::move(element.pages));
  }
  local_stats.final_elements = result.elements.size();
  local_stats.refine_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (stats != nullptr) *stats = local_stats;
  return result;
}

std::vector<std::vector<PageId>> RefineNewElement(
    std::vector<PageId> pages,
    const std::function<const std::string&(PageId)>& url_of,
    const RefinementOptions& options) {
  std::sort(pages.begin(), pages.end(), [&url_of](PageId a, PageId b) {
    return url_of(a) < url_of(b);
  });
  std::vector<std::vector<PageId>> done;
  // FIFO over (group, deepest prefix level already probed); map iteration
  // emits groups in prefix order, which over URL-sorted input is URL order.
  std::deque<std::pair<std::vector<PageId>, int>> work;
  work.emplace_back(std::move(pages), 0);
  while (!work.empty()) {
    auto [group, level] = std::move(work.front());
    work.pop_front();
    std::vector<std::vector<PageId>> groups;
    if (group.size() >= options.min_split_size) {
      groups = UrlSplit(group, url_of, &level, options.url_split_max_levels,
                        options.min_group_size);
    }
    if (groups.empty()) done.push_back(std::move(group));
    for (auto& g : groups) work.emplace_back(std::move(g), level);
  }
  return done;
}

std::string RefinementStats::ToString() const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "iterations=%zu passes=%zu url_splits=%zu "
                "clustered_splits=%zu clustered_aborts=%zu "
                "final_elements=%zu refine=%.3fs encode=%.3fs layout=%.3fs "
                "total=%.3fs",
                iterations, passes, url_splits, clustered_splits,
                clustered_aborts, final_elements, refine_seconds,
                encode_seconds, layout_seconds, total_seconds);
  return buf;
}

void RefinementStats::PublishTo(obs::MetricRegistry& registry,
                                const obs::Labels& labels) const {
  auto count = [&](const char* name, size_t v, const char* help) {
    registry.GetCounter(name, labels, help) += v;
  };
  count("wg_build_iterations_total", iterations,
        "Refinement iterations (candidate splits evaluated)");
  count("wg_build_passes_total", passes, "Refinement passes");
  count("wg_build_url_splits_total", url_splits, "Successful URL splits");
  count("wg_build_clustered_splits_total", clustered_splits,
        "Successful clustered (k-means) splits");
  count("wg_build_clustered_aborts_total", clustered_aborts,
        "Aborted clustered split attempts");
  registry
      .GetGauge("wg_build_final_elements", labels,
                "Partition elements (supernodes) after refinement")
      .Set(static_cast<double>(final_elements));
  registry
      .GetGauge("wg_build_refine_seconds", labels,
                "Wall-clock of the refinement phase")
      .Set(refine_seconds);
  registry
      .GetGauge("wg_build_encode_seconds", labels,
                "Wall-clock of the parallel encode phase")
      .Set(encode_seconds);
  registry
      .GetGauge("wg_build_layout_seconds", labels,
                "Wall-clock of the ordered layout phase")
      .Set(layout_seconds);
  registry
      .GetGauge("wg_build_total_seconds", labels,
                "Wall-clock of the whole build (all phases)")
      .Set(total_seconds);
}

}  // namespace wg
