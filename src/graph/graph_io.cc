#include "graph/graph_io.h"

#include "storage/serial.h"
#include "util/coding.h"

namespace wg {

namespace {

constexpr char kMagic[4] = {'W', 'G', 'G', '1'};

}  // namespace

Status SaveWebGraph(const WebGraph& graph, const std::string& path) {
  std::string payload;
  size_t n = graph.num_pages();
  PutVarint64(&payload, n);
  PutVarint64(&payload, graph.num_edges());

  // Adjacency: per page, varint degree then varint gaps.
  for (PageId p = 0; p < n; ++p) {
    auto links = graph.OutLinks(p);
    PutVarint32(&payload, static_cast<uint32_t>(links.size()));
    PageId prev = 0;
    for (PageId q : links) {
      PutVarint32(&payload, q - prev);
      prev = q;
    }
  }

  PutVarint64(&payload, graph.num_domains());
  for (uint32_t d = 0; d < graph.num_domains(); ++d) {
    const std::string& name = graph.domain_name(d);
    PutVarint64(&payload, name.size());
    payload.append(name);
  }
  PutVarint64(&payload, graph.num_hosts());
  for (uint32_t h = 0; h < graph.num_hosts(); ++h) {
    const std::string& name = graph.host_name(h);
    PutVarint64(&payload, name.size());
    payload.append(name);
    PutVarint32(&payload, graph.host_domain(h));
  }
  for (PageId p = 0; p < n; ++p) {
    const std::string& url = graph.url(p);
    PutVarint64(&payload, url.size());
    payload.append(url);
    PutVarint32(&payload, graph.host_id(p));
  }
  return WriteFramedFile(path, kMagic, payload);
}

Result<WebGraph> LoadWebGraph(const std::string& path) {
  WG_ASSIGN_OR_RETURN(std::string payload, ReadFramedFile(path, kMagic));
  SerialCursor cursor(payload);
  // Counts that size containers are checked against the bytes left
  // (SerialCursor::ReadCount) before anything is allocated.
  uint64_t n = 0, m = 0;
  if (!cursor.ReadCount(&n) || !cursor.ReadVarint64(&m)) {
    return Status::Corruption("graph file: bad counts");
  }
  std::vector<std::vector<PageId>> adjacency(n);
  uint64_t edges = 0;
  for (uint64_t p = 0; p < n; ++p) {
    uint64_t degree = 0;
    if (!cursor.ReadCount(&degree)) {
      return Status::Corruption("graph file: bad degree");
    }
    PageId prev = 0;
    adjacency[p].reserve(degree);
    for (uint64_t i = 0; i < degree; ++i) {
      uint32_t gap = 0;
      if (!cursor.ReadVarint32(&gap)) {
        return Status::Corruption("graph file: bad gap");
      }
      prev += gap;
      if (prev >= n) return Status::Corruption("graph file: bad target");
      adjacency[p].push_back(prev);
      ++edges;
    }
  }
  if (edges != m) return Status::Corruption("graph file: edge count");

  uint64_t num_domains = 0;
  if (!cursor.ReadCount(&num_domains)) {
    return Status::Corruption("graph file: bad domain count");
  }
  std::vector<std::string> domains(num_domains);
  for (auto& name : domains) {
    if (!cursor.ReadString(&name)) {
      return Status::Corruption("graph file: bad domain name");
    }
  }
  uint64_t num_hosts = 0;
  if (!cursor.ReadVarint64(&num_hosts)) {
    return Status::Corruption("graph file: bad host count");
  }
  GraphBuilder builder;
  for (uint64_t h = 0; h < num_hosts; ++h) {
    std::string name;
    uint32_t domain = 0;
    if (!cursor.ReadString(&name) || !cursor.ReadVarint32(&domain) ||
        domain >= num_domains) {
      return Status::Corruption("graph file: bad host record");
    }
    builder.AddHost(name, domains[domain]);
  }
  for (uint64_t p = 0; p < n; ++p) {
    std::string url;
    uint32_t host = 0;
    if (!cursor.ReadString(&url) || !cursor.ReadVarint32(&host) ||
        host >= num_hosts) {
      return Status::Corruption("graph file: bad page record");
    }
    builder.AddPage(std::move(url), host);
  }
  for (uint64_t p = 0; p < n; ++p) {
    for (PageId q : adjacency[p]) {
      builder.AddLink(static_cast<PageId>(p), q);
    }
  }
  return builder.Build();
}

}  // namespace wg
