#include "server/workload.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/rng.h"

namespace wg::server {

std::vector<Request> SyntheticWorkload(const WorkloadOptions& options) {
  WG_CHECK(options.num_pages > 0);
  Rng rng(options.seed);
  // Zipf over ranks, ranks mapped to pages by a seeded shuffle so the hot
  // set is spread across supernodes instead of clustering at low ids.
  ZipfSampler zipf(options.num_pages, options.zipf_theta);
  std::vector<PageId> page_of_rank(options.num_pages);
  for (size_t i = 0; i < options.num_pages; ++i) {
    page_of_rank[i] = static_cast<PageId>(i);
  }
  for (size_t i = options.num_pages - 1; i > 0; --i) {
    std::swap(page_of_rank[i], page_of_rank[rng.Uniform(i + 1)]);
  }

  double total_weight =
      options.out_weight + options.in_weight + options.khop_weight;
  WG_CHECK(total_weight > 0);
  std::vector<Request> requests;
  requests.reserve(options.num_requests);
  for (size_t i = 0; i < options.num_requests; ++i) {
    Request request;
    double pick = rng.NextDouble() * total_weight;
    if (pick < options.out_weight) {
      request.type = RequestType::kOutNeighbors;
    } else if (pick < options.out_weight + options.in_weight) {
      request.type = RequestType::kInNeighbors;
    } else {
      request.type = RequestType::kKHop;
      request.k = options.khop_k;
    }
    request.page = page_of_rank[zipf.Sample(&rng)];
    requests.push_back(request);
  }
  return requests;
}

Result<std::vector<Request>> ParseRequestFile(const std::string& path,
                                              size_t num_pages) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open request file: " + path);
  std::vector<Request> requests;
  std::string line;
  std::vector<std::string> fields;
  for (size_t lineno = 1; std::getline(in, line); ++lineno) {
    fields.clear();
    std::istringstream split(line);
    for (std::string field; split >> field;) fields.push_back(field);
    if (fields.empty() || fields[0][0] == '#') continue;
    auto bad = [&](const char* why) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + why);
    };
    // True when fields[i] is a whole unsigned decimal number.
    auto number = [&fields](size_t i, uint64_t* value) {
      const std::string& f = fields[i];
      auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), *value);
      return ec == std::errc() && end == f.data() + f.size();
    };
    const std::string& op = fields[0];
    Request request;
    uint64_t a = 0, b = 0;
    if (op == "out" || op == "in") {
      if (fields.size() != 2 || !number(1, &a)) {
        return bad("expected: out|in <page>");
      }
      if (a >= num_pages) return bad("page id out of range");
      request.type = op == "out" ? RequestType::kOutNeighbors
                                 : RequestType::kInNeighbors;
      request.page = static_cast<PageId>(a);
    } else if (op == "khop") {
      if (fields.size() != 3 || !number(1, &a) || !number(2, &b)) {
        return bad("expected: khop <page> <k>");
      }
      if (a >= num_pages) return bad("page id out of range");
      if (b == 0 || b > 16) return bad("k must be in [1, 16]");
      request.type = RequestType::kKHop;
      request.page = static_cast<PageId>(a);
      request.k = static_cast<int>(b);
    } else if (op == "query") {
      if (fields.size() != 2 || !number(1, &a)) {
        return bad("expected: query <1..6>");
      }
      if (a < 1 || a > 6) return bad("query number must be 1..6");
      request.type = RequestType::kComplexQuery;
      request.query_number = static_cast<int>(a);
    } else {
      return bad("unknown op (expected out/in/khop/query)");
    }
    requests.push_back(request);
  }
  if (in.bad()) return Status::IOError("cannot read request file: " + path);
  return requests;
}

}  // namespace wg::server
