#ifndef WG_SERVER_WORKLOAD_H_
#define WG_SERVER_WORKLOAD_H_

#include <string>
#include <vector>

#include "server/request.h"
#include "util/status.h"

// Request streams for driving a QueryService: a deterministic synthetic
// workload (mixed out/in/k-hop traffic with a Zipf-skewed page popularity,
// the shape of real serving traffic) and a plain-text request file parser
// for replaying captured or hand-written workloads through wgserve.

namespace wg::server {

struct WorkloadOptions {
  size_t num_requests = 10000;
  uint64_t seed = 1;
  size_t num_pages = 0;  // page-id space; required

  // Relative frequencies of the request types (complex queries are driven
  // explicitly via request files, not the synthetic mix).
  double out_weight = 6.0;
  double in_weight = 3.0;
  double khop_weight = 1.0;
  int khop_k = 2;

  // Page popularity skew: requests hit page ranks Zipf(theta)-distributed
  // over a shuffled id space, so a small hot set dominates -- what makes
  // a read-through cache worth serving from.
  double zipf_theta = 0.8;
};

// Deterministic for a given options struct.
std::vector<Request> SyntheticWorkload(const WorkloadOptions& options);

// Parses one request per line; blank lines and lines whose first field
// starts with '#' are skipped:
//   out <page>
//   in <page>
//   khop <page> <k>
//   query <number 1..6>
// Fields are separated by blanks, numbers are unsigned decimal, and a line
// with more or fewer fields than its op takes is an error. Page ids must be
// < num_pages. Errors name the file and the 1-based line.
Result<std::vector<Request>> ParseRequestFile(const std::string& path,
                                              size_t num_pages);

}  // namespace wg::server

#endif  // WG_SERVER_WORKLOAD_H_
