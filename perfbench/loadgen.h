#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "server/query_service.h"

// Open-loop load generator for QueryService: Poisson arrivals at a fixed
// offered rate, sent from the calling thread on schedule whether or not
// earlier requests have finished. Each request is timed from its
// *scheduled* send to the moment this thread sees its response, so a stall
// is charged to every request it delays (no coordinated omission). The
// calling thread both sends and polls, so the generator is one thread.

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Answers per request of the pool. The first answer to each request is
// kept, to be checked against the crawl after timing; every later answer
// to the same request must equal it. Memory is fixed by the pool size, not
// by how many requests a run sends.
struct AnswerTable {
  explicit AnswerTable(size_t pool_size)
      : size(pool_size, 0), hash(pool_size, 0), seen(pool_size, false) {}
  void Record(uint32_t request, const std::vector<wg::PageId>& pages);

  std::vector<uint32_t> size;
  std::vector<uint64_t> hash;  // HashPages of the page list
  std::vector<bool> seen;
  size_t answers = 0;
  size_t inconsistent = 0;     // later answers that differed from the first
};

// One request sent, kept compact: a rung at the hot rates sends ~1M.
struct Sample {
  float scheduled_s = 0;  // scheduled send, seconds after the rung began
  float latency_us = 0;   // scheduled send -> response observed
  float late_us = 0;      // actual send - scheduled send
  wg::server::ResponseCode code = wg::server::ResponseCode::kOk;
};

struct Rung {
  double offered_rps = 0;
  double seconds = 0;   // length of the send window actually used
  double window_s = 0;  // length of one evaluation window
  bool aborted = false; // send window cut short after a rejection
  // Requests outstanding at the end of each window (sent, not answered).
  std::vector<size_t> backlog;
  std::vector<Sample> samples;      // in completion order
  std::vector<uint64_t> trace_ids;  // Response::trace_id per sample, when
                                    // asked for
};

// Sends pool[*next % pool.size()], pool[*next + 1 ...] to `service` at
// Poisson rate `rate` for `seconds`, then waits for every response, which
// goes into `answers`. Advances *next past the requests sent. With
// `stop_on_reject` the send window closes at the first rejection: the rung
// has failed, and the rest of it would only measure overload.
Rung RunRung(wg::server::QueryService* service,
             const std::vector<wg::server::Request>& pool, size_t* next,
             double rate, double seconds, double window_s, uint64_t seed,
             bool stop_on_reject, bool keep_trace_ids, AnswerTable* answers);

// FNV-1a over a page list: the answer fingerprint the checks compare.
uint64_t HashPages(const wg::PageId* pages, size_t n);

// Nearest-rank percentile (q in [0, 1]) of raw values; 0 when empty.
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
