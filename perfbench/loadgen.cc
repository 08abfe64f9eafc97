#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <random>

namespace perfbench {

using wg::server::Response;
using wg::server::ResponseCode;

namespace {

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Pending {
  std::future<Response> future;
  uint32_t request = 0;
  Clock::time_point scheduled;
  float late_us = 0;
};

}  // namespace

void AnswerTable::Record(uint32_t request,
                         const std::vector<wg::PageId>& pages) {
  const uint32_t n = static_cast<uint32_t>(pages.size());
  const uint64_t h = HashPages(pages.data(), pages.size());
  ++answers;
  if (!seen[request]) {
    seen[request] = true;
    size[request] = n;
    hash[request] = h;
  } else if (size[request] != n || hash[request] != h) {
    ++inconsistent;
  }
}

uint64_t HashPages(const wg::PageId* pages, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) h = (h ^ pages[i]) * 1099511628211ull;
  return h;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

Rung RunRung(wg::server::QueryService* service,
             const std::vector<wg::server::Request>& pool, size_t* next,
             double rate, double seconds, double window_s, uint64_t seed,
             bool stop_on_reject, bool keep_trace_ids, AnswerTable* answers) {
  Rung rung;
  rung.offered_rps = rate;
  rung.window_s = window_s;
  const size_t expected = static_cast<size_t>(rate * seconds * 1.1) + 64;
  rung.samples.reserve(expected);
  if (keep_trace_ids) rung.trace_ids.reserve(expected);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_seconds(rate);
  std::vector<Pending> pending;
  pending.reserve(1024);
  bool rejected = false;

  const Clock::time_point start = Clock::now();
  auto harvest = [&] {
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      Clock::time_point seen = Clock::now();
      Response response = pending[i].future.get();
      Sample sample;
      sample.scheduled_s = static_cast<float>(
          std::chrono::duration<double>(pending[i].scheduled - start)
              .count());
      sample.latency_us =
          static_cast<float>(Micros(seen - pending[i].scheduled));
      sample.late_us = pending[i].late_us;
      sample.code = response.code;
      if (response.code == ResponseCode::kOk) {
        answers->Record(pending[i].request, response.pages);
      }
      rejected = rejected || response.code == ResponseCode::kRejected;
      rung.samples.push_back(sample);
      if (keep_trace_ids) rung.trace_ids.push_back(response.trace_id);
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  };

  const Clock::time_point end = start + FromSeconds(seconds);
  Clock::time_point due = start;
  Clock::time_point window_end = start + FromSeconds(window_s);
  bool open = true;
  while (open || !pending.empty()) {
    Clock::time_point now = Clock::now();
    if (open && now >= window_end) {
      rung.backlog.push_back(pending.size());
      window_end += FromSeconds(window_s);
    }
    if (open && (now >= end || (stop_on_reject && rejected))) {
      open = false;
      rung.aborted = now < end;
      rung.seconds = std::chrono::duration<double>(now - start).count();
    }
    if (open && now >= due) {
      Pending p;
      p.request = static_cast<uint32_t>(*next % pool.size());
      p.scheduled = due;
      p.late_us = static_cast<float>(Micros(now - due));
      p.future = service->Submit(pool[p.request]);
      pending.push_back(std::move(p));
      ++*next;
      due += FromSeconds(gap_seconds(rng));
      continue;  // catch up on overdue sends before polling
    }
    harvest();
  }
  return rung;
}

}  // namespace perfbench
