#ifndef WG_OBS_METRICS_H_
#define WG_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

// Process-wide metric registry: named, labelled Counter/Gauge/Histogram
// handles that every layer (pager, representations, S-Node cache, query
// service, build pipeline) records into, with one machine-readable
// exposition point (Prometheus text or JSON) instead of four ad-hoc
// printf'd structs.
//
// Concurrency model: registration (GetCounter & co.) takes the registry
// mutex once; the returned handle holds a shared_ptr to the metric cell
// and every subsequent bump is a relaxed atomic op -- the hot path never
// locks. Cells are kept alive by the registry for the life of the
// process (Prometheus series semantics), so handles stay valid even if
// the registry is cleared while an instrumented component still runs.
//
// Series lifetime: registered series are never removed (short of
// Clear()), so a process that keeps constructing components which
// register per-instance series -- each Pager::Open, SNodeRepr build, or
// QueryService adds {instance=<ordinal>} series to the Default registry
// -- grows registry memory and exposition size without bound. That
// matches the intended shape (a serving process opens its stores once);
// a component opened in a loop should either reuse one registry-backed
// stats struct or record into an unbound (private-cell) one.
//
// Handle value semantics let stats structs (ReprStats, PagerStats) hold
// obs::Counter fields and use them like the uint64_t fields they replaced:
//   * copy construction snapshots the value into a fresh private cell;
//   * copy assignment stores the other handle's value into *this* cell
//     (so `stats = ReprStats()` zeroes the counters but keeps their
//     registry binding);
//   * operator=(uint64_t), ++, +=, -= and implicit uint64_t conversion
//     behave exactly like the integer they replaced.

namespace wg::obs {

// Label set of one series, e.g. {{"scheme","s-node"},{"instance","3"}}.
// Order is preserved in the exposition output.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonic ordinal for labelling per-instance series (each QueryService,
// representation, or pager gets its own series instead of silently
// aggregating into a shared cell).
uint64_t NextInstanceId();

namespace internal {

struct CounterCell {
  std::atomic<uint64_t> value{0};
};

struct GaugeCell {
  std::atomic<double> value{0};
};

// Log-bucketed histogram: bucket i counts values in (2^i, 2^(i+1)], with
// bucket 0 also absorbing v <= 1 and bucket 31 the overflow. Upper
// bounds are *inclusive* — a value exactly at 2^(i+1) lands in bucket i
// — so the Prometheus `le="2^(i+1)"` cumulative series keeps its <=
// contract. Values are unit-agnostic, so one cell type serves latencies
// (recorded in microseconds), byte sizes, and counts. Quantiles are
// read from bucket upper bounds, so they are exact to within one power
// of two.
struct HistogramCell {
  static constexpr size_t kBuckets = 32;

  std::array<std::atomic<uint64_t>, kBuckets> buckets{};
  std::atomic<uint64_t> count{0};
  std::atomic<double> sum{0};

  // Last exemplar attached to this distribution: the trace id of a
  // recorded observation that crossed the caller's interest threshold
  // (e.g. a slow request), so the exposition can link the distribution
  // to a /tracez entry. 0 = none yet. The pair is not read atomically
  // together -- an exemplar is a pointer into the trace ring, not an
  // accounting value, so a torn (value, trace) pairing under churn is
  // acceptable.
  std::atomic<uint64_t> exemplar_trace{0};
  std::atomic<double> exemplar_value{0};

  void Record(double value);

  // Value at or below which a `q` fraction of recorded values fall; 0
  // if nothing was recorded. The result is the inclusive upper bound
  // 2^(i+1) of the bucket holding the rank-floor(q*count) sample, so
  // for a true quantile t >= 1 the returned value v satisfies
  // t <= v <= 2t, with v == t exactly when t is a power of two.
  double Quantile(double q) const;
};

}  // namespace internal

class MetricRegistry;

// A monotonically increasing counter handle. See the header comment for
// its integer-like value semantics.
class Counter {
 public:
  Counter() : cell_(std::make_shared<internal::CounterCell>()) {}

  Counter(const Counter& other)
      : cell_(std::make_shared<internal::CounterCell>()) {
    cell_->value.store(other.value(), std::memory_order_relaxed);
  }
  Counter& operator=(const Counter& other) noexcept {
    cell_->value.store(other.value(), std::memory_order_relaxed);
    return *this;
  }
  Counter& operator=(uint64_t v) noexcept {
    cell_->value.store(v, std::memory_order_relaxed);
    return *this;
  }

  uint64_t value() const noexcept {
    return cell_->value.load(std::memory_order_relaxed);
  }
  operator uint64_t() const noexcept { return value(); }  // NOLINT

  Counter& operator++() noexcept {
    cell_->value.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  uint64_t operator++(int) noexcept {
    return cell_->value.fetch_add(1, std::memory_order_relaxed);
  }
  Counter& operator+=(uint64_t d) noexcept {
    cell_->value.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator-=(uint64_t d) noexcept {
    cell_->value.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }

  // Re-points this handle at the registry-owned series (name, labels),
  // folding the value accumulated so far into the shared cell. This is
  // how a stats struct built from default (private) cells is migrated
  // onto the registry after its owner knows its identity.
  void Bind(MetricRegistry& registry, const std::string& name,
            const Labels& labels, const std::string& help = "");

 private:
  friend class MetricRegistry;
  explicit Counter(std::shared_ptr<internal::CounterCell> cell)
      : cell_(std::move(cell)) {}

  std::shared_ptr<internal::CounterCell> cell_;
};

// A settable instantaneous value (queue depth, phase seconds, budget).
class Gauge {
 public:
  Gauge() : cell_(std::make_shared<internal::GaugeCell>()) {}

  // Set/Add are const: they mutate the shared cell, not the handle, so a
  // component can update a gauge from a const snapshot method.
  void Set(double v) const noexcept {
    cell_->value.store(v, std::memory_order_relaxed);
  }
  void Add(double d) const noexcept {
    double cur = cell_->value.load(std::memory_order_relaxed);
    while (!cell_->value.compare_exchange_weak(cur, cur + d,
                                               std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return cell_->value.load(std::memory_order_relaxed);
  }

  // Re-points this handle at the registry-owned series (name, labels),
  // adding any value accumulated in the private cell into the shared one
  // (mirrors Counter::Bind; a gauge that counted live objects before the
  // bind keeps its balance).
  void Bind(MetricRegistry& registry, const std::string& name,
            const Labels& labels, const std::string& help = "");

 private:
  friend class MetricRegistry;
  explicit Gauge(std::shared_ptr<internal::GaugeCell> cell)
      : cell_(std::move(cell)) {}

  std::shared_ptr<internal::GaugeCell> cell_;
};

// Log-bucketed distribution handle (see internal::HistogramCell for the
// bucketing contract). Record whatever unit is natural for the metric --
// the exposition dumps raw bucket bounds, so the unit should be part of
// the metric name (`_us`, `_bytes`).
class Histogram {
 public:
  Histogram() : cell_(std::make_shared<internal::HistogramCell>()) {}

  void Record(double value) noexcept { cell_->Record(value); }
  double Quantile(double q) const { return cell_->Quantile(q); }

  // Attaches (value, trace_id) as the distribution's current exemplar;
  // call after Record when the observation is worth linking to its trace
  // (the caller owns the threshold). Ignored when trace_id is 0.
  void SetExemplar(double value, uint64_t trace_id) noexcept {
    if (trace_id == 0) return;
    cell_->exemplar_value.store(value, std::memory_order_relaxed);
    cell_->exemplar_trace.store(trace_id, std::memory_order_relaxed);
  }
  uint64_t exemplar_trace() const noexcept {
    return cell_->exemplar_trace.load(std::memory_order_relaxed);
  }
  uint64_t count() const noexcept {
    return cell_->count.load(std::memory_order_relaxed);
  }
  double sum() const noexcept {
    return cell_->sum.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  explicit Histogram(std::shared_ptr<internal::HistogramCell> cell)
      : cell_(std::move(cell)) {}

  std::shared_ptr<internal::HistogramCell> cell_;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry every subsystem records into by default.
  static MetricRegistry& Default();

  // Returns a handle to the series (name, labels), creating it on first
  // use. Repeated calls with the same identity return handles sharing one
  // cell. A name must keep one kind for the life of the registry.
  Counter GetCounter(const std::string& name, const Labels& labels = {},
                     const std::string& help = "");
  Gauge GetGauge(const std::string& name, const Labels& labels = {},
                 const std::string& help = "");
  Histogram GetHistogram(const std::string& name, const Labels& labels = {},
                         const std::string& help = "");

  // Prometheus text exposition format: # HELP / # TYPE headers, one
  // `name{labels} value` line per series, histograms expanded into
  // cumulative `_bucket{le=...}` series plus `_sum` / `_count`.
  std::string PrometheusText() const;

  // The same data as one JSON document:
  //   {"metrics":[{"name":...,"type":...,"help":...,
  //                "series":[{"labels":{...},"value":...}, ...]}, ...]}
  // Histogram series carry {"count","sum","p50","p99","buckets":[...]}.
  std::string JsonText() const;

  size_t num_series() const;

  // Drops every family and series. Outstanding handles keep their cells
  // alive and keep working; they just stop being exported. Tests use
  // this to isolate runs against the Default registry.
  void Clear();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::shared_ptr<internal::CounterCell> counter;
    std::shared_ptr<internal::GaugeCell> gauge;
    std::shared_ptr<internal::HistogramCell> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    // Keyed by the serialized label set, insertion-ordered for stable
    // exposition output.
    std::vector<std::pair<std::string, Series>> series;
  };

  Series& GetSeries(const std::string& name, const Labels& labels,
                    const std::string& help, Kind kind);

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Family>> families_;
};

}  // namespace wg::obs

#endif  // WG_OBS_METRICS_H_
