// Metric registry and tracer: handle value semantics, exposition formats,
// trace JSONL well-formedness and span nesting. Carries the `concurrency`
// ctest label (obs_* name) so the TSan preset covers the multi-threaded
// cases.

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_temp_dir.h"

namespace wg::obs {
namespace {

// --- minimal JSON well-formedness checker (no dependency) ----------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// --- counters ------------------------------------------------------------

TEST(CounterTest, AtomicCounterCompatibleSemantics) {
  Counter c;
  EXPECT_EQ(0u, c.value());
  ++c;
  c += 5;
  EXPECT_EQ(6u, static_cast<uint64_t>(c));
  c -= 2;
  EXPECT_EQ(4u, c.value());
  c = 10;
  EXPECT_EQ(10u, c.value());

  // Copy construction snapshots into a private cell.
  Counter copy = c;
  ++copy;
  EXPECT_EQ(10u, c.value());
  EXPECT_EQ(11u, copy.value());
}

TEST(CounterTest, AssignmentStoresValueKeepingBinding) {
  MetricRegistry registry;
  Counter c = registry.GetCounter("test_total", {{"k", "v"}});
  c += 7;
  // The Reset() idiom of the stats structs: whole-struct assignment from a
  // default-constructed value must zero the registry cell, not re-point
  // the handle at a private one.
  c = Counter();
  EXPECT_EQ(0u, c.value());
  ++c;
  Counter again = registry.GetCounter("test_total", {{"k", "v"}});
  EXPECT_EQ(1u, again.value());
}

TEST(CounterTest, BindFoldsAccumulatedValue) {
  MetricRegistry registry;
  Counter c;
  c += 42;
  c.Bind(registry, "bound_total", {{"instance", "1"}});
  Counter view = registry.GetCounter("bound_total", {{"instance", "1"}});
  EXPECT_EQ(42u, view.value());
  ++c;
  EXPECT_EQ(43u, view.value());
}

TEST(CounterTest, SharedCellAcrossHandles) {
  MetricRegistry registry;
  Counter a = registry.GetCounter("shared_total");
  Counter b = registry.GetCounter("shared_total");
  a += 3;
  b += 4;
  EXPECT_EQ(7u, a.value());
  EXPECT_EQ(7u, b.value());
  EXPECT_EQ(1u, registry.num_series());
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter c = registry.GetCounter("mt_total");
      for (int i = 0; i < kIncrements; ++i) ++c;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kIncrements,
            registry.GetCounter("mt_total").value());
}

// --- gauges & histograms -------------------------------------------------

TEST(GaugeTest, SetAndAdd) {
  MetricRegistry registry;
  Gauge g = registry.GetGauge("depth");
  g.Set(4.5);
  EXPECT_DOUBLE_EQ(4.5, g.value());
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(5.0, g.value());
}

TEST(HistogramTest, PowerOfTwoQuantiles) {
  Histogram h;
  EXPECT_EQ(0.0, h.Quantile(0.5));  // empty
  h.Record(3.0);  // bucket 1 -> upper bound 4
  EXPECT_DOUBLE_EQ(4.0, h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(4.0, h.Quantile(1.0));
  for (int i = 0; i < 99; ++i) h.Record(100.0);  // bucket 6 -> bound 128
  EXPECT_DOUBLE_EQ(4.0, h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(128.0, h.Quantile(0.5));
  EXPECT_DOUBLE_EQ(128.0, h.Quantile(1.0));
  EXPECT_EQ(100u, h.count());
}

TEST(HistogramTest, PowerOfTwoSamplesLandInInclusiveBucket) {
  // A sample exactly at a bucket's upper bound 2^k counts as <= that
  // bound, matching the Prometheus `le` contract (and making quantiles
  // exact at powers of two).
  Histogram h;
  h.Record(4.0);
  EXPECT_DOUBLE_EQ(4.0, h.Quantile(1.0));
  h.Record(1024.0);
  EXPECT_DOUBLE_EQ(1024.0, h.Quantile(1.0));

  MetricRegistry registry;
  Histogram reg = registry.GetHistogram("bound_us");
  reg.Record(4.0);
  std::string text = registry.PrometheusText();
  EXPECT_NE(std::string::npos, text.find("bound_us_bucket{le=\"4\"} 1"));
}

// The latency contract of the power-of-two buckets, in microseconds (the
// unit wg_service_latency_us records): empty, single sample, q=0/q=1,
// sub-unit samples, the overflow bucket, and the t <= v <= 2t bound.

TEST(LatencyHistogramTest, EmptyReportsZero) {
  Histogram h;
  EXPECT_EQ(0u, h.count());
  EXPECT_DOUBLE_EQ(0.0, h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(0.0, h.Quantile(0.5));
  EXPECT_DOUBLE_EQ(0.0, h.Quantile(1.0));
}

TEST(LatencyHistogramTest, SingleSampleBucketUpperBound) {
  Histogram h;
  h.Record(3.0);  // 3us -> bucket (2us, 4us] -> reports 4us
  EXPECT_EQ(1u, h.count());
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(4.0, h.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, ExactnessBoundNeverUnderReports) {
  // For t >= 1us the report v satisfies t <= v <= 2t.
  for (double t : {1.0, 1.5, 7.0, 100.0, 0.25e6, 30e6}) {
    Histogram fresh;
    fresh.Record(t);
    double v = fresh.Quantile(1.0);
    EXPECT_GE(v, t) << t;
    EXPECT_LE(v, 2 * t + 1e-6) << t;
  }
}

TEST(LatencyHistogramTest, QuantileEndpointsOnMixedData) {
  Histogram h;
  // 90 fast samples at ~3us, 10 slow at ~1ms.
  for (int i = 0; i < 90; ++i) h.Record(3.0);
  for (int i = 0; i < 10; ++i) h.Record(1000.0);
  EXPECT_EQ(100u, h.count());
  EXPECT_DOUBLE_EQ(4.0, h.Quantile(0.0));  // first bucket's bound
  EXPECT_DOUBLE_EQ(4.0, h.Quantile(0.5));
  EXPECT_DOUBLE_EQ(4.0, h.Quantile(0.89));
  // Rank 90 of 100 is the first slow sample: 1ms -> bucket (512us, 1024us]
  // -> reports 1024us.
  EXPECT_DOUBLE_EQ(1024.0, h.Quantile(0.9));
  EXPECT_DOUBLE_EQ(1024.0, h.Quantile(0.99));
  EXPECT_DOUBLE_EQ(1024.0, h.Quantile(1.0));
}

TEST(LatencyHistogramTest, SubMicrosecondSharesFirstBucket) {
  Histogram h;
  h.Record(0.5);  // 0.5us -> bucket 0 -> reports 2us
  EXPECT_DOUBLE_EQ(2.0, h.Quantile(1.0));
}

TEST(LatencyHistogramTest, OverflowBucketCapsTheReport) {
  Histogram h;
  h.Record(4e9);  // 4e9 us, beyond 2^31 us -> overflow bucket
  // Overflow reports the last bucket's upper bound 2^32 us (~71.6 min).
  EXPECT_DOUBLE_EQ(4294967296.0, h.Quantile(1.0));
}

TEST(LatencyHistogramTest, QuantilesAreOrderedAndBracketSamples) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(100.0);  // ~100us
  h.Record(50e3);                                // one 50ms outlier
  EXPECT_EQ(h.count(), 100u);
  double p50 = h.Quantile(0.5);
  double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p50, 100.0 / 2);
  EXPECT_LE(p50, 1e3);
  EXPECT_GE(p99, 25e3);
}

// --- exposition ----------------------------------------------------------

TEST(RegistryTest, PrometheusText) {
  MetricRegistry registry;
  Counter c = registry.GetCounter("wg_test_requests_total",
                                  {{"outcome", "ok"}}, "Requests");
  c += 12;
  registry.GetGauge("wg_test_depth", {}, "Depth").Set(3);
  Histogram h = registry.GetHistogram("wg_test_latency_us");
  h.Record(5.0);

  std::string text = registry.PrometheusText();
  EXPECT_NE(std::string::npos, text.find("# HELP wg_test_requests_total "
                                         "Requests"));
  EXPECT_NE(std::string::npos, text.find("# TYPE wg_test_requests_total "
                                         "counter"));
  EXPECT_NE(std::string::npos,
            text.find("wg_test_requests_total{outcome=\"ok\"} 12"));
  EXPECT_NE(std::string::npos, text.find("# TYPE wg_test_depth gauge"));
  EXPECT_NE(std::string::npos, text.find("wg_test_depth 3"));
  EXPECT_NE(std::string::npos, text.find("# TYPE wg_test_latency_us "
                                         "histogram"));
  EXPECT_NE(std::string::npos,
            text.find("wg_test_latency_us_bucket{le=\"+Inf\"} 1"));
  EXPECT_NE(std::string::npos, text.find("wg_test_latency_us_count 1"));
  EXPECT_NE(std::string::npos, text.find("wg_test_latency_us_sum 5"));
}

TEST(RegistryTest, PrometheusLabelValueEscaping) {
  // Label values are raw bytes internally (the unescaped label string is
  // the series identity key); the text exposition must escape backslash,
  // double-quote, and newline per the Prometheus format or one hostile
  // path name corrupts the whole scrape.
  MetricRegistry registry;
  registry.GetCounter("esc_total", {{"path", "C:\\tmp"}}) += 1;
  registry.GetCounter("esc_total", {{"path", "line1\nline2"}}) += 2;
  registry.GetCounter("esc_total", {{"path", "say \"hi\""}}) += 3;

  std::string text = registry.PrometheusText();
  EXPECT_NE(std::string::npos,
            text.find("esc_total{path=\"C:\\\\tmp\"} 1"))
      << text;
  EXPECT_NE(std::string::npos,
            text.find("esc_total{path=\"line1\\nline2\"} 2"))
      << text;
  EXPECT_NE(std::string::npos,
            text.find("esc_total{path=\"say \\\"hi\\\"\"} 3"))
      << text;
  // No raw newline may survive inside a label value: every line must be a
  // comment or start with the metric name.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(line[0] == '#' || line.compare(0, 9, "esc_total") == 0)
        << "torn line: " << line;
  }
  // Escaping is exposition-only: the three values stay distinct series.
  EXPECT_EQ(3u, registry.num_series());
}

TEST(RegistryTest, PrometheusHelpEscaping) {
  // HELP text escapes backslash and newline (but not quotes, per format).
  MetricRegistry registry;
  registry.GetCounter("help_total", {}, "multi\nline \\ slash") += 1;
  std::string text = registry.PrometheusText();
  EXPECT_NE(std::string::npos,
            text.find("# HELP help_total multi\\nline \\\\ slash"))
      << text;
}

TEST(RegistryTest, HistogramExemplarInJson) {
  MetricRegistry registry;
  Histogram h = registry.GetHistogram("ex_us");
  h.Record(5.0);
  // trace id 0 means "no trace collected": must not set an exemplar.
  h.SetExemplar(5.0, 0);
  std::string json = registry.JsonText();
  EXPECT_EQ(std::string::npos, json.find("exemplar")) << json;

  h.Record(90000.0);
  h.SetExemplar(90000.0, 42);
  json = registry.JsonText();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(std::string::npos, json.find("\"exemplar\":{\"trace\":42"))
      << json;
  EXPECT_EQ(42u, h.exemplar_trace());
}

TEST(RegistryTest, JsonTextIsWellFormed) {
  MetricRegistry registry;
  registry.GetCounter("a_total", {{"x", "quote\"backslash\\"}}) += 1;
  registry.GetGauge("b").Set(2.5);
  registry.GetHistogram("c_us").Record(9.0);
  std::string json = registry.JsonText();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(std::string::npos, json.find("\"a_total\""));
  EXPECT_NE(std::string::npos, json.find("\"p99\""));
}

TEST(RegistryTest, ClearDropsSeriesButHandlesSurvive) {
  MetricRegistry registry;
  Counter c = registry.GetCounter("gone_total");
  c += 5;
  registry.Clear();
  EXPECT_EQ(0u, registry.num_series());
  ++c;  // must not crash; cell is kept alive by the handle
  EXPECT_EQ(6u, c.value());
}

// --- tracer --------------------------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Extracts the numeric value of `key` from a single JSONL event line.
double JsonNumber(const std::string& line, const std::string& key) {
  size_t pos = line.find("\"" + key + "\":");
  EXPECT_NE(std::string::npos, pos) << key << " missing in " << line;
  return std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
}

using test::TempPath;

TEST(TracerTest, SpansInactiveWithoutSink) {
  ASSERT_FALSE(Tracer::Global().sink_open());
  Span root("root", "test", Span::RootTag{});
  EXPECT_FALSE(root.active());
  Span child("child", "test");
  EXPECT_FALSE(child.active());
}

TEST(TracerTest, EmitsNestedJsonlSpans) {
  Tracer& tracer = Tracer::Global();
  std::string path = TempPath("nested.jsonl");
  tracer.set_sample_interval(1);
  ASSERT_TRUE(tracer.OpenSink(path).ok());
  {
    Span root("request", "service", Span::RootTag{});
    ASSERT_TRUE(root.active());
    root.AddArg("page", 7);
    {
      Span mid("repr.get_links", "repr");
      ASSERT_TRUE(mid.active());
      Span leaf("pager.load_page", "storage");
      ASSERT_TRUE(leaf.active());
    }
  }
  ASSERT_TRUE(tracer.Close().ok());

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(3u, lines.size());
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    EXPECT_NE(std::string::npos, line.find("\"ph\":\"X\""));
  }
  // Destructor order: leaf, mid, root. Same trace, chained parents.
  EXPECT_NE(std::string::npos, lines[0].find("\"name\":\"pager.load_page\""));
  EXPECT_NE(std::string::npos, lines[2].find("\"name\":\"request\""));
  EXPECT_NE(std::string::npos, lines[2].find("\"page\":7"));
  double trace0 = JsonNumber(lines[0], "trace");
  EXPECT_EQ(trace0, JsonNumber(lines[1], "trace"));
  EXPECT_EQ(trace0, JsonNumber(lines[2], "trace"));
  EXPECT_EQ(JsonNumber(lines[0], "parent"), JsonNumber(lines[1], "span"));
  EXPECT_EQ(JsonNumber(lines[1], "parent"), JsonNumber(lines[2], "span"));
  EXPECT_EQ(0.0, JsonNumber(lines[2], "parent"));
  // Child intervals nest inside the parent interval.
  for (int child = 0; child < 2; ++child) {
    double cs = JsonNumber(lines[child], "ts");
    double ce = cs + JsonNumber(lines[child], "dur");
    double ps = JsonNumber(lines[child + 1], "ts");
    double pe = ps + JsonNumber(lines[child + 1], "dur");
    EXPECT_GE(cs, ps);
    EXPECT_LE(ce, pe);
  }
  std::remove(path.c_str());
}

TEST(TracerTest, SamplingTracesEveryNthRoot) {
  Tracer& tracer = Tracer::Global();
  std::string path = TempPath("sampled.jsonl");
  tracer.set_sample_interval(4);
  ASSERT_TRUE(tracer.OpenSink(path).ok());
  for (int i = 0; i < 8; ++i) {
    Span root("request", "service", Span::RootTag{});
    Span child("inner", "test");
    EXPECT_EQ(root.active(), child.active());
  }
  ASSERT_TRUE(tracer.Close().ok());
  // Any 8 consecutive sample-sequence values contain exactly two multiples
  // of 4, each contributing a root + child event.
  EXPECT_EQ(4u, ReadLines(path).size());
  tracer.set_sample_interval(1);
  std::remove(path.c_str());
}

TEST(TracerTest, WriteFailureIsStickyAndSurfacesOnClose) {
  // /dev/full fails every write with ENOSPC, standing in for a disk that
  // fills mid-run; enough spans to cross the 64 KiB flush threshold make
  // a buffer flush fail before Close(), and the sticky error must reach
  // the Close() status.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "no /dev/full on this platform";
  Tracer& tracer = Tracer::Global();
  tracer.set_sample_interval(1);
  ASSERT_TRUE(tracer.OpenSink("/dev/full").ok());
  for (int i = 0; i < 2000; ++i) {
    Span root("request", "service", Span::RootTag{});
  }
  EXPECT_FALSE(tracer.Close().ok());
  // The error must not leak into the next sink.
  std::string path = TempPath("after_failure.jsonl");
  ASSERT_TRUE(tracer.OpenSink(path).ok());
  { Span root("request", "service", Span::RootTag{}); }
  EXPECT_TRUE(tracer.Close().ok());
  std::remove(path.c_str());
}

TEST(TracerTest, ConcurrentRootsKeepLinesIntact) {
  Tracer& tracer = Tracer::Global();
  std::string path = TempPath("mt.jsonl");
  tracer.set_sample_interval(1);
  ASSERT_TRUE(tracer.OpenSink(path).ok());
  constexpr int kThreads = 4;
  constexpr int kRequests = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kRequests; ++i) {
        Span root("request", "service", Span::RootTag{});
        Span child("inner", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(tracer.Close().ok());
  std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(static_cast<size_t>(kThreads) * kRequests * 2, lines.size());
  for (const std::string& line : lines) {
    ASSERT_TRUE(JsonChecker(line).Valid()) << line;
  }
  std::remove(path.c_str());
}

// --- /tracez ring --------------------------------------------------------

// Restores the global tracer's ring state on scope exit so ring tests
// can't leak collection into the sink-focused tests above.
struct RingGuard {
  explicit RingGuard(const TraceRingOptions& options) {
    Tracer::Global().EnableRing(options);
    Tracer::Global().ring().Clear();
  }
  ~RingGuard() {
    Tracer::Global().DisableRing();
    Tracer::Global().ring().Clear();
  }
};

TEST(TraceRingTest, CollectsEveryRootWithPhaseBreakdown) {
  TraceRingOptions options;
  options.slow_threshold_us = 1e12;  // nothing auto-promotes
  RingGuard guard(options);

  uint64_t trace_id = 0;
  {
    Span root("k-hop", "service", Span::RootTag{});
    ASSERT_NE(0u, root.trace_id());
    trace_id = root.trace_id();
    {
      Span repr("repr.get_links", "repr");
      Span cache("cache.miss_load", "cache");
      cache.AddArg("section", 9);
    }
    { Span repr2("repr.get_links", "repr"); }
  }

  std::vector<std::shared_ptr<TraceRecord>> recent =
      Tracer::Global().ring().Recent();
  ASSERT_EQ(1u, recent.size());
  const TraceRecord& trace = *recent[0];
  EXPECT_EQ(trace_id, trace.trace_id);
  EXPECT_STREQ("k-hop", trace.root_name);
  EXPECT_EQ(4u, trace.spans.size());
  EXPECT_EQ(0u, trace.dropped_spans);
  EXPECT_GT(trace.dur_us, 0.0);

  // Three categories, insertion order of first completion (cache span
  // ends first). Self-time of all phases sums to the root duration.
  ASSERT_EQ(3u, trace.phases.size());
  double self_sum = 0;
  uint64_t span_count = 0;
  bool saw[3] = {false, false, false};
  for (const PhaseStat& phase : trace.phases) {
    self_sum += phase.self_us;
    span_count += phase.spans;
    EXPECT_GE(phase.total_us, phase.self_us);
    if (std::string(phase.category) == "service") saw[0] = true;
    if (std::string(phase.category) == "repr") saw[1] = true;
    if (std::string(phase.category) == "cache") saw[2] = true;
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
  EXPECT_EQ(4u, span_count);
  EXPECT_NEAR(trace.dur_us, self_sum, trace.dur_us * 0.25 + 5.0);

  std::string text = Tracer::Global().ring().RenderText();
  EXPECT_NE(std::string::npos, text.find("k-hop")) << text;
  EXPECT_NE(std::string::npos, text.find("phases")) << text;
  EXPECT_NE(std::string::npos, text.find("[cache] cache.miss_load"))
      << text;
  EXPECT_NE(std::string::npos, text.find("section=9")) << text;
}

TEST(TraceRingTest, SlowTracesPinnedPastRecentChurn) {
  TraceRingOptions options;
  options.recent_capacity = 4;
  options.slow_threshold_us = 0;  // every trace counts as slow
  RingGuard guard(options);

  for (int i = 0; i < 8; ++i) {
    Span root("request", "service", Span::RootTag{});
  }
  TraceRing& ring = Tracer::Global().ring();
  EXPECT_EQ(4u, ring.Recent().size());   // capped
  EXPECT_EQ(8u, ring.Slow().size());     // all pinned (cap 32)
  for (const auto& trace : ring.Slow()) {
    EXPECT_TRUE(trace->slow.load());
  }
  std::string text = ring.RenderText();
  EXPECT_NE(std::string::npos, text.find("SLOW")) << text;
}

TEST(TraceRingTest, MarkSlowPromotesWithServiceLatency) {
  TraceRingOptions options;
  options.slow_threshold_us = 1e12;
  RingGuard guard(options);

  uint64_t trace_id = 0;
  {
    Span root("out-neighbors", "service", Span::RootTag{});
    trace_id = root.trace_id();
  }
  TraceRing& ring = Tracer::Global().ring();
  ASSERT_TRUE(ring.Slow().empty());

  // The service layer measures queue-inclusive latency the root span
  // cannot see and promotes the trace after the fact.
  ring.MarkSlow(trace_id, 123456.0);
  std::vector<std::shared_ptr<TraceRecord>> slow = ring.Slow();
  ASSERT_EQ(1u, slow.size());
  EXPECT_EQ(trace_id, slow[0]->trace_id);
  EXPECT_EQ(123456u, slow[0]->service_latency_us.load());
  // Idempotent: a second promotion must not duplicate the entry.
  ring.MarkSlow(trace_id, 123456.0);
  EXPECT_EQ(1u, ring.Slow().size());
  // Unknown ids (trace aged out) are a no-op.
  ring.MarkSlow(trace_id + 999, 1.0);
  EXPECT_EQ(1u, ring.Slow().size());

  EXPECT_NE(std::string::npos,
            ring.RenderText().find("service latency 123456 us"));
}

TEST(TraceRingTest, SpanCapDropsSpansButKeepsPhasesExact) {
  TraceRingOptions options;
  options.slow_threshold_us = 1e12;
  RingGuard guard(options);

  constexpr int kSpans = 300;  // > TraceRecord::kMaxSpans
  {
    Span root("k-hop", "service", Span::RootTag{});
    for (int i = 0; i < kSpans; ++i) {
      Span child("cache.lookup", "cache");
    }
  }
  std::vector<std::shared_ptr<TraceRecord>> recent =
      Tracer::Global().ring().Recent();
  ASSERT_EQ(1u, recent.size());
  const TraceRecord& trace = *recent[0];
  EXPECT_EQ(TraceRecord::kMaxSpans, trace.spans.size());
  EXPECT_EQ(kSpans + 1 - TraceRecord::kMaxSpans, trace.dropped_spans);
  // The aggregation saw every span, including the dropped ones.
  uint64_t cache_spans = 0;
  for (const PhaseStat& phase : trace.phases) {
    if (std::string(phase.category) == "cache") cache_spans = phase.spans;
  }
  EXPECT_EQ(static_cast<uint64_t>(kSpans), cache_spans);
  EXPECT_NE(std::string::npos,
            Tracer::Global().ring().RenderText().find("spans dropped"));
}

TEST(TraceRingTest, InactiveWithoutRingOrSink) {
  ASSERT_FALSE(Tracer::Global().ring_enabled());
  ASSERT_FALSE(Tracer::Global().sink_open());
  Span root("request", "service", Span::RootTag{});
  EXPECT_FALSE(root.active());
  EXPECT_EQ(0u, root.trace_id());
}

TEST(TraceRingTest, ConcurrentRootsAndRenders) {
  TraceRingOptions options;
  options.recent_capacity = 16;
  options.slow_threshold_us = 0;
  RingGuard guard(options);

  // traces_seen is a lifetime counter (Clear() keeps it); assert the
  // delta so this test is order-independent within one process.
  uint64_t seen_before = Tracer::Global().ring().traces_seen();
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      std::string text = Tracer::Global().ring().RenderText();
      ASSERT_FALSE(text.empty());
    }
  });
  constexpr int kThreads = 4;
  constexpr int kRequests = 500;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kRequests; ++i) {
        Span root("request", "service", Span::RootTag{});
        Span child("inner", "cache");
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(seen_before + static_cast<uint64_t>(kThreads) * kRequests,
            Tracer::Global().ring().traces_seen());
  EXPECT_EQ(16u, Tracer::Global().ring().Recent().size());
}

}  // namespace
}  // namespace wg::obs
