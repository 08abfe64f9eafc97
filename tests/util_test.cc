#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitstream.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/huffman.h"
#include "util/parallel.h"
#include "util/rle.h"
#include "util/rng.h"
#include "util/status.h"

namespace wg {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(ResultTest, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

// ---------- BitWriter / BitReader ----------

TEST(BitstreamTest, SingleBits) {
  BitWriter w;
  w.WriteBit(true);
  w.WriteBit(false);
  w.WriteBit(true);
  auto buf = w.Finish();
  BitReader r(buf);
  EXPECT_TRUE(r.ReadBit());
  EXPECT_FALSE(r.ReadBit());
  EXPECT_TRUE(r.ReadBit());
  EXPECT_TRUE(r.ok());
}

TEST(BitstreamTest, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.WriteBits(0x5, 3);
  w.WriteBits(0xABCD, 16);
  w.WriteBits(0x1, 1);
  w.WriteBits(0xFFFFFFFFFFFFFFFFULL, 64);
  auto buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(3), 0x5u);
  EXPECT_EQ(r.ReadBits(16), 0xABCDu);
  EXPECT_EQ(r.ReadBits(1), 0x1u);
  EXPECT_EQ(r.ReadBits(64), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_TRUE(r.ok());
}

TEST(BitstreamTest, ValueIsMaskedToWidth) {
  BitWriter w;
  w.WriteBits(0xFF, 4);  // only low 4 bits should be kept
  auto buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(4), 0xFu);
}

TEST(BitstreamTest, OverrunSetsFailure) {
  BitWriter w;
  w.WriteBits(0x3, 2);
  auto buf = w.Finish();
  BitReader r(buf);
  r.ReadBits(8);  // padding makes 8 available
  EXPECT_TRUE(r.ok());
  r.ReadBits(1);
  EXPECT_FALSE(r.ok());
}

TEST(BitstreamTest, PeekDoesNotConsume) {
  BitWriter w;
  w.WriteBits(0b1011, 4);
  auto buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.PeekBits(4), 0b1011u);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.ReadBits(4), 0b1011u);
}

TEST(BitstreamTest, PeekPastEndZeroFills) {
  BitWriter w;
  w.WriteBits(0b1, 1);
  auto buf = w.Finish();  // 1 byte: 1000_0000
  BitReader r(buf);
  r.ReadBits(8);
  EXPECT_EQ(r.PeekBits(4), 0u);
}

TEST(BitstreamTest, RandomizedRoundTrip) {
  std::mt19937_64 gen(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<uint64_t, int>> fields;
    BitWriter w;
    for (int i = 0; i < 500; ++i) {
      int nbits = 1 + static_cast<int>(gen() % 64);
      uint64_t value = gen();
      if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
      fields.emplace_back(value, nbits);
      w.WriteBits(value, nbits);
    }
    auto buf = w.Finish();
    BitReader r(buf);
    for (auto& [value, nbits] : fields) {
      EXPECT_EQ(r.ReadBits(nbits), value);
    }
    EXPECT_TRUE(r.ok());
  }
}

// ---------- Integer codes ----------

TEST(CodingTest, UnaryRoundTrip) {
  BitWriter w;
  for (uint64_t v : {0ull, 1ull, 5ull, 40ull, 100ull}) WriteUnary(&w, v);
  auto buf = w.Finish();
  BitReader r(buf);
  for (uint64_t v : {0ull, 1ull, 5ull, 40ull, 100ull}) {
    EXPECT_EQ(ReadUnary(&r), v);
  }
}

TEST(CodingTest, GammaDeltaRoundTrip) {
  std::vector<uint64_t> values = {0, 1, 2, 3, 7, 8, 100, 1023, 1024,
                                  (1ull << 32) + 17, (1ull << 62)};
  BitWriter w;
  for (uint64_t v : values) WriteGamma(&w, v);
  for (uint64_t v : values) WriteDelta(&w, v);
  auto buf = w.Finish();
  BitReader r(buf);
  for (uint64_t v : values) EXPECT_EQ(ReadGamma(&r), v);
  for (uint64_t v : values) EXPECT_EQ(ReadDelta(&r), v);
  EXPECT_TRUE(r.ok());
}

TEST(CodingTest, GammaCostMatchesEncoding) {
  for (uint64_t v : {0ull, 1ull, 2ull, 63ull, 64ull, 9999ull}) {
    BitWriter w;
    WriteGamma(&w, v);
    EXPECT_EQ(static_cast<uint64_t>(GammaCost(v)), w.bit_count()) << v;
  }
}

TEST(CodingTest, DeltaCostMatchesEncoding) {
  for (uint64_t v : {0ull, 1ull, 2ull, 63ull, 64ull, 9999ull, 1ull << 40}) {
    BitWriter w;
    WriteDelta(&w, v);
    EXPECT_EQ(static_cast<uint64_t>(DeltaCost(v)), w.bit_count()) << v;
  }
}

TEST(CodingTest, MinimalBinaryRoundTrip) {
  BitWriter w;
  WriteMinimalBinary(&w, 0, 1);   // zero bits
  WriteMinimalBinary(&w, 5, 9);   // 4 bits
  WriteMinimalBinary(&w, 8, 9);
  WriteMinimalBinary(&w, 255, 256);
  auto buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(ReadMinimalBinary(&r, 1), 0u);
  EXPECT_EQ(ReadMinimalBinary(&r, 9), 5u);
  EXPECT_EQ(ReadMinimalBinary(&r, 9), 8u);
  EXPECT_EQ(ReadMinimalBinary(&r, 256), 255u);
}

TEST(CodingTest, AscendingGapsRoundTrip) {
  std::vector<uint32_t> seq = {10, 11, 15, 100, 101, 5000};
  BitWriter w;
  WriteAscendingGaps(&w, seq, 10);
  EXPECT_EQ(w.bit_count(), AscendingGapsCost(seq, 10));
  auto buf = w.Finish();
  BitReader r(buf);
  std::vector<uint32_t> out;
  ReadAscendingGaps(&r, seq.size(), 10, &out);
  EXPECT_EQ(out, seq);
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1ull << 20,
                                  1ull << 40, UINT64_MAX};
  for (uint64_t v : values) PutVarint64(&buf, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got = 0;
    size_t used = GetVarint64(buf.data() + pos, buf.size() - pos, &got);
    ASSERT_GT(used, 0u);
    EXPECT_EQ(got, v);
    pos += used;
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(CodingTest, VarintTruncatedReturnsZero) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  uint64_t got;
  EXPECT_EQ(GetVarint64(buf.data(), 2, &got), 0u);
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 4), 0x0123456789abcdefULL);
}

// ---------- CRC-32 ----------

// The bytewise table CRC the slicing-by-8 Crc32 must equal.
uint32_t BytewiseCrc32(const uint8_t* p, size_t n, uint32_t seed = 0) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(Crc32Test, IeeeCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SeedChainsAcrossSplits) {
  Rng rng(7);
  std::vector<uint8_t> bytes = RandomBytes(rng, 300);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t cut : {0, 1, 7, 8, 9, 150, 299, 300}) {
    uint32_t head = Crc32(bytes.data(), cut);
    EXPECT_EQ(Crc32(bytes.data() + cut, bytes.size() - cut, head), whole)
        << "cut " << cut;
  }
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  Rng rng(11);
  std::vector<uint8_t> bytes = RandomBytes(rng, 64 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 64; ++n) {
      const uint8_t* p = bytes.data() + offset;
      EXPECT_EQ(Crc32(p, n), BytewiseCrc32(p, n))
          << "offset " << offset << " length " << n;
      EXPECT_EQ(Crc32(p, n, 0x12345678u), BytewiseCrc32(p, n, 0x12345678u))
          << "offset " << offset << " length " << n;
    }
  }
  for (size_t n : {4093, 65536, 1 << 20}) {
    std::vector<uint8_t> large = RandomBytes(rng, n);
    EXPECT_EQ(Crc32(large.data(), n), BytewiseCrc32(large.data(), n))
        << "length " << n;
  }
}

// ---------- RLE ----------

TEST(RleTest, RoundTripVariousPatterns) {
  std::vector<std::vector<uint8_t>> cases = {
      {},
      {1},
      {0},
      {1, 1, 1, 1, 1},
      {0, 0, 0, 0},
      {1, 0, 1, 0, 1, 0},
      {1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0},
  };
  for (const auto& bits : cases) {
    BitWriter w;
    WriteRleBits(&w, bits);
    EXPECT_EQ(w.bit_count(), RleBitsCost(bits));
    auto buf = w.Finish();
    BitReader r(buf);
    std::vector<uint8_t> out;
    ReadRleBits(&r, bits.size(), &out);
    EXPECT_EQ(out, bits);
  }
}

TEST(RleTest, LongRunsCompressWell) {
  std::vector<uint8_t> bits(10000, 1);
  EXPECT_LT(RleBitsCost(bits), 40u);
}

TEST(RleTest, RandomizedRoundTrip) {
  std::mt19937_64 gen(7);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = gen() % 300;
    std::vector<uint8_t> bits(n);
    // Bursty bits to exercise multi-run paths.
    uint8_t v = gen() & 1;
    for (size_t i = 0; i < n; ++i) {
      if (gen() % 5 == 0) v ^= 1;
      bits[i] = v;
    }
    BitWriter w;
    WriteRleBits(&w, bits);
    auto buf = w.Finish();
    BitReader r(buf);
    std::vector<uint8_t> out;
    ReadRleBits(&r, n, &out);
    EXPECT_EQ(out, bits);
  }
}

// ---------- Huffman ----------

TEST(HuffmanTest, TwoSymbols) {
  HuffmanCode code = HuffmanCode::Build({10, 1});
  EXPECT_EQ(code.code_length(0), 1);
  EXPECT_EQ(code.code_length(1), 1);
}

TEST(HuffmanTest, SkewGivesShorterCodesToFrequentSymbols) {
  HuffmanCode code = HuffmanCode::Build({1000, 100, 10, 1});
  EXPECT_LE(code.code_length(0), code.code_length(1));
  EXPECT_LE(code.code_length(1), code.code_length(2));
  EXPECT_LE(code.code_length(2), code.code_length(3));
}

TEST(HuffmanTest, SingleLiveSymbol) {
  HuffmanCode code = HuffmanCode::Build({0, 42, 0});
  EXPECT_EQ(code.code_length(1), 1);
  BitWriter w;
  code.Encode(&w, 1);
  auto buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(code.Decode(&r), 1u);
}

TEST(HuffmanTest, EncodeDecodeStream) {
  std::vector<uint64_t> freqs = {50, 20, 10, 5, 5, 5, 3, 1, 1};
  HuffmanCode code = HuffmanCode::Build(freqs);
  std::mt19937_64 gen(99);
  std::vector<uint32_t> symbols;
  for (int i = 0; i < 2000; ++i) {
    symbols.push_back(static_cast<uint32_t>(gen() % freqs.size()));
  }
  BitWriter w;
  for (uint32_t s : symbols) code.Encode(&w, s);
  auto buf = w.Finish();
  BitReader r(buf);
  for (uint32_t s : symbols) EXPECT_EQ(code.Decode(&r), s);
}

TEST(HuffmanTest, KraftEqualityHolds) {
  // An optimal prefix code over a full alphabet satisfies Kraft with
  // equality.
  std::mt19937_64 gen(5);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 2 + gen() % 200;
    std::vector<uint64_t> freqs(n);
    for (auto& f : freqs) f = 1 + gen() % 1000;
    HuffmanCode code = HuffmanCode::Build(freqs);
    long double kraft = 0;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_GT(code.code_length(static_cast<uint32_t>(i)), 0);
      kraft += std::pow(2.0L, -code.code_length(static_cast<uint32_t>(i)));
    }
    EXPECT_NEAR(static_cast<double>(kraft), 1.0, 1e-9);
  }
}

TEST(HuffmanTest, CostWithinOneBitOfEntropyPerSymbol) {
  std::vector<uint64_t> freqs = {900, 50, 25, 13, 7, 3, 1, 1};
  uint64_t total = 0;
  for (auto f : freqs) total += f;
  double entropy_bits = 0;
  for (auto f : freqs) {
    double p = static_cast<double>(f) / total;
    entropy_bits -= static_cast<double>(f) * std::log2(p);
  }
  HuffmanCode code = HuffmanCode::Build(freqs);
  double cost = static_cast<double>(code.TotalCost(freqs));
  EXPECT_GE(cost + 1e-6, entropy_bits);
  EXPECT_LE(cost, entropy_bits + total);  // within 1 bit/symbol of entropy
}

TEST(HuffmanTest, SerializeDeserializePreservesCodes) {
  std::vector<uint64_t> freqs = {100, 0, 30, 7, 0, 2, 1};
  HuffmanCode code = HuffmanCode::Build(freqs);
  std::string blob;
  code.Serialize(&blob);
  size_t consumed = 0;
  auto restored = HuffmanCode::Deserialize(blob.data(), blob.size(), &consumed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(consumed, blob.size());
  // Same lengths => same canonical codes => interoperable streams.
  BitWriter w;
  code.Encode(&w, 0);
  code.Encode(&w, 2);
  code.Encode(&w, 6);
  auto buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(restored.value().Decode(&r), 0u);
  EXPECT_EQ(restored.value().Decode(&r), 2u);
  EXPECT_EQ(restored.value().Decode(&r), 6u);
}

TEST(HuffmanTest, DeserializeRejectsGarbage) {
  std::string blob = "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff";
  size_t consumed;
  auto restored = HuffmanCode::Deserialize(blob.data(), blob.size(), &consumed);
  EXPECT_FALSE(restored.ok());
}

// ---------- RNG / Zipf ----------

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, RankZeroMostPopular) {
  Rng rng(3);
  ZipfSampler zipf(50, 1.0);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[49]);
  // Rough Zipf shape: rank 0 is ~10x rank 9 at theta=1.
  EXPECT_GT(counts[0], 4 * counts[9]);
}

// ---------- ParallelExecutor ----------

TEST(ParallelExecutorTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 5, 16}) {
    ParallelExecutor executor(threads);
    constexpr size_t kN = 5000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    executor.ParallelFor(3, 3 + kN, [&](size_t i) {
      ASSERT_GE(i, 3u);
      hits[i - 3].fetch_add(1);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelExecutorTest, EmptyAndSingletonRanges) {
  ParallelExecutor executor(4);
  int calls = 0;
  executor.ParallelFor(7, 7, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  executor.ParallelFor(7, 8, [&](size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelExecutorTest, SerialFallbackRunsInline) {
  ParallelExecutor executor(1);
  EXPECT_EQ(executor.threads(), 1);
  std::thread::id caller = std::this_thread::get_id();
  size_t next = 0;
  executor.ParallelFor(0, 100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(i, next++);  // strictly in order: it is a plain loop
  });
  EXPECT_EQ(next, 100u);
}

TEST(ParallelExecutorTest, PropagatesFirstException) {
  for (int threads : {1, 4}) {
    ParallelExecutor executor(threads);
    EXPECT_THROW(
        executor.ParallelFor(0, 1000,
                             [&](size_t i) {
                               if (i == 500) throw std::runtime_error("boom");
                             }),
        std::runtime_error);
    // The executor survives a throwing job and is reusable.
    std::atomic<size_t> count{0};
    executor.ParallelFor(0, 100, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100u);
  }
}

TEST(ParallelExecutorTest, ExecutorIsReusableAcrossManyJobs) {
  ParallelExecutor executor(3);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    executor.ParallelFor(0, 64, [&](size_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50u * (63u * 64u / 2));
}

TEST(ParallelExecutorTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ParallelExecutor::HardwareThreads(), 1);
}

}  // namespace
}  // namespace wg
