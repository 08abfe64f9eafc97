// Property-style parameterized sweeps over the bit-level codecs: round
// trips across sizes/densities, cost-model consistency, and corruption
// fuzzing (decoders must fail cleanly, never crash or hang, on arbitrary
// byte mutations).

#include <random>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "snode/codecs.h"
#include "snode/reference_encoding.h"
#include "util/bitstream.h"
#include "util/coding.h"
#include "util/rle.h"

namespace wg {
namespace {

// ---------- Intranode codec sweep: (num_pages, mean_degree, use_ref) ----

using IntranodeParam = std::tuple<int, int, bool>;

class IntranodeSweep : public testing::TestWithParam<IntranodeParam> {};

std::vector<std::vector<uint32_t>> MakeLists(std::mt19937_64* gen, int n,
                                             int mean_degree,
                                             double clone_fraction) {
  std::vector<std::vector<uint32_t>> lists(n);
  for (int i = 0; i < n; ++i) {
    if (i > 0 && (*gen)() % 100 < clone_fraction * 100) {
      // Clone a recent list and perturb (the link-copying structure).
      lists[i] = lists[i - 1 - (*gen)() % std::min(i, 4)];
      if (!lists[i].empty() && (*gen)() % 2) {
        lists[i].erase(lists[i].begin() + (*gen)() % lists[i].size());
      }
      lists[i].push_back((*gen)() % n);
      std::sort(lists[i].begin(), lists[i].end());
      lists[i].erase(std::unique(lists[i].begin(), lists[i].end()),
                     lists[i].end());
      continue;
    }
    int degree = static_cast<int>((*gen)() % (2 * mean_degree + 1));
    std::set<uint32_t> s;
    for (int j = 0; j < degree; ++j) s.insert((*gen)() % n);
    lists[i].assign(s.begin(), s.end());
  }
  return lists;
}

TEST_P(IntranodeSweep, RoundTrip) {
  auto [n, mean_degree, use_ref] = GetParam();
  std::mt19937_64 gen(1000 + n * 7 + mean_degree);
  for (int trial = 0; trial < 5; ++trial) {
    auto lists = MakeLists(&gen, n, mean_degree, 0.4);
    IntranodeEncodeOptions options;
    options.use_reference_encoding = use_ref;
    auto blob = EncodeIntranode(lists, options);
    IntranodeGraph decoded;
    ASSERT_TRUE(DecodeIntranode(blob, n, &decoded).ok());
    ASSERT_EQ(decoded.num_pages, static_cast<uint32_t>(n));
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(decoded.ListOf(i), lists[i])
          << "n=" << n << " deg=" << mean_degree << " ref=" << use_ref
          << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, IntranodeSweep,
    testing::Combine(testing::Values(1, 2, 7, 33, 128, 500),
                     testing::Values(0, 2, 10, 40),
                     testing::Bool()));

// ---------- Superedge codec sweep: (ni, nj, density%) ----

using SuperedgeParam = std::tuple<int, int, int>;

class SuperedgeSweep : public testing::TestWithParam<SuperedgeParam> {};

TEST_P(SuperedgeSweep, RoundTripAndPolarity) {
  auto [ni, nj, density_pct] = GetParam();
  std::mt19937_64 gen(2000 + ni * 31 + nj * 7 + density_pct);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<uint32_t> sources;
    std::vector<std::vector<uint32_t>> lists;
    uint64_t edges = 0;
    for (int s = 0; s < ni; ++s) {
      std::vector<uint32_t> list;
      for (int t = 0; t < nj; ++t) {
        if (static_cast<int>(gen() % 100) < density_pct) {
          list.push_back(t);
        }
      }
      if (!list.empty()) {
        edges += list.size();
        sources.push_back(s);
        lists.push_back(std::move(list));
      }
    }
    auto blob = EncodeSuperedge(sources, lists, ni, nj, {});
    SuperedgeGraph decoded;
    ASSERT_TRUE(DecodeSuperedge(blob, ni, nj, &decoded).ok());
    EXPECT_EQ(decoded.NumPositiveEdges(ni), edges);
    // Polarity is the min-edge choice.
    uint64_t neg_edges = static_cast<uint64_t>(ni) * nj - edges;
    if (edges < neg_edges) {
      EXPECT_TRUE(decoded.positive);
    }
    if (neg_edges < edges) {
      EXPECT_FALSE(decoded.positive);
    }
    // Per-source round trip over all of N_i (absent sources included).
    size_t k = 0;
    for (int s = 0; s < ni; ++s) {
      std::vector<uint32_t> got;
      decoded.LinksOf(s, &got);
      std::vector<uint32_t> expected;
      if (k < sources.size() && sources[k] == static_cast<uint32_t>(s)) {
        expected = lists[k];
        ++k;
      }
      ASSERT_EQ(got, expected) << "s=" << s << " density=" << density_pct;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SuperedgeSweep,
    testing::Combine(testing::Values(1, 5, 40, 150),
                     testing::Values(1, 5, 40, 150),
                     testing::Values(0, 5, 50, 95, 100)));

// ---------- Corruption fuzz ----------

class CorruptionFuzz : public testing::TestWithParam<int> {};

TEST_P(CorruptionFuzz, IntranodeDecoderNeverCrashes) {
  std::mt19937_64 gen(GetParam());
  auto lists = MakeLists(&gen, 64, 8, 0.5);
  auto blob = EncodeIntranode(lists, {});
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = blob;
    int mode = static_cast<int>(gen() % 3);
    if (mode == 0 && !mutated.empty()) {
      // Flip 1-3 random bits.
      int flips = 1 + static_cast<int>(gen() % 3);
      for (int f = 0; f < flips; ++f) {
        mutated[gen() % mutated.size()] ^=
            static_cast<uint8_t>(1u << (gen() % 8));
      }
    } else if (mode == 1 && mutated.size() > 1) {
      mutated.resize(1 + gen() % (mutated.size() - 1));  // truncate
    } else {
      for (auto& byte : mutated) byte = static_cast<uint8_t>(gen());
    }
    IntranodeGraph decoded;
    // Must return (either OK with some graph, or Corruption) -- and if it
    // returns OK, the result must be internally consistent.
    Status status = DecodeIntranode(mutated, 64, &decoded);
    if (status.ok()) {
      ASSERT_EQ(decoded.offsets.size(), decoded.num_pages + 1u);
      for (uint32_t t : decoded.targets) ASSERT_LT(t, decoded.num_pages);
    }
  }
}

TEST_P(CorruptionFuzz, SuperedgeDecoderNeverCrashes) {
  std::mt19937_64 gen(GetParam() + 5000);
  std::vector<uint32_t> sources;
  std::vector<std::vector<uint32_t>> lists;
  for (int s = 0; s < 40; ++s) {
    std::vector<uint32_t> list;
    for (int t = 0; t < 60; ++t) {
      if (gen() % 100 < 30) list.push_back(t);
    }
    if (!list.empty()) {
      sources.push_back(s);
      lists.push_back(std::move(list));
    }
  }
  auto blob = EncodeSuperedge(sources, lists, 40, 60, {});
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = blob;
    if (gen() % 2 == 0 && !mutated.empty()) {
      mutated[gen() % mutated.size()] ^=
          static_cast<uint8_t>(1u << (gen() % 8));
    } else if (mutated.size() > 1) {
      mutated.resize(1 + gen() % (mutated.size() - 1));
    }
    SuperedgeGraph decoded;
    Status status = DecodeSuperedge(mutated, 40, 60, &decoded);
    if (status.ok()) {
      for (uint32_t t : decoded.targets) ASSERT_LT(t, 60u);
      for (uint32_t s : decoded.sources) ASSERT_LT(s, 40u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz, testing::Values(1, 2, 3, 4));

// ---------- Planner properties ----------

TEST(CostModelTest, PlanIsDeterministicAndAdmissible) {
  std::mt19937_64 gen(10);
  for (int trial = 0; trial < 10; ++trial) {
    auto lists = MakeLists(&gen, 80, 10, 0.5);
    ReferencePlan a = ComputeReferencePlan(lists, 80, 8);
    ReferencePlan b = ComputeReferencePlan(lists, 80, 8);
    EXPECT_EQ(a.reference, b.reference);
    EXPECT_EQ(a.total_cost_bits, b.total_cost_bits);
    // Admissible: the plan never exceeds all-standalone cost.
    uint64_t standalone = 0;
    for (const auto& list : lists) standalone += StandaloneCostBits(list, 80);
    EXPECT_LE(a.total_cost_bits, standalone);
  }
}

TEST(CostModelTest, ReferenceEncodingNeverEnlargesTheBlob) {
  // The planner only takes a reference when it is strictly cheaper, so a
  // reference-encoded blob is at most the no-reference blob (both carry
  // identical per-entry headers).
  std::mt19937_64 gen(11);
  for (int trial = 0; trial < 10; ++trial) {
    auto lists = MakeLists(&gen, 120, 12, 0.6);
    IntranodeEncodeOptions with_ref;
    IntranodeEncodeOptions no_ref;
    no_ref.use_reference_encoding = false;
    EXPECT_LE(EncodeIntranode(lists, with_ref).size(),
              EncodeIntranode(lists, no_ref).size() + 1);
  }
}

}  // namespace
}  // namespace wg
