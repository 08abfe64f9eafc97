// Mutation fuzz of the two persisted formats an attach parses: a store's
// `.meta` (resident state + section directory) and a snapshot MANIFEST
// (file table + section directory + embedded resident state). Seeds are a
// small store's `.meta` and a two-generation snapshot's live MANIFEST,
// under fixed seeds. Mutations:
//
//  * bit flips and truncations of the payload;
//  * boundary values (0, 1, 2^31, 2^32-1, 2^63, 2^64-1) written into every
//    count and length varint, found by walking the format.
//
// Every mutant is re-framed with a valid checksum (WriteFramedFile), so its
// bytes reach SNodeResidentState::Parse, GraphStore::OpenFiles and
// SNodeRepr::FromParts instead of stopping at the frame check. The pass
// condition: every attach returns a Status and never aborts, and a repr
// that does open answers or errors on every page. Run it under WG_ASAN for
// the "no sanitizer report" half.
//
// Plus wgserve's request-file format (server::ParseRequestFile), fuzzed
// the same way as text: bit flips and truncations of a seed file, lines
// longer than any buffer, and boundary values in every numeric field.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "server/workload.h"
#include "snode/snode_repr.h"
#include "storage/serial.h"
#include "util/coding.h"
#include "version/gc.h"
#include "version/scrub.h"
#include "version/snapshot.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempDirFor;

constexpr char kMetaMagic[4] = {'S', 'N', 'M', '5'};
constexpr char kManifestMagic[4] = {'W', 'G', 'M', '5'};

constexpr uint64_t kBoundaries[] = {0,
                                    1,
                                    uint64_t{1} << 31,
                                    (uint64_t{1} << 32) - 1,
                                    uint64_t{1} << 63,
                                    UINT64_MAX};

WebGraph FuzzGraph() {
  GeneratorOptions opts;
  opts.num_pages = 600;
  opts.seed = 43;
  return GenerateWebGraph(opts);
}

// A varint of a payload that counts items or bytes: where it starts and
// how many bytes it takes.
struct Field {
  size_t pos;
  size_t size;
};

// Walks a well-formed payload field by field, recording the position of
// every count and length varint.
class FormatWalker {
 public:
  explicit FormatWalker(const std::string& payload) : payload_(payload) {}

  uint64_t Varint(bool counts) {
    uint64_t v = 0;
    size_t used = GetVarint64(payload_.data() + pos_, payload_.size() - pos_,
                              &v);
    WG_CHECK(used > 0);
    if (counts) fields_.push_back({pos_, used});
    pos_ += used;
    return v;
  }
  void Skip(uint64_t n) { pos_ += n; }

  // SNodeResidentState::Serialize's layout.
  void Resident() {
    const uint64_t pages = Varint(true);
    Varint(false);  // edge count
    for (uint64_t p = 0; p < pages; ++p) Varint(false);
    const uint64_t supernodes = Varint(true);
    for (uint64_t i = 0; i < 2 * (supernodes + 1); ++i) Varint(false);
    const uint64_t superedges = Varint(true);
    for (uint64_t e = 0; e < superedges; ++e) Varint(false);
    const uint64_t domains = Varint(true);
    for (uint64_t d = 0; d < domains; ++d) {
      Skip(Varint(true));
      const uint64_t in_domain = Varint(true);
      for (uint64_t s = 0; s < in_domain; ++s) Varint(false);
    }
  }

  // GraphStore::Directory::Serialize's layout.
  void Directory() {
    const uint64_t sections = Varint(true);
    for (uint64_t s = 0; s < sections; ++s) {
      Varint(false);  // file index
      Varint(false);  // offset
      Varint(false);  // crc
      const uint64_t graphs = Varint(true);
      for (uint64_t g = 0; g < graphs; ++g) Varint(true);
    }
  }

  // Manifest::WriteTo's layout, up to (not into) the embedded resident
  // state, which is walked on its own.
  void ManifestHead() {
    Varint(false);  // generation
    Varint(false);  // log_applied
    const uint64_t files = Varint(true);
    for (uint64_t f = 0; f < files; ++f) Skip(Varint(true));
    Directory();
    Varint(false);  // sections shared
    Varint(false);  // sections written
    Varint(true);   // resident length
  }

  size_t position() const { return pos_; }
  const std::vector<Field>& fields() const { return fields_; }

 private:
  const std::string& payload_;
  size_t pos_ = 0;
  std::vector<Field> fields_;
};

std::string WithVarint(const std::string& payload, const Field& field,
                       uint64_t value) {
  std::string out = payload.substr(0, field.pos);
  PutVarint64(&out, value);
  out.append(payload, field.pos + field.size, std::string::npos);
  return out;
}

// Every mutant of `payload`: seeded bit flips and truncations, then each
// boundary value in each of `fields`.
std::vector<std::string> Mutants(const std::string& payload,
                                 const std::vector<Field>& fields,
                                 uint64_t seed) {
  std::vector<std::string> out;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 120; ++i) {
    std::string flipped = payload;
    const size_t bit = rng() % (8 * flipped.size());
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    out.push_back(std::move(flipped));
  }
  for (int i = 0; i < 30; ++i) {
    out.push_back(payload.substr(0, rng() % payload.size()));
  }
  for (const Field& field : fields) {
    for (uint64_t value : kBoundaries) {
      out.push_back(WithVarint(payload, field, value));
    }
  }
  return out;
}

// Every page must answer or fail with a Status. The sweep is in layout
// order, so each section is assembled once.
void ExpectEveryPageAnswersOrErrors(SNodeRepr* repr) {
  std::unique_ptr<AdjacencyCursor> cursor = repr->NewCursor();
  for (size_t i = 0; i < repr->num_pages(); ++i) {
    LinkView view;
    Status status = cursor->Links(repr->PageInNaturalOrder(i), &view);
    if (status.ok()) {
      for (PageId q : view) EXPECT_LT(q, repr->num_pages());
    }
  }
  std::vector<PageId> all(repr->num_pages());
  for (size_t p = 0; p < all.size(); ++p) all[p] = static_cast<PageId>(p);
  Status visited = repr->VisitLinksInto(
      all, all, [](PageId, const std::vector<PageId>&) {});
  (void)visited;
}

TEST(ParserFuzzTest, MutatedMetaNeverAborts) {
  const std::string base = TempDirFor("meta") + "/sn";
  {
    auto built = SNodeRepr::Build(FuzzGraph(), base, {});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->SaveMeta().ok());
  }
  auto seed = ReadFramedFile(base + ".meta", kMetaMagic);
  ASSERT_TRUE(seed.ok());
  FormatWalker walker(seed.value());
  walker.Resident();
  walker.Varint(true);  // file count
  walker.Directory();
  ASSERT_EQ(walker.position(), seed.value().size());

  size_t opened = 0, refused = 0;
  for (const std::string& mutant :
       Mutants(seed.value(), walker.fields(), 17)) {
    ASSERT_TRUE(WriteFramedFile(base + ".meta", kMetaMagic, mutant).ok());
    auto repr = SNodeRepr::Open(base, {});
    if (!repr.ok()) {
      ++refused;
      continue;
    }
    ++opened;
    ExpectEveryPageAnswersOrErrors(repr.value().get());
    version::ScrubReport report;
    EXPECT_TRUE(version::ScrubStore(repr.value()->store(), &report).ok());
  }
  EXPECT_GT(refused, 0u);
  std::printf("meta mutants: %zu opened, %zu refused\n", opened, refused);
}

TEST(ParserFuzzTest, MutatedManifestNeverAborts) {
  const std::string dir = TempDirFor("manifest");
  const WebGraph graph = FuzzGraph();
  {
    auto manager = version::SnapshotManager::Create(dir, graph, {});
    ASSERT_TRUE(manager.ok());
    const PageId n = static_cast<PageId>(graph.num_pages());
    ASSERT_TRUE(manager.value()
                    ->AppendDeltas({version::DeltaRecord::AddPage(
                                        n, "http://www.fuzz.example.org/a",
                                        "www.fuzz.example.org", "example.org"),
                                    version::DeltaRecord::AddLink(n, 4),
                                    version::DeltaRecord::AddLink(7, n)})
                    .ok());
    auto gen1 = manager.value()->Compact();
    ASSERT_TRUE(gen1.ok());
    ASSERT_GT(gen1.value()->manifest.sections_shared, 0u);
  }
  const std::string path = dir + "/MANIFEST-000001";
  auto seed = ReadFramedFile(path, kManifestMagic);
  ASSERT_TRUE(seed.ok());
  FormatWalker head(seed.value());
  head.ManifestHead();
  const size_t resident_at = head.position();
  const std::string resident = seed.value().substr(resident_at);
  FormatWalker inner(resident);
  inner.Resident();
  ASSERT_EQ(inner.position(), resident.size());

  // Mutants of the manifest's own fields, then of the embedded resident
  // state with its length prefix kept true, so those reach Parse too.
  std::vector<std::string> mutants = Mutants(seed.value(), head.fields(), 19);
  const std::string prefix =
      seed.value().substr(0, head.fields().back().pos);
  for (const std::string& state : Mutants(resident, inner.fields(), 23)) {
    std::string mutant = prefix;
    PutVarint64(&mutant, state.size());
    mutant += state;
    mutants.push_back(std::move(mutant));
  }

  size_t opened = 0, refused = 0;
  for (const std::string& mutant : mutants) {
    ASSERT_TRUE(WriteFramedFile(path, kManifestMagic, mutant).ok());
    version::ScrubReport report;
    Status scrubbed = version::ScrubSnapshotDir(dir, &report);
    version::GcReport gc;
    Status collected = version::CollectGarbage(dir, {}, &gc);
    (void)scrubbed;
    (void)collected;
    auto manager = version::SnapshotManager::Open(dir, {});
    if (!manager.ok()) {
      ++refused;
      continue;
    }
    ++opened;
    ExpectEveryPageAnswersOrErrors(manager.value()->current()->repr.get());
  }
  EXPECT_GT(refused, 0u);
  std::printf("manifest mutants: %zu opened, %zu refused\n", opened, refused);
}

// Every parse returns a Status, and every request a parse accepts is in
// range: page ids below the page count, k in [1, 16], query 1..6. A field
// set to a boundary value is accepted exactly when the value is in range.
TEST(ParserFuzzTest, MutatedRequestFileNeverAborts) {
  constexpr uint64_t kPages = 600;
  const std::string path = TempDirFor("requests") + "/requests";
  auto parse = [&path](const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return server::ParseRequestFile(path, kPages);
  };
  auto expect_in_range = [&](const std::vector<server::Request>& requests) {
    for (const server::Request& r : requests) {
      if (r.type == server::RequestType::kComplexQuery) {
        EXPECT_GE(r.query_number, 1);
        EXPECT_LE(r.query_number, 6);
        continue;
      }
      EXPECT_LT(r.page, kPages);
      if (r.type == server::RequestType::kKHop) {
        EXPECT_GE(r.k, 1);
        EXPECT_LE(r.k, 16);
      }
    }
  };

  const std::string seed =
      "# replay\nout 0\nin 599\nkhop 17 2\nquery 1\n\n"
      "out 42\nkhop 599 16\nquery 6\n";
  auto whole = parse(seed);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole.value().size(), 7u);

  std::vector<std::string> mutants;
  std::mt19937_64 rng(29);
  for (int i = 0; i < 200; ++i) {
    std::string flipped = seed;
    const size_t bit = rng() % (8 * flipped.size());
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    mutants.push_back(std::move(flipped));
  }
  for (int i = 0; i < 30; ++i) {
    mutants.push_back(seed.substr(0, rng() % seed.size()));
  }
  size_t accepted = 0, refused = 0;
  for (const std::string& mutant : mutants) {
    auto parsed = parse(mutant);
    if (!parsed.ok()) {
      ++refused;
      continue;
    }
    ++accepted;
    expect_in_range(parsed.value());
  }

  // Lines longer than any fixed buffer are one line each: a comment, a
  // run of blanks between fields and after them, a number, an op, and a
  // last line without a newline.
  const std::string run(5000, '7');
  struct LongLine {
    std::string text;
    int requests;  // -1: refused
  };
  const LongLine long_lines[] = {
      {"# " + run + "\nout 1\n", 1},
      {"out" + std::string(5000, ' ') + "1\n", 1},
      {"out 1" + std::string(5000, '\t') + "\nin 2\n", 2},
      {"out " + run + "\n", -1},
      {std::string(5000, 'o') + " 1\n", -1},
      {"in 3\nkhop 1 " + run, -1},
  };
  for (const LongLine& line : long_lines) {
    auto parsed = parse(line.text);
    ASSERT_EQ(parsed.ok(), line.requests >= 0) << parsed.status().ToString();
    if (parsed.ok()) {
      EXPECT_EQ(parsed.value().size(), static_cast<size_t>(line.requests));
      expect_in_range(parsed.value());
    }
  }

  // Boundary values in each numeric field, one request per file.
  struct Field {
    const char* before;
    const char* after;
    uint64_t lo, hi;  // the accepted range
  };
  const Field fields[] = {{"out ", "", 0, kPages - 1},
                          {"in ", "", 0, kPages - 1},
                          {"khop ", " 2", 0, kPages - 1},
                          {"khop 3 ", "", 1, 16},
                          {"query ", "", 1, 6}};
  const uint64_t values[] = {0,
                             1,
                             6,
                             7,
                             16,
                             17,
                             kPages - 1,
                             kPages,
                             uint64_t{1} << 31,
                             (uint64_t{1} << 32) - 1,
                             uint64_t{1} << 32,
                             uint64_t{1} << 63,
                             UINT64_MAX};
  for (const Field& field : fields) {
    for (uint64_t value : values) {
      const std::string line =
          field.before + std::to_string(value) + field.after + "\n";
      auto parsed = parse(line);
      EXPECT_EQ(parsed.ok(), value >= field.lo && value <= field.hi) << line;
      if (parsed.ok()) expect_in_range(parsed.value());
    }
    // One past UINT64_MAX does not fit the field at all.
    EXPECT_FALSE(
        parse(std::string(field.before) + "18446744073709551616" + field.after)
            .ok());
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
  std::printf("request-file mutants: %zu accepted, %zu refused\n", accepted,
              refused);
}

}  // namespace
}  // namespace wg
