// Fault injection against the out-of-core build's spill plane: because
// every spill file (URL log, adjacency log, sort runs) goes through the
// RandomAccessFile layer and the Env hooks, injected ENOSPC/EIO on spill
// I/O must surface as a clean non-OK Status from BuildStreaming -- never
// a crash, a WG_CHECK abort, or a silently wrong (yet "successful")
// store. Scratch must still be cleaned up on the failure path.

#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/streaming_build.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/file.h"
#include "storage/spill.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

class ScopedEnv {
 public:
  explicit ScopedEnv(Env* env) { Env::Install(env); }
  ~ScopedEnv() { Env::Install(nullptr); }
};

using test::TempPath;

GeneratorOptions CrawlOptions() {
  GeneratorOptions opts;
  opts.num_pages = 6000;
  opts.seed = 17;
  return opts;
}

SNodeBuildOptions BuildOptions(int threads) {
  SNodeBuildOptions options;
  options.threads = threads;
  options.refinement.min_split_size = 256;
  options.refinement.min_group_size = 64;
  return options;
}

// Tiny budget: small spill buffers flush early (so write faults hit
// during ingest) and the sort spills runs (so run I/O is exercised).
BuildMemoryBudget TinyBudget() {
  BuildMemoryBudget budget;
  budget.total_bytes = size_t{1} << 20;
  return budget;
}

Status RunBuild(const std::string& base, int threads) {
  GeneratorEdgeSource source(CrawlOptions(), base + "_scratch");
  auto repr = BuildStreaming(&source, base, BuildOptions(threads),
                             TinyBudget());
  return repr.ok() ? Status::OK() : repr.status();
}

// Hard EIO on every spill-file write: the drain's first flush fails and
// the whole build reports it.
TEST(FaultSpillTest, SpillWriteEioFailsBuildCleanly) {
  std::string base = TempPath("write_eio");
  FaultInjectingEnv::Options fopts;
  fopts.fail_writes = true;
  fopts.path_filter = ".spill/";
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  Status st = RunBuild(base, 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  // No store may claim success: SaveMeta was never reached.
  EXPECT_NE(access((base + ".meta").c_str(), F_OK), 0);
}

// ENOSPC short writes (a random prefix lands, then the error): the spill
// layer must not mistake the landed prefix for a completed write.
TEST(FaultSpillTest, SpillShortWriteEnospcFailsBuildCleanly) {
  std::string base = TempPath("enospc");
  FaultInjectingEnv::Options fopts;
  fopts.write_short_prob = 1.0;
  fopts.path_filter = ".spill/";
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  Status st = RunBuild(base, 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
}

// EIO on spill-file reads: ingest (write-only on the crawl logs)
// succeeds, then refinement's first spill read fails; the error must
// propagate deterministically through the parallel refinement (merge
// order) instead of crashing a worker, at any thread count.
TEST(FaultSpillTest, SpillReadEioFailsBuildCleanlyAtAnyThreadCount) {
  for (int threads : {1, 4}) {
    std::string base = TempPath("read_eio");
    FaultInjectingEnv::Options fopts;
    fopts.fail_reads = true;
    fopts.path_filter = ".spill/crawl";
    FaultInjectingEnv env(fopts);
    ScopedEnv scoped(&env);
    Status st = RunBuild(base, threads);
    ASSERT_FALSE(st.ok()) << "threads=" << threads;
    EXPECT_EQ(st.code(), StatusCode::kIOError)
        << "threads=" << threads << ": " << st.ToString();
  }
}

// Probabilistic write faults across the whole spill directory, several
// seeds: whatever op the fault lands on, the result is a clean error or
// an honest success -- and scratch files never outlive the build.
TEST(FaultSpillTest, RandomSpillFaultsNeverCrashAndAlwaysCleanUp) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::string base = TempPath("random");
    FaultInjectingEnv::Options fopts;
    fopts.seed = seed;
    fopts.write_error_prob = 0.02;
    fopts.write_short_prob = 0.02;
    fopts.path_filter = ".spill/";
    FaultInjectingEnv env(fopts);
    ScopedEnv scoped(&env);
    GeneratorEdgeSource source(CrawlOptions(), base + "_scratch");
    auto repr =
        BuildStreaming(&source, base, BuildOptions(2), TinyBudget());
    if (!repr.ok()) {
      StatusCode code = repr.status().code();
      EXPECT_TRUE(code == StatusCode::kIOError ||
                  code == StatusCode::kResourceExhausted)
          << "seed " << seed << ": " << repr.status().ToString();
    }
    // The spill logs are unlinked on success AND failure (the directory
    // itself may remain if a sort-run unlink raced a fault, but the two
    // big crawl logs must be gone).
    EXPECT_NE(access((base + ".spill/crawl.urls").c_str(), F_OK), 0)
        << "seed " << seed;
    EXPECT_NE(access((base + ".spill/crawl.adj").c_str(), F_OK), 0)
        << "seed " << seed;
  }
}

// The external sorter itself: a run-file write fault surfaces from
// Add/Merge as a status, and the merge never emits a record it could not
// have read back.
TEST(FaultSpillTest, ExternalSorterSurfacesRunWriteFaults) {
  FaultInjectingEnv::Options fopts;
  fopts.fail_writes = true;
  fopts.path_filter = ".run-";
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  ExternalSorter sorter(TempPath("sorter"), 1 << 20);
  Status st = Status::OK();
  std::string record(64, 'r');
  // ~2 MiB of records against a 1 MiB budget forces a spill attempt.
  for (int i = 0; i < 40000 && st.ok(); ++i) {
    record.resize(60);
    record += std::to_string(i);
    st = sorter.Add(record);
  }
  if (st.ok()) {
    st = sorter.Merge([](std::string_view) { return Status::OK(); });
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
}

}  // namespace
}  // namespace wg
