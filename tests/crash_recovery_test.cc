// Randomized crash-consistency harness. A forked child runs the snapshot
// store's full write cycle (open -> append deltas -> compact, twice)
// under FaultInjectingEnv with a kill point at a random hooked operation.
// At the kill point the env applies the power-cut disk model -- unsynced
// writes garbled, unsynced creates dropped, unsynced renames rolled back,
// all coin-flipped per seed -- and _exits. The parent then requires, for
// EVERY kill point:
//
//  * SnapshotManager::Open succeeds on the survivor directory,
//  * the generation it lands on scrubs clean (every blob CRC verifies),
//  * the generation is one the protocol could have legally exposed
//    (monotonic in [0, generations the child completed]).
//
// The >= 200 kill points sweep the workload's whole op range, revisiting
// each op under different power-cut seeds, so every fsync boundary in the
// publication protocol gets hit. A protocol bug -- missing pack SyncAll,
// missing directory fsync around the CURRENT rename -- shows up here as a
// reopen landing on a manifest whose blobs fail their CRCs.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/file.h"
#include "version/delta_log.h"
#include "version/scrub.h"
#include "version/snapshot.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using version::DeltaRecord;
using version::ScrubReport;
using version::SnapshotManager;

using test::TempDirFor;

WebGraph CrashGraph() {
  GeneratorOptions opts;
  opts.num_pages = 400;
  opts.seed = 47;
  return GenerateWebGraph(opts);
}

std::vector<DeltaRecord> DeltaBatch(const WebGraph& base, int round) {
  PageId n = static_cast<PageId>(base.num_pages()) +
             static_cast<PageId>(round) * 2;
  std::string stem = "www.crash" + std::to_string(round) + ".example.org";
  return {
      DeltaRecord::AddPage(n, "http://" + stem + "/index.html", stem,
                           "example.org"),
      DeltaRecord::AddPage(n + 1, "http://" + stem + "/a.html", stem,
                           "example.org"),
      DeltaRecord::AddLink(n, n + 1),
      DeltaRecord::AddLink(static_cast<PageId>(7 + round), n),
      DeltaRecord::AddLink(n + 1, static_cast<PageId>(3 + round)),
  };
}

// The workload the child executes under fault injection. Returns on the
// first error (a crashed child never returns at all).
void RunWorkload(const std::string& dir, const WebGraph& base) {
  auto manager = SnapshotManager::Open(dir, {});
  if (!manager.ok()) return;
  for (int round = 0; round < 3; ++round) {
    if (!manager.value()->AppendDeltas(DeltaBatch(base, round)).ok()) return;
    if (!manager.value()->Compact().ok()) return;
  }
}

// Copies the pristine gen-0 directory for one trial (raw syscalls via
// system(); trivially fine in a test).
void CloneDir(const std::string& from, const std::string& to) {
  std::string cmd = "rm -rf '" + to + "' && cp -r '" + from + "' '" + to + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
}

TEST(CrashRecoveryTest, ReopenIsConsistentAfterEveryKillPoint) {
  WebGraph base = CrashGraph();
  std::string root = TempDirFor("matrix");
  std::string pristine = root + "/pristine";
  {
    auto created = SnapshotManager::Create(pristine, base, {});
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }

  // Dry run (no kill point) to size the op range.
  int64_t total_ops = 0;
  {
    std::string dry = root + "/dry";
    CloneDir(pristine, dry);
    FaultInjectingEnv env({});
    Env::Install(&env);
    RunWorkload(dry, base);
    Env::Install(nullptr);
    total_ops = env.op_count();
  }
  ASSERT_GT(total_ops, 0);

  // >= 200 kill points: sweep every op of the workload cyclically, with a
  // fresh power-cut seed per trial so revisiting an op explores different
  // coin flips (which writes garble, which creates/renames roll back).
  const int kTrials = 220;
  int verified = 0;
  std::string trial_dir = root + "/trial";
  for (int t = 0; t < kTrials; ++t) {
    int64_t kill_at = 1 + (static_cast<int64_t>(t) % total_ops);
    CloneDir(pristine, trial_dir);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: crash at the kill point (power cut + _exit(42)); finishing
      // the workload without reaching it exits 0.
      FaultInjectingEnv::Options fopts;
      fopts.seed = static_cast<uint64_t>(t) + 1;
      fopts.crash_at_op = kill_at;
      FaultInjectingEnv env(fopts);
      Env::Install(&env);
      RunWorkload(trial_dir, base);
      _exit(0);
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "child died abnormally, kill point "
                                    << kill_at;
    int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 || code == FaultInjectingEnv::kCrashExitCode)
        << "unexpected child exit " << code << " at kill point " << kill_at;

    // Recovery: reopen must land on a complete, scrub-clean generation.
    auto reopened = SnapshotManager::Open(trial_dir, {});
    ASSERT_TRUE(reopened.ok())
        << "kill point " << kill_at
        << ": reopen failed: " << reopened.status().ToString();
    uint64_t generation =
        reopened.value()->current()->manifest.generation;
    ASSERT_LE(generation, 3u) << "kill point " << kill_at;
    ScrubReport report;
    ASSERT_TRUE(version::ScrubSnapshotDir(trial_dir, &report).ok());
    ASSERT_TRUE(report.clean())
        << "kill point " << kill_at << " landed on generation " << generation
        << " with damage:\n"
        << report.ToString();
    // The landed generation must actually serve reads.
    LinkView links;
    auto cursor = reopened.value()->current()->repr->NewCursor();
    ASSERT_TRUE(cursor->Links(0, &links).ok()) << "kill point " << kill_at;
    ++verified;
  }
  ASSERT_GE(verified, 200);
  std::printf("crash matrix: %d kill points over %lld ops, all consistent\n",
              verified, static_cast<long long>(total_ops));
}

}  // namespace
}  // namespace wg
