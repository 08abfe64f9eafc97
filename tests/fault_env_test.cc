// FaultInjectingEnv contracts:
//
//  * Injected faults surface as clean Status errors at the
//    RandomAccessFile layer (EIO reads/writes, ENOSPC short writes,
//    failing fsyncs) -- never as crashes or silent truncation.
//  * Bit-flip injection corrupts read buffers without erroring, modelling
//    a disk that returns wrong bytes with a clean status.
//  * The power-cut model: bytes not covered by a file fsync are garbled
//    or zeroed; files whose directory entry was never made durable may
//    vanish; renames not followed by a directory fsync may roll back.
//    What the fsync discipline guarantees durable always survives.
//  * crash_at_op counts hooked ops deterministically and fires on_crash
//    exactly once when the counter hits the kill point.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/file.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

// Installs an env for one test scope; restores the default on exit so a
// failing test cannot poison the rest of the binary.
class ScopedEnv {
 public:
  explicit ScopedEnv(Env* env) { Env::Install(env); }
  ~ScopedEnv() { Env::Install(nullptr); }
};

using test::TempPath;

TEST(FaultEnvTest, HardReadErrorSurfacesAsStatus) {
  std::string path = TempPath("read_eio");
  {
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("hello world", 11).ok());
  }
  FaultInjectingEnv::Options fopts;
  fopts.fail_reads = true;
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  char buf[11];
  Status read = file.value()->Read(0, sizeof(buf), buf);
  EXPECT_EQ(read.code(), StatusCode::kIOError);
  EXPECT_NE(read.ToString().find("injected read error"), std::string::npos);
}

TEST(FaultEnvTest, BitFlipCorruptsBufferWithoutError) {
  std::string path = TempPath("bitflip");
  std::string payload(256, 'a');
  {
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(payload.data(), payload.size()).ok());
  }
  FaultInjectingEnv::Options fopts;
  fopts.read_bitflip_prob = 1.0;
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  std::string got(payload.size(), '\0');
  ASSERT_TRUE(file.value()->Read(0, got.size(), got.data()).ok());
  EXPECT_NE(got, payload) << "bit flip should corrupt the buffer";
  // Exactly one bit differs per read with prob 1.0.
  int diff_bits = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    diff_bits += __builtin_popcount(
        static_cast<unsigned char>(got[i] ^ payload[i]));
  }
  EXPECT_EQ(diff_bits, 1);
}

TEST(FaultEnvTest, ShortWriteReportsEnospcAndKeepsPrefixAccounting) {
  FaultInjectingEnv::Options fopts;
  fopts.write_short_prob = 1.0;
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  std::string path = TempPath("short_write");
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  std::string payload(1024, 'x');
  Status wrote = file.value()->Append(payload.data(), payload.size());
  EXPECT_EQ(wrote.code(), StatusCode::kResourceExhausted);
  // size() grew only by what actually landed; a retrying writer can trust
  // it as the resume offset.
  EXPECT_LT(file.value()->size(), payload.size());
  auto on_disk = file.value()->CurrentSize();
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk.value(), file.value()->size());
}

TEST(FaultEnvTest, PathFilterScopesFaults) {
  FaultInjectingEnv::Options fopts;
  fopts.fail_writes = true;
  fopts.path_filter = "victim";
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  auto victim = RandomAccessFile::Open(TempPath("victim"));
  auto bystander = RandomAccessFile::Open(TempPath("bystander"));
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(bystander.ok());
  EXPECT_FALSE(victim.value()->Append("x", 1).ok());
  EXPECT_TRUE(bystander.value()->Append("x", 1).ok());
}

TEST(FaultEnvTest, PowerCutGarblesUnsyncedBytesOnly) {
  FaultInjectingEnv::Options fopts;
  fopts.seed = 7;
  fopts.drop_syncs = false;
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  std::string path = TempPath("powercut");
  std::string synced(512, 's');
  std::string unsynced(512, 'u');
  {
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(synced.data(), synced.size()).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
    ASSERT_TRUE(file.value()->Append(unsynced.data(), unsynced.size()).ok());
    // No sync for the second half.
  }
  // Keep the directory entry alive regardless of the create coin flip.
  ASSERT_TRUE(SyncDirectory(testing::TempDir()).ok());
  env.SimulatePowerCut();
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  std::string got(1024, '\0');
  ASSERT_TRUE(file.value()->Read(0, got.size(), got.data()).ok());
  EXPECT_EQ(got.substr(0, 512), synced) << "fsynced bytes must survive";
  EXPECT_NE(got.substr(512), unsynced) << "unsynced bytes must not survive";
}

TEST(FaultEnvTest, DroppedSyncMakesFsyncedBytesVulnerable) {
  FaultInjectingEnv::Options fopts;
  fopts.seed = 11;
  fopts.drop_syncs = true;  // lying disk
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  std::string path = TempPath("lying_disk");
  std::string payload(512, 'p');
  {
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(payload.data(), payload.size()).ok());
    EXPECT_TRUE(file.value()->Sync().ok());  // "succeeds", does nothing
  }
  // The lying disk drops the directory fsync too, so the file's very
  // creation may be rolled back along with its bytes.
  ASSERT_TRUE(SyncDirectory(testing::TempDir()).ok());
  env.SimulatePowerCut();
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  if (file.value()->size() == 0) return;  // vanished entirely: data lost
  std::string got(file.value()->size(), '\0');
  ASSERT_TRUE(file.value()->Read(0, got.size(), got.data()).ok());
  EXPECT_NE(got, payload);
}

TEST(FaultEnvTest, DirectorySyncCommitsCreates) {
  FaultInjectingEnv::Options fopts;
  fopts.seed = 3;
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  std::string dir = TempPath("createdir");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  std::string path = dir + "/data";
  {
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("abc", 3).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
  }
  ASSERT_TRUE(SyncDirectory(dir).ok());
  env.SimulatePowerCut();
  // File fsync + dir fsync: both the bytes and the entry must survive.
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value()->size(), 3u);
  char buf[3];
  ASSERT_TRUE(file.value()->Read(0, 3, buf).ok());
  EXPECT_EQ(std::string(buf, 3), "abc");
}

TEST(FaultEnvTest, RenameWithDirSyncIsDurable) {
  FaultInjectingEnv::Options fopts;
  fopts.seed = 5;
  FaultInjectingEnv env(fopts);
  ScopedEnv scoped(&env);
  std::string dir = TempPath("renamedir");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  std::string tmp = dir + "/CURRENT.tmp";
  std::string target = dir + "/CURRENT";
  {
    auto file = RandomAccessFile::Open(target);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("old\n", 4).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
  }
  ASSERT_TRUE(SyncDirectory(dir).ok());
  {
    auto file = RandomAccessFile::Open(tmp);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("new\n", 4).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
  }
  ASSERT_TRUE(RenameFile(tmp, target).ok());
  ASSERT_TRUE(SyncDirectory(dir).ok());
  env.SimulatePowerCut();
  auto file = RandomAccessFile::Open(target);
  ASSERT_TRUE(file.ok());
  ASSERT_EQ(file.value()->size(), 4u);
  char buf[4];
  ASSERT_TRUE(file.value()->Read(0, 4, buf).ok());
  EXPECT_EQ(std::string(buf, 4), "new\n");
}

TEST(FaultEnvTest, RenameWithoutDirSyncLandsOnEitherSide) {
  // Without the directory fsync the rename may roll back -- but the
  // target must then hold its complete previous contents, never a mix.
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    FaultInjectingEnv::Options fopts;
    fopts.seed = seed;
    FaultInjectingEnv env(fopts);
    ScopedEnv scoped(&env);
    std::string dir = TempPath("renameflip");
    ASSERT_TRUE(EnsureDirectory(dir).ok());
    std::string tmp = dir + "/CURRENT.tmp";
    std::string target = dir + "/CURRENT";
    {
      auto file = RandomAccessFile::Open(target);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(file.value()->Append("old\n", 4).ok());
      ASSERT_TRUE(file.value()->Sync().ok());
    }
    ASSERT_TRUE(SyncDirectory(dir).ok());
    {
      auto file = RandomAccessFile::Open(tmp);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(file.value()->Append("new\n", 4).ok());
      ASSERT_TRUE(file.value()->Sync().ok());
    }
    ASSERT_TRUE(RenameFile(tmp, target).ok());
    env.SimulatePowerCut();
    auto file = RandomAccessFile::Open(target);
    ASSERT_TRUE(file.ok());
    ASSERT_EQ(file.value()->size(), 4u);
    char buf[4];
    ASSERT_TRUE(file.value()->Read(0, 4, buf).ok());
    std::string got(buf, 4);
    EXPECT_TRUE(got == "old\n" || got == "new\n") << "seed " << seed
                                                  << " got " << got;
  }
}

TEST(FaultEnvTest, CrashAtOpFiresOnCrashExactlyOnce) {
  FaultInjectingEnv::Options fopts;
  fopts.crash_at_op = 5;
  FaultInjectingEnv env(fopts);
  int crashes = 0;
  env.set_on_crash([&crashes] { ++crashes; });
  ScopedEnv scoped(&env);
  std::string path = TempPath("crash_at");
  auto file = RandomAccessFile::Open(path);  // op 1
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 10; ++i) {
    // After the kill point the env is dead: writes succeed raw (the
    // process would normally have exited in on_crash).
    Status ignored = file.value()->Append("x", 1);
    (void)ignored;
  }
  EXPECT_EQ(crashes, 1);
  EXPECT_GE(env.op_count(), 5);
}

TEST(FaultEnvTest, OpCountIsDeterministicForSameWorkload) {
  auto run = [](FaultInjectingEnv* env) {
    ScopedEnv scoped(env);
    std::string path = TempPath("detops");
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("abcd", 4).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
    char buf[4];
    ASSERT_TRUE(file.value()->Read(0, 4, buf).ok());
  };
  FaultInjectingEnv a({});
  FaultInjectingEnv b({});
  run(&a);
  run(&b);
  EXPECT_EQ(a.op_count(), b.op_count());
  EXPECT_GT(a.op_count(), 0);
}

}  // namespace
}  // namespace wg
