#ifndef WG_TESTS_TEST_TEMP_DIR_H_
#define WG_TESTS_TEST_TEMP_DIR_H_

#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "storage/file.h"
#include "util/status.h"

// Scratch space for a test process: one directory, made with mkdtemp under
// testing::TempDir() on first use and removed with everything in it when
// the process that made it exits. mkdtemp gives every process a fresh
// name, so a recycled pid can never reopen files an earlier run left
// behind. Forked children (crash and smoke tests fork) leave the directory
// alone: they _exit, and the destructor checks the pid anyway.

namespace wg::test {

inline const std::string& ProcessTempDir() {
  struct OwnedDir {
    std::string path;
    pid_t owner = getpid();
    OwnedDir() {
      std::string pattern = testing::TempDir() + "wg_test_XXXXXX";
      WG_CHECK(mkdtemp(pattern.data()) != nullptr);
      path = pattern;
    }
    ~OwnedDir() {
      if (getpid() != owner) return;
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static OwnedDir dir;
  return dir.path;
}

// A fresh path inside ProcessTempDir(): `name` plus a process-wide count.
inline std::string TempPath(const std::string& name) {
  static std::atomic<int> counter{0};
  return ProcessTempDir() + "/" + name + std::to_string(counter++);
}

// A fresh, existing directory inside ProcessTempDir().
inline std::string TempDirFor(const std::string& name) {
  std::string dir = TempPath(name);
  WG_CHECK(EnsureDirectory(dir).ok());
  return dir;
}

}  // namespace wg::test

#endif  // WG_TESTS_TEST_TEMP_DIR_H_
