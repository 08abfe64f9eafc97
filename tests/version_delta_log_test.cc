// Crash-recovery tests for the write-ahead crawl-delta log: torn tails
// (truncation mid-record and exactly at a frame boundary) and CRC
// corruption must each recover the longest valid frame prefix, and a
// recovered log must keep accepting appends.

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/file.h"
#include "version/delta_log.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using version::DeltaLog;
using version::DeltaLogRecoveryStats;
using version::DeltaRecord;

using test::TempPath;

uint64_t FileSize(const std::string& path) {
  struct stat st = {};
  WG_CHECK(::stat(path.c_str(), &st) == 0);
  return static_cast<uint64_t>(st.st_size);
}

// A mixed batch covering every record kind (AddPage carries strings, so
// truncation can land inside a variable-length payload).
std::vector<DeltaRecord> SampleRecords(size_t n) {
  std::vector<DeltaRecord> records;
  for (size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0:
        records.push_back(DeltaRecord::AddPage(
            static_cast<PageId>(1000 + i),
            "http://www.site" + std::to_string(i) + ".edu/index.html",
            "www.site" + std::to_string(i) + ".edu",
            "site" + std::to_string(i) + ".edu"));
        break;
      case 1:
        records.push_back(DeltaRecord::AddLink(static_cast<PageId>(i),
                                               static_cast<PageId>(i + 1)));
        break;
      case 2:
        records.push_back(DeltaRecord::RemoveLink(static_cast<PageId>(i),
                                                  static_cast<PageId>(i + 2)));
        break;
      default:
        records.push_back(DeltaRecord::RemovePage(static_cast<PageId>(i)));
        break;
    }
  }
  return records;
}

void ExpectSameRecord(const DeltaRecord& got, const DeltaRecord& want) {
  EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind));
  EXPECT_EQ(got.page, want.page);
  EXPECT_EQ(got.from, want.from);
  EXPECT_EQ(got.to, want.to);
  EXPECT_EQ(got.url, want.url);
  EXPECT_EQ(got.host, want.host);
  EXPECT_EQ(got.domain, want.domain);
}

std::vector<DeltaRecord> ReplayAll(const std::string& path,
                                   DeltaLogRecoveryStats* stats = nullptr) {
  std::vector<DeltaRecord> out;
  Status status = DeltaLog::Replay(
      path, 0,
      [&out](const DeltaRecord& r) {
        out.push_back(r);
        return Status::OK();
      },
      stats);
  WG_CHECK(status.ok());
  return out;
}

TEST(DeltaLogTest, AppendReopenReplayRoundTrips) {
  std::string path = TempPath("roundtrip");
  std::vector<DeltaRecord> records = SampleRecords(23);
  {
    auto log = DeltaLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (const DeltaRecord& r : records) {
      ASSERT_TRUE(log.value()->Append(r).ok());
    }
    ASSERT_TRUE(log.value()->Sync().ok());
    EXPECT_EQ(log.value()->num_records(), records.size());
  }
  DeltaLogRecoveryStats recovery;
  auto reopened = DeltaLog::Open(path, &recovery);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(recovery.records, records.size());
  EXPECT_EQ(recovery.dropped_bytes, 0u);
  EXPECT_EQ(recovery.valid_bytes, FileSize(path));

  std::vector<DeltaRecord> replayed = ReplayAll(path);
  ASSERT_EQ(replayed.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameRecord(replayed[i], records[i]);
  }
}

TEST(DeltaLogTest, ReplaySkipsAppliedPrefix) {
  std::string path = TempPath("skip");
  std::vector<DeltaRecord> records = SampleRecords(12);
  auto log = DeltaLog::Open(path);
  ASSERT_TRUE(log.ok());
  for (const DeltaRecord& r : records) {
    ASSERT_TRUE(log.value()->Append(r).ok());
  }
  std::vector<DeltaRecord> tail;
  ASSERT_TRUE(DeltaLog::Replay(path, 5,
                               [&tail](const DeltaRecord& r) {
                                 tail.push_back(r);
                                 return Status::OK();
                               })
                  .ok());
  ASSERT_EQ(tail.size(), records.size() - 5);
  for (size_t i = 0; i < tail.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameRecord(tail[i], records[i + 5]);
  }
}

TEST(DeltaLogTest, TruncationMidRecordRecoversLongestValidPrefix) {
  std::string path = TempPath("midrecord");
  std::vector<DeltaRecord> records = SampleRecords(10);
  {
    auto log = DeltaLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (const DeltaRecord& r : records) {
      ASSERT_TRUE(log.value()->Append(r).ok());
    }
  }
  // Cut 3 bytes off the final frame's payload: a torn append.
  uint64_t full = FileSize(path);
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(full - 3)), 0);

  DeltaLogRecoveryStats recovery;
  auto log = DeltaLog::Open(path, &recovery);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(recovery.records, records.size() - 1);
  EXPECT_GT(recovery.dropped_bytes, 0u);
  // Recovery physically truncated the torn tail.
  EXPECT_EQ(FileSize(path), recovery.valid_bytes);
  EXPECT_LT(recovery.valid_bytes, full);

  std::vector<DeltaRecord> replayed = ReplayAll(path);
  ASSERT_EQ(replayed.size(), records.size() - 1);
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameRecord(replayed[i], records[i]);
  }

  // The recovered log accepts new appends and they replay in order.
  ASSERT_TRUE(log.value()->Append(DeltaRecord::AddLink(7, 8)).ok());
  ASSERT_TRUE(log.value()->Sync().ok());
  replayed = ReplayAll(path);
  ASSERT_EQ(replayed.size(), records.size());
  ExpectSameRecord(replayed.back(), DeltaRecord::AddLink(7, 8));
}

TEST(DeltaLogTest, TruncationAtFrameBoundaryLosesOnlyTheTail) {
  std::string path = TempPath("boundary");
  std::vector<DeltaRecord> records = SampleRecords(9);
  auto log = DeltaLog::Open(path);
  ASSERT_TRUE(log.ok());
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(log.value()->Append(records[i]).ok());
  }
  uint64_t boundary = FileSize(path);
  for (size_t i = 6; i < records.size(); ++i) {
    ASSERT_TRUE(log.value()->Append(records[i]).ok());
  }
  log.value().reset();
  // A crash that lost exactly the last three frames: clean boundary, so
  // nothing is torn and nothing further is dropped.
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(boundary)), 0);

  DeltaLogRecoveryStats recovery;
  auto reopened = DeltaLog::Open(path, &recovery);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(recovery.records, 6u);
  EXPECT_EQ(recovery.dropped_bytes, 0u);
  EXPECT_EQ(recovery.valid_bytes, boundary);
  EXPECT_EQ(FileSize(path), boundary);

  std::vector<DeltaRecord> replayed = ReplayAll(path);
  ASSERT_EQ(replayed.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    ExpectSameRecord(replayed[i], records[i]);
  }
}

TEST(DeltaLogTest, CorruptPayloadStopsRecoveryBeforeTheBadFrame) {
  std::string path = TempPath("corrupt");
  std::vector<DeltaRecord> records = SampleRecords(8);
  auto log = DeltaLog::Open(path);
  ASSERT_TRUE(log.ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(log.value()->Append(records[i]).ok());
  }
  uint64_t boundary = FileSize(path);
  for (size_t i = 4; i < records.size(); ++i) {
    ASSERT_TRUE(log.value()->Append(records[i]).ok());
  }
  log.value().reset();

  // Flip one payload byte of the fifth record (offset: frame header is 8
  // bytes of length+crc); its CRC check must fail and recovery must keep
  // exactly the first four records.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(boundary + 8 + 1));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(boundary + 8 + 1));
    f.put(static_cast<char>(byte ^ 0x5a));
  }

  DeltaLogRecoveryStats recovery;
  auto reopened = DeltaLog::Open(path, &recovery);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(recovery.records, 4u);
  EXPECT_EQ(recovery.valid_bytes, boundary);
  EXPECT_GT(recovery.dropped_bytes, 0u);
  EXPECT_EQ(FileSize(path), boundary);
}

}  // namespace
}  // namespace wg
