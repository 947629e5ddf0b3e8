// Shared test helpers.
//
// A result store is a directory: leases, per-writer log segments, the
// lock sidecar and the compaction output all live in it. Tests run as
// concurrent processes under `ctest -j`, so every store a test opens must
// sit in a directory no other test process can see.
#ifndef SPARSIFY_TESTS_TEST_UTIL_H_
#define SPARSIFY_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace sparsify {

/// The running test's private scratch directory,
/// <TempDir>/<suite>.<test>.<pid>. The first call within a test empties
/// and creates it; later calls in the same test return the same path.
inline std::string TestDir() {
  namespace fs = std::filesystem;
  static std::string current;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized names carry '/'
  }
  std::string dir = (fs::path(::testing::TempDir()) / name).string();
  if (dir != current) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    current = dir;
  }
  return dir;
}

/// `name` inside TestDir(): a file path, or a subdirectory for a store.
inline std::string TestPath(const std::string& name) {
  return (std::filesystem::path(TestDir()) / name).string();
}

/// The writer segments (`log.<writer>.<seq>.jsonl`) in store directory
/// `dir`, sorted by name.
inline std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("log.", 0) == 0 && name.ends_with(".jsonl")) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The one segment a single writer session left in store directory
/// `dir`; a test failure (and an empty path) when there is not exactly one.
inline std::string OnlySegment(const std::string& dir) {
  std::vector<std::string> segs = SegmentFiles(dir);
  EXPECT_EQ(segs.size(), 1u) << dir;
  return segs.size() == 1 ? segs[0] : std::string();
}

/// Total bytes of the log files in store directory `dir`: the compaction
/// output `results.jsonl` (if any) plus every writer segment.
inline uintmax_t StoreBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uintmax_t bytes = fs::file_size(fs::path(dir) / "results.jsonl", ec);
  if (ec) bytes = 0;
  for (const std::string& file : SegmentFiles(dir)) {
    bytes += fs::file_size(file);
  }
  return bytes;
}

}  // namespace sparsify

#endif  // SPARSIFY_TESTS_TEST_UTIL_H_
