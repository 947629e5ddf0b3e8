// Shared test helpers.
//
// A result store's namespace is its directory: leases, per-writer log
// segments and the lock sidecar all live beside the base file. Tests run
// as concurrent processes under `ctest -j`, so every store a test opens
// must sit in a directory no other test process can see.
#ifndef SPARSIFY_TESTS_TEST_UTIL_H_
#define SPARSIFY_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>

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

}  // namespace sparsify

#endif  // SPARSIFY_TESTS_TEST_UTIL_H_
