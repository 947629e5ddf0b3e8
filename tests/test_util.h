// Shared test helpers.
//
// A result store is a directory: the writer lock file, the per-session
// log segments and the compaction output all live in it. Tests run as
// concurrent processes under `ctest -j`, so every store a test opens must
// sit in a directory no other test process can see.
//
// The engine reports units only through callbacks; CollectValues gathers
// a direct RunTasksMulti call's values for tests that compare them.
#ifndef SPARSIFY_TESTS_TEST_UTIL_H_
#define SPARSIFY_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/batch_runner.h"

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

/// One task's outputs from a direct RunTasksMulti call: the cell's
/// achieved prune rate and one value per requested metric id, in the
/// task's id order (every metric when task.metrics is empty).
struct CellValues {
  BatchTask task;
  double achieved_prune_rate = 0.0;
  std::vector<double> values;
};

/// Runs `tasks` on `runner` and collects every unit's value from
/// on_result, in `tasks` order. A unit reported through on_unit_failure,
/// reported twice or never reported fails the running test, so a metric
/// that throws still fails its test. `stats` receives the run's counters.
inline std::vector<CellValues> CollectValues(
    const BatchRunner& runner, const Graph& g, const std::string& dataset,
    const std::vector<BatchTask>& tasks, uint64_t master_seed,
    const std::vector<BatchMetric>& metrics, BatchRunStats* stats = nullptr) {
  std::vector<CellValues> out(tasks.size());
  std::vector<std::vector<int>> reported(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    out[i].task = tasks[i];
    const size_t units =
        tasks[i].metrics.empty() ? metrics.size() : tasks[i].metrics.size();
    out[i].values.assign(units, 0.0);
    reported[i].assign(units, 0);
  }
  std::mutex mu;
  auto on_result = [&](const BatchTask& task, double achieved, uint32_t m,
                       double value) {
    const size_t i = static_cast<size_t>(&task - tasks.data());
    size_t slot = m;
    if (!task.metrics.empty()) {
      slot = static_cast<size_t>(
          std::find(task.metrics.begin(), task.metrics.end(), m) -
          task.metrics.begin());
    }
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_LT(i, tasks.size());
    ASSERT_LT(slot, out[i].values.size()) << "unrequested metric " << m;
    ++reported[i][slot];
    out[i].achieved_prune_rate = achieved;
    out[i].values[slot] = value;
  };
  FaultPolicy faults;
  faults.on_unit_failure = [&](const BatchTask& task, uint32_t m,
                               const std::string& error_class,
                               const std::string& message, int attempts) {
    std::lock_guard<std::mutex> lock(mu);
    ADD_FAILURE() << "unit " << task.sparsifier << " rate "
                  << task.prune_rate << " run " << task.run << " metric " << m
                  << " failed (" << error_class << ", " << attempts
                  << " attempts): " << message;
  };
  BatchRunStats run = runner.RunTasksMulti(g, dataset, tasks, master_seed,
                                           metrics, on_result, faults);
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (size_t slot = 0; slot < reported[i].size(); ++slot) {
      EXPECT_EQ(reported[i][slot], 1)
          << "task " << i << " slot " << slot << " reported "
          << reported[i][slot] << " times";
    }
  }
  if (stats != nullptr) *stats = run;
  return out;
}

}  // namespace sparsify

#endif  // SPARSIFY_TESTS_TEST_UTIL_H_
