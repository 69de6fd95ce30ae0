// Per-test scratch file paths.
//
// testing::TempDir() is one directory shared by every test process, so
// two tests that pick the same file name race when ctest runs them in
// parallel (ctest -j).  UniqueTempPath folds the running test's suite
// and name plus the process id into the file name, so concurrently
// running tests never share a file.

#ifndef CBVLINK_TESTS_TEST_PATHS_H_
#define CBVLINK_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

namespace cbvlink {

/// A path under testing::TempDir() that ends in `name` and is unique to
/// the running test and process.  Any stale file at the path is removed,
/// so every test starts from a missing file.
inline std::string UniqueTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  // Parameterized suites and tests carry '/' in their names.
  std::replace(test.begin(), test.end(), '/', '_');
  const std::string path = testing::TempDir() + "/" + test + "." +
                           std::to_string(::getpid()) + "." + name;
  std::remove(path.c_str());
  return path;
}

}  // namespace cbvlink

#endif  // CBVLINK_TESTS_TEST_PATHS_H_
