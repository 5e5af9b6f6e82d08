// Per-test scratch directories.
//
// ctest runs every TEST as its own process, several at once under -j, so a
// fixed directory name under the system temp dir would be shared between
// concurrently running tests: one test's cleanup deletes another's files.
// The `no-fixed-temp-dir` lint rule (tools/lint.py) keeps every test on
// this helper.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace mts::test {

/// A fresh, empty directory owned by the running test,
/// <temp>/mts_<suite>_<test>_<pid>, removed with everything in it when the
/// object goes away.  Unique across concurrently running test processes.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "mts_";
    if (info != nullptr) name += std::string(info->test_suite_name()) + "_" + info->name() + "_";
    name += std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized test names
    // mts-lint: allow(no-fixed-temp-dir) the one place a test names its directory
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;  // best-effort cleanup; never throw from here
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  std::filesystem::path operator/(const std::filesystem::path& child) const {
    return path_ / child;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace mts::test
