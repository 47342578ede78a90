// Per-test scratch file paths. ctest runs every gtest case in its own
// process, several at once, so a fixed file name would be shared by cases
// running side by side; naming the file after the running test and the
// process id keeps each case on its own file.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace groupfel::test_support {

/// `<temp dir>/groupfel_<Suite>.<Test>_<pid><suffix>` for the running test.
inline std::string temp_path(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized tests
  return (std::filesystem::temp_directory_path() /
          ("groupfel_" + name + "_" + std::to_string(::getpid()) + suffix))
      .string();
}

}  // namespace groupfel::test_support
