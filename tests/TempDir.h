//===- tests/TempDir.h - One private temp directory per test ----------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every test that touches the filesystem works inside a TempDir: a
/// directory mkdtemp creates under temp_directory_path(), named after
/// the running test, and removed again when the TempDir goes out of
/// scope. The random suffix makes the name unique per process, so two
/// checkouts running ctest on one host (or two ctest -j shards) never
/// delete each other's directories mid-test.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_TESTS_TEMPDIR_H
#define CUASMRL_TESTS_TEMPDIR_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace cuasmrl {
namespace test {

class TempDir {
public:
  /// Creates `<tmp>/<Suite>.<Test>-XXXXXX` for the running test. Fails
  /// the test (by throwing) when the directory cannot be created.
  TempDir() {
    std::string Prefix = "cuasmrl";
    if (const ::testing::TestInfo *Info =
            ::testing::UnitTest::GetInstance()->current_test_info())
      Prefix = std::string(Info->test_suite_name()) + "." + Info->name();
    // Parameterized names carry '/'; keep the prefix one path component.
    for (char &C : Prefix) {
      bool Safe = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                  (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
      if (!Safe)
        C = '_';
    }
    std::string Template =
        (std::filesystem::temp_directory_path() / (Prefix + "-XXXXXX"))
            .string();
    if (!::mkdtemp(Template.data()))
      throw std::runtime_error("mkdtemp failed for " + Template);
    Path = Template;
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  /// The directory itself: it exists and starts empty.
  const std::string &path() const { return Path; }

  /// \p Name inside the directory, not created — for a store that must
  /// start from a missing directory.
  std::string sub(const std::string &Name) const { return Path + "/" + Name; }

private:
  std::string Path;
};

} // namespace test
} // namespace cuasmrl

#endif // CUASMRL_TESTS_TEMPDIR_H
