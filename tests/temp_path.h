#ifndef MOC_TESTS_TEMP_PATH_H_
#define MOC_TESTS_TEMP_PATH_H_

/**
 * @file
 * Scratch paths for tests that touch the filesystem. `ctest -j` runs
 * every discovered test as its own process, in parallel, so a fixed name
 * under the temp directory is shared: one test's cleanup deletes another's
 * files mid-run. UniqueTempPath names the path after the running test and
 * the process id instead.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace moc {

/** `<tmp>/<stem>_<Suite>_<Test>_<pid>`, unique per running test process. */
inline std::filesystem::path
UniqueTempPath(const std::string& stem) {
    std::string name = stem;
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    name += '_';  // appended apart: GCC 12 -O3 false -Wrestrict on "_" + s
    name += std::to_string(::getpid());
    // Parameterized test names carry '/'.
    std::replace(name.begin(), name.end(), '/', '_');
    return std::filesystem::temp_directory_path() / name;
}

}  // namespace moc

#endif  // MOC_TESTS_TEMP_PATH_H_
