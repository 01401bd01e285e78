/**
 * @file
 * Helpers shared by the unit-test files.
 */

#ifndef EVE_TESTS_TEST_UTIL_HH
#define EVE_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace eve::test
{

/**
 * This process's scratch root under the gtest temp dir. The process
 * id in its name keeps two suite runs on one host from wiping each
 * other's files; the root is removed when the process exits.
 */
inline const std::filesystem::path&
scratchRoot()
{
    struct Root
    {
        const pid_t owner = ::getpid();
        const std::filesystem::path path =
            std::filesystem::path(::testing::TempDir()) /
            ("eve-test-" + std::to_string(owner));

        ~Root()
        {
            if (::getpid() != owner)
                return;
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Root root;
    return root.path;
}

/** A fresh, empty directory @p name under scratchRoot(). */
inline std::string
freshDir(const std::string& name)
{
    const std::filesystem::path dir = scratchRoot() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

} // namespace eve::test

#endif // EVE_TESTS_TEST_UTIL_HH
