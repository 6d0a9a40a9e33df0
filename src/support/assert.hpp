// Assertion and error-reporting primitives for the APCC library.
//
// Two severities:
//   APCC_ASSERT  -- internal invariant; violation is a library bug.
//   APCC_CHECK   -- precondition on caller-supplied data; violation is a
//                   usage error (bad program, malformed stream, ...).
//
// Both throw (AssertionError / CheckError) rather than abort so that the
// simulator and the test suite can exercise failure paths.
#pragma once

#include <stdexcept>
#include <string>

namespace apcc {

/// Thrown when an internal invariant of the library is violated.
class AssertionError : public std::logic_error {
 public:
  explicit AssertionError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when caller-supplied data violates a documented precondition.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);
[[noreturn]] void check_fail(const char* expr, const char* file, int line,
                             const std::string& msg);
}  // namespace detail

}  // namespace apcc

#define APCC_ASSERT(expr, msg)                                          \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::apcc::detail::assert_fail(#expr, __FILE__, __LINE__, (msg));    \
    }                                                                   \
  } while (false)

#define APCC_CHECK(expr, msg)                                           \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::apcc::detail::check_fail(#expr, __FILE__, __LINE__, (msg));     \
    }                                                                   \
  } while (false)

// Unconditional failures, rendered as APCC_ASSERT(false, msg) /
// APCC_CHECK(false, msg) are, for the end of a non-void function whose
// every valid path returned earlier. The [[noreturn]] call is not
// behind a condition, so an -O0 build does not warn that control
// reaches the end of the function (-Wreturn-type).
#define APCC_ASSERT_FAIL(msg) \
  ::apcc::detail::assert_fail("false", __FILE__, __LINE__, (msg))
#define APCC_CHECK_FAIL(msg) \
  ::apcc::detail::check_fail("false", __FILE__, __LINE__, (msg))
