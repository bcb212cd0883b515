// Error handling for the rlceff library.
//
// All recoverable failures (bad arguments, non-convergence, singular systems)
// are reported by throwing Error.  ensure() is the library-wide precondition
// check; it captures the call site via std::source_location so no macro is
// needed.
#ifndef RLCEFF_UTIL_ERROR_H
#define RLCEFF_UTIL_ERROR_H

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rlceff {

// Base exception for every failure the library raises on purpose.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Raised when an iterative method fails to converge within its iteration cap.
class ConvergenceError : public Error {
public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

// Raised when a linear system is singular (or numerically so).
class SingularMatrixError : public Error {
public:
  explicit SingularMatrixError(const std::string& what) : Error(what) {}
};

// Throws Error annotated with the caller's location when cond is false.
inline void ensure(bool cond, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!cond) {
    throw Error(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
                ": " + std::string(message));
  }
}

}  // namespace rlceff

#endif  // RLCEFF_UTIL_ERROR_H
