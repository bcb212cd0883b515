// Status-or-value results for the service-facing api::Engine.
//
// The core library reports failures by throwing (util/error.h); a batch
// facade cannot let one bad scenario unwind N-1 good ones, so the Engine
// catches at the slot boundary and returns Outcome<T>: either a value, or a
// structured ErrorInfo carrying a stable error code, the offending
// scenario's label, and the exception message.  Callers branch on ok() and
// never need the library's exception taxonomy; callers that *want*
// exceptions call value(), which rethrows a labeled Error for failed slots.
#ifndef RLCEFF_API_OUTCOME_H
#define RLCEFF_API_OUTCOME_H

#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lint/diagnostic.h"
#include "util/error.h"

namespace rlceff::api {

// Stable failure classification, mapped from the library's exception types.
enum class ErrorCode {
  invalid_request,      // rejected before reaching the core flow (bad net/slew/size)
  convergence_failure,  // a Ceff fixed point, Newton loop, or AWE fit diverged
  singular_system,      // an MNA or moment-fit system was (numerically) singular
  model_error,          // any other failure the library raised on purpose
  internal_error,       // a non-rlceff exception escaped a scenario
  deadline_exceeded,    // wall-clock budget expired or the slot was cancelled
                        // (DeadlineError / CancelledError, util/budget.h)
  resource_exhausted,   // the transient step budget ran out (BudgetError)
  lint_rejected,        // the admission screen (Request::lint.screen) found
                        // diagnostics at or above the configured severity;
                        // the slot never reached a solver.  Never degradable.
};

const char* to_string(ErrorCode code);

struct ErrorInfo {
  ErrorCode code = ErrorCode::internal_error;
  std::string scenario;  // Request::label of the failing slot
  std::string message;   // human-readable cause (the exception's what())
  double elapsed_s = 0.0;  // wall time the slot spent before failing (set by
                           // the Engine; deadline slots prove promptness here)
};

// Raised by the Engine for requests it rejects up front; maps to
// ErrorCode::invalid_request (every other Error maps by its concrete type).
class InvalidRequestError : public Error {
public:
  explicit InvalidRequestError(const std::string& what) : Error(what) {}
};

// Raised by the Engine's admission screen; maps to ErrorCode::lint_rejected
// and carries the full diagnostic list so callers can render every finding,
// not just the first.
class LintRejectedError : public Error {
public:
  LintRejectedError(const std::string& what, std::vector<lint::Diagnostic> diagnostics)
      : Error(what), diagnostics_(std::move(diagnostics)) {}
  const std::vector<lint::Diagnostic>& diagnostics() const { return diagnostics_; }

private:
  std::vector<lint::Diagnostic> diagnostics_;
};

// Classifies a captured exception onto the ErrorCode taxonomy.
ErrorInfo describe_failure(std::exception_ptr error, std::string scenario);

template <class T>
class Outcome {
public:
  Outcome(T value) : value_(std::move(value)) {}
  Outcome(ErrorInfo error) : error_(std::move(error)) {}

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  // Unwraps the value; throws a labeled Error on failed outcomes so an
  // accidental unwrap is loud instead of reading garbage.
  const T& value() const& {
    require_ok();
    return *value_;
  }
  T& value() & {
    require_ok();
    return *value_;
  }
  T&& value() && {
    require_ok();
    return std::move(*value_);
  }

  // Only meaningful on failed outcomes.
  const ErrorInfo& error() const {
    ensure(!ok(), "Outcome: error() called on a successful outcome");
    return error_;
  }

private:
  void require_ok() const {
    if (!ok()) {
      throw Error(std::string("Outcome: value() on failed scenario '") +
                  error_.scenario + "' [" + to_string(error_.code) +
                  "]: " + error_.message);
    }
  }

  std::optional<T> value_;
  ErrorInfo error_;
};

}  // namespace rlceff::api

#endif  // RLCEFF_API_OUTCOME_H
