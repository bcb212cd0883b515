// Scalar equation solvers.
//
// brent() finds a bracketed root; fixed_point() runs the damped iteration
// used by the Ceff <-> cell-table loops of Sections 4.1/4.2.
//
// When `budget` is set, fixed_point() calls ExecTracker::check() (deadline /
// cancellation) once per iteration.  Running out of max_iter is not an error:
// fixed_point returns converged = false and brent throws ConvergenceError.
#ifndef RLCEFF_UTIL_SOLVE_H
#define RLCEFF_UTIL_SOLVE_H

#include <functional>

#include "util/budget.h"

namespace rlceff::util {

// Root of f on [a, b]; f(a) and f(b) must have opposite signs.  Stops when
// the bracket is within 1e-12 (plus rounding) or |f| <= 1e-14; throws
// ConvergenceError after 200 iterations.
double brent(const std::function<double(double)>& f, double a, double b);

struct FixedPointOptions {
  double rel_tol = 1e-9;     // convergence on |x_new - x| / max(|x_new|, floor)
  double damping = 1.0;      // x <- x + damping * (g(x) - x)
  int max_iter = 100;
  double lower = -1e300;     // clamp applied after each update
  double upper = 1e300;
  ExecTracker* budget = nullptr;  // optional cooperative budget (see header)
};

struct FixedPointResult {
  double x = 0.0;
  int iterations = 0;
  bool converged = false;
};

// Damped fixed-point iteration x <- g(x) starting from x0, clamped to
// [lower, upper].  Returns the last iterate with a convergence flag rather
// than throwing: Ceff loops treat slow convergence as "use the last value".
FixedPointResult fixed_point(const std::function<double(double)>& g, double x0,
                             const FixedPointOptions& opt = {});

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_SOLVE_H
