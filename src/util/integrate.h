// Numerical quadrature.
//
// The paper's Eq 5/7 charge integrals have closed forms (implemented in
// rlceff::core); adaptive Simpson is the independent cross-check used by the
// test suite and the fallback for arbitrary integrands.
#ifndef RLCEFF_UTIL_INTEGRATE_H
#define RLCEFF_UTIL_INTEGRATE_H

#include <functional>

namespace rlceff::util {

// Adaptive Simpson integration of f over [a, b]; each panel is split until
// its Richardson error is within max(1e-18, 1e-10 * |panel|), at most 40
// levels deep.
double integrate(const std::function<double(double)>& f, double a, double b);

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_INTEGRATE_H
