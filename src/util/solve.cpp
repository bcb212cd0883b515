#include "util/solve.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rlceff::util {

namespace {

constexpr double kBrentXTol = 1e-12;
constexpr double kBrentFTol = 1e-14;
constexpr int kBrentMaxIter = 200;

}  // namespace

double brent(const std::function<double(double)>& f, double a, double b) {
  double fa = f(a);
  double fb = f(b);
  ensure(fa * fb <= 0.0, "brent: root not bracketed");
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;

  double c = a;
  double fc = fa;
  double d = b - a;
  double e = d;

  for (int iter = 0; iter < kBrentMaxIter; ++iter) {
    if (std::abs(fc) < std::abs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol = 2.0 * std::numeric_limits<double>::epsilon() * std::abs(b) +
                       0.5 * kBrentXTol;
    const double m = 0.5 * (c - b);
    if (std::abs(m) <= tol || std::abs(fb) <= kBrentFTol) return b;

    if (std::abs(e) >= tol && std::abs(fa) > std::abs(fb)) {
      // Inverse quadratic interpolation (secant when only two points differ).
      const double s = fb / fa;
      double p = 0.0;
      double q = 0.0;
      if (a == c) {
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {
        const double qa = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * m * qa * (qa - r) - (b - a) * (r - 1.0));
        q = (qa - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::abs(p);
      if (2.0 * p < std::min(3.0 * m * q - std::abs(tol * q), std::abs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = m;
        e = m;
      }
    } else {
      d = m;
      e = m;
    }
    a = b;
    fa = fb;
    b += (std::abs(d) > tol) ? d : (m > 0.0 ? tol : -tol);
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
  }
  throw ConvergenceError("brent: too many iterations");
}

FixedPointResult fixed_point(const std::function<double(double)>& g, double x0,
                             const FixedPointOptions& opt) {
  FixedPointResult res;
  double x = std::clamp(x0, opt.lower, opt.upper);
  for (int iter = 1; iter <= opt.max_iter; ++iter) {
    if (opt.budget) opt.budget->check("fixed_point");
    const double gx = g(x);
    double x_new = x + opt.damping * (gx - x);
    x_new = std::clamp(x_new, opt.lower, opt.upper);
    res.iterations = iter;
    const double scale = std::max(std::abs(x_new), 1e-300);
    if (std::abs(x_new - x) / scale < opt.rel_tol) {
      res.x = x_new;
      res.converged = true;
      return res;
    }
    x = x_new;
  }
  res.x = x;
  res.converged = false;
  return res;
}

}  // namespace rlceff::util
