#include "util/integrate.h"

#include <cmath>

#include "util/error.h"

namespace rlceff::util {

namespace {

constexpr double kRelTol = 1e-10;
constexpr double kAbsTol = 1e-18;
constexpr int kMaxDepth = 40;

double simpson(double fa, double fm, double fb, double h) {
  return h / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive(const std::function<double(double)>& f, double a, double b, double fa,
                double fm, double fb, double whole, int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson(fa, flm, fm, m - a);
  const double right = simpson(fm, frm, fb, b - m);
  const double delta = left + right - whole;
  const double tol = std::max(kAbsTol, kRelTol * std::abs(left + right));
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return adaptive(f, a, m, fa, flm, fm, left, depth - 1) +
         adaptive(f, m, b, fm, frm, fb, right, depth - 1);
}

}  // namespace

double integrate(const std::function<double(double)>& f, double a, double b) {
  if (a == b) return 0.0;
  const double fa = f(a);
  const double fb = f(b);
  const double fm = f(0.5 * (a + b));
  const double whole = simpson(fa, fm, fb, b - a);
  return adaptive(f, a, b, fa, fm, fb, whole, kMaxDepth);
}

}  // namespace rlceff::util
