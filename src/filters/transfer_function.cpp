#include "filters/transfer_function.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <utility>

#include "support/assert.hpp"

namespace psdacc::filt {

TransferFunction::TransferFunction(std::vector<double> b)
    : b_(std::move(b)), a_{1.0} {
  PSDACC_EXPECTS(!b_.empty());
}

TransferFunction::TransferFunction(std::vector<double> b,
                                   std::vector<double> a)
    : b_(std::move(b)), a_(std::move(a)) {
  PSDACC_EXPECTS(!b_.empty());
  PSDACC_EXPECTS(!a_.empty());
  PSDACC_EXPECTS(a_[0] != 0.0);
  if (a_[0] != 1.0) {
    const double inv = 1.0 / a_[0];
    for (auto& c : b_) c *= inv;
    for (auto& c : a_) c *= inv;
    a_[0] = 1.0;
  }
}

TransferFunction TransferFunction::identity() {
  return TransferFunction(std::vector<double>{1.0});
}

TransferFunction TransferFunction::gain(double g) {
  return TransferFunction(std::vector<double>{g});
}

TransferFunction TransferFunction::delay(std::size_t k) {
  std::vector<double> b(k + 1, 0.0);
  b[k] = 1.0;
  return TransferFunction(std::move(b));
}

namespace {

cplx eval_poly_z_inverse(std::span<const double> coeffs, cplx z_inv) {
  // Horner in z^-1.
  cplx acc(0.0, 0.0);
  for (std::size_t i = coeffs.size(); i-- > 0;)
    acc = acc * z_inv + coeffs[i];
  return acc;
}

// z^-1 = e^{-j 2 pi f}: the one expression both response() and the grid
// tables use, so grid bins equal per-bin response() calls bit for bit.
cplx unit_circle_z_inverse(double normalized_freq) {
  const double w = 2.0 * std::numbers::pi * normalized_freq;
  return cplx(std::cos(w), -std::sin(w));
}

// Per-thread cache of z^-1 on the n-point grid, most recently used first.
// Sweeps build many grids of one size (every block of an SFG at one
// N_PSD), so caching turns n cos/sin pairs per grid into one table per
// size and thread. Thread-local like dsp::PlanCache: lookups need no
// lock, and the cap keeps a thread sweeping many sizes bounded.
const std::vector<cplx>& unit_circle_grid(std::size_t n) {
  constexpr std::size_t kCapacity = 8;
  thread_local std::vector<std::pair<std::size_t, std::vector<cplx>>> cache;
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (cache[i].first != n) continue;
    std::rotate(cache.begin(), cache.begin() + static_cast<std::ptrdiff_t>(i),
                cache.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    return cache.front().second;
  }
  std::vector<cplx> table(n);
  for (std::size_t k = 0; k < n; ++k)
    table[k] = unit_circle_z_inverse(static_cast<double>(k) /
                                     static_cast<double>(n));
  if (cache.size() == kCapacity) cache.pop_back();
  cache.emplace(cache.begin(), n, std::move(table));
  return cache.front().second;
}

}  // namespace

cplx TransferFunction::response(double normalized_freq) const {
  const cplx z_inv = unit_circle_z_inverse(normalized_freq);
  return eval_poly_z_inverse(b_, z_inv) / eval_poly_z_inverse(a_, z_inv);
}

double TransferFunction::power_response(double normalized_freq) const {
  return std::norm(response(normalized_freq));
}

std::vector<cplx> TransferFunction::response_grid(std::size_t n) const {
  PSDACC_EXPECTS(n >= 1);
  const std::vector<cplx>& z_inv = unit_circle_grid(n);
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k)
    out[k] = eval_poly_z_inverse(b_, z_inv[k]) /
             eval_poly_z_inverse(a_, z_inv[k]);
  return out;
}

std::vector<double> TransferFunction::power_response_grid(
    std::size_t n) const {
  const auto grid = response_grid(n);
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = std::norm(grid[k]);
  return out;
}

double TransferFunction::dc_gain() const { return response(0.0).real(); }

std::vector<double> TransferFunction::impulse_response(std::size_t n) const {
  std::vector<double> h(n, 0.0);
  // Run the difference equation with x = delta.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = i < b_.size() ? b_[i] : 0.0;
    for (std::size_t j = 1; j < a_.size() && j <= i; ++j)
      acc -= a_[j] * h[i - j];
    h[i] = acc;
  }
  return h;
}

double TransferFunction::power_gain(std::size_t n) const {
  const std::size_t len = is_fir() ? b_.size() : n;
  const auto h = impulse_response(len);
  double acc = 0.0;
  for (double v : h) acc += v * v;
  return acc;
}

bool TransferFunction::is_stable() const {
  if (is_fir()) return true;
  // Schur-Cohn recursion on the denominator: stable iff every reflection
  // coefficient |k_m| < 1.
  std::vector<double> a = a_;
  while (a.size() > 1) {
    const double k = a.back();
    if (std::abs(k) >= 1.0) return false;
    const double denom = 1.0 - k * k;
    std::vector<double> next(a.size() - 1);
    for (std::size_t i = 0; i < next.size(); ++i)
      next[i] = (a[i] - k * a[a.size() - 1 - i]) / denom;
    a = std::move(next);
  }
  return true;
}

TransferFunction TransferFunction::cascade(
    const TransferFunction& other) const {
  return TransferFunction(poly_multiply(b_, other.b_),
                          poly_multiply(a_, other.a_));
}

TransferFunction TransferFunction::add(const TransferFunction& other) const {
  // b1/a1 + b2/a2 = (b1 a2 + b2 a1) / (a1 a2).
  auto num1 = poly_multiply(b_, other.a_);
  const auto num2 = poly_multiply(other.b_, a_);
  num1.resize(std::max(num1.size(), num2.size()), 0.0);
  for (std::size_t i = 0; i < num2.size(); ++i) num1[i] += num2[i];
  return TransferFunction(std::move(num1), poly_multiply(a_, other.a_));
}

TransferFunction TransferFunction::feedback(
    const TransferFunction& loop) const {
  // H = G / (1 + G L) with G = this, L = loop.
  // Numerator: b_g * a_l ; denominator: a_g * a_l + b_g * b_l.
  auto num = poly_multiply(b_, loop.a_);
  auto den = poly_multiply(a_, loop.a_);
  const auto gb_lb = poly_multiply(b_, loop.b_);
  den.resize(std::max(den.size(), gb_lb.size()), 0.0);
  for (std::size_t i = 0; i < gb_lb.size(); ++i) den[i] += gb_lb[i];
  return TransferFunction(std::move(num), std::move(den));
}

std::vector<double> poly_multiply(std::span<const double> a,
                                  std::span<const double> b) {
  PSDACC_EXPECTS(!a.empty() && !b.empty());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  return out;
}

std::vector<double> poly_from_roots(std::span<const cplx> roots, double tol) {
  // Multiply out (1 - r z^-1) factors; accumulate in complex then check the
  // imaginary residue.
  std::vector<cplx> poly{cplx(1.0, 0.0)};
  for (const cplx& r : roots) {
    std::vector<cplx> next(poly.size() + 1, cplx(0.0, 0.0));
    for (std::size_t i = 0; i < poly.size(); ++i) {
      next[i] += poly[i];
      next[i + 1] -= poly[i] * r;
    }
    poly = std::move(next);
  }
  std::vector<double> out(poly.size());
  for (std::size_t i = 0; i < poly.size(); ++i) {
    PSDACC_ENSURES(std::abs(poly[i].imag()) <=
                   tol * (1.0 + std::abs(poly[i].real())));
    out[i] = poly[i].real();
  }
  return out;
}

}  // namespace psdacc::filt
