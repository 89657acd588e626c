// Rational transfer functions H(z) = B(z^-1) / A(z^-1) in negative powers
// of z, the common DSP convention: B(z^-1) = b0 + b1 z^-1 + ..., a0 == 1.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace psdacc::filt {

using cplx = std::complex<double>;

class TransferFunction {
 public:
  /// FIR constructor (A = {1}).
  explicit TransferFunction(std::vector<double> b);
  /// IIR constructor; `a` is normalized so a[0] == 1 (asserted a[0] != 0).
  TransferFunction(std::vector<double> b, std::vector<double> a);

  /// Identity system H(z) = 1.
  static TransferFunction identity();
  /// Pure gain H(z) = g.
  static TransferFunction gain(double g);
  /// Pure delay H(z) = z^-k.
  static TransferFunction delay(std::size_t k);

  const std::vector<double>& numerator() const { return b_; }
  const std::vector<double>& denominator() const { return a_; }
  bool is_fir() const { return a_.size() == 1; }

  /// Complex response at normalized frequency f in cycles/sample
  /// (H evaluated at z = e^{j 2 pi f}).
  cplx response(double normalized_freq) const;
  /// |H|^2 at normalized frequency f.
  double power_response(double normalized_freq) const;
  /// Complex response sampled on the n-point FFT grid f_k = k/n; equals
  /// response(k/n) bit for bit. z^-1 comes from a per-thread table cached
  /// per n (a few recent sizes), so a grid costs no trigonometry once its
  /// size is warm on the calling thread.
  std::vector<cplx> response_grid(std::size_t n) const;
  /// |H|^2 sampled on the n-point FFT grid.
  std::vector<double> power_response_grid(std::size_t n) const;
  /// DC gain H(1).
  double dc_gain() const;

  /// First n samples of the impulse response.
  std::vector<double> impulse_response(std::size_t n) const;
  /// Power gain sum_k h[k]^2 approximated from `n` impulse-response samples
  /// (exact for FIR with n >= taps).
  double power_gain(std::size_t n = 4096) const;

  /// True iff all poles are strictly inside the unit circle (Schur-Cohn
  /// test on the denominator). FIR systems are always stable.
  bool is_stable() const;

  /// Exact coefficient equality (serialization round-trip contract).
  bool operator==(const TransferFunction&) const = default;

  /// Series connection: this followed by other (polynomial products).
  TransferFunction cascade(const TransferFunction& other) const;
  /// Parallel connection: this + other.
  TransferFunction add(const TransferFunction& other) const;
  /// Negative-feedback closed loop: this / (1 + this * other).
  /// With other == identity and loop gain g, use feedback(gain(g)).
  TransferFunction feedback(const TransferFunction& loop) const;

 private:
  std::vector<double> b_;
  std::vector<double> a_;
};

/// Polynomial product c = a * b (coefficient convolution).
std::vector<double> poly_multiply(std::span<const double> a,
                                  std::span<const double> b);

/// Real-coefficient polynomial from complex roots (roots must come in
/// conjugate pairs or be real up to `tol`); returns monic coefficients in
/// ascending-power-of-z^-1 order given roots of A(z^-1) as z-plane roots.
std::vector<double> poly_from_roots(std::span<const cplx> roots,
                                    double tol = 1e-9);

}  // namespace psdacc::filt
