#include "dsp/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/simd.hpp"
#include "support/assert.hpp"

namespace psdacc::dsp::kernels {

namespace {

using cplx = std::complex<double>;

// Shared sequential passes: the IIR feedback recurrence cannot vectorize
// (out[i] depends on out[i-1]), so both the scalar references and the SIMD
// entry points run these after their (scalar or vectorized) feedforward.
// Accumulation order matches the historical one-pass loop exactly: the
// b-taps were summed first (that sum is now out[i] on entry), then the
// a-taps subtracted in ascending j.
void iir_feedback(std::span<const double> a, std::vector<double>& y) {
  const std::size_t na = a.size();
  const std::size_t len = y.size();
  for (std::size_t i = 0; i < len; ++i) {
    double acc = y[i];
    const std::size_t ja = std::min(na, i);
    for (std::size_t j = 0; j < ja; ++j) acc -= a[j] * y[i - 1 - j];
    y[i] = acc;
  }
}

void iir_feedback_quantized(std::span<const double> a,
                            const fxp::QuantizerKernel& q,
                            std::vector<double>& y) {
  const std::size_t na = a.size();
  const std::size_t len = y.size();
  for (std::size_t i = 0; i < len; ++i) {
    double acc = y[i];
    const std::size_t ja = std::min(na, i);
    // Feedback reads the already-quantized outputs (direct form I).
    for (std::size_t j = 0; j < ja; ++j) acc -= a[j] * y[i - 1 - j];
    y[i] = q(acc);
  }
}

}  // namespace

std::size_t width() noexcept { return simd::kWidth; }

std::string_view active_isa() noexcept {
  switch (simd::kWidth) {
    case 2:
      return "vec128";
    case 4:
      return "vec256";
    case 8:
      return "vec512";
    default:
      return "scalar";
  }
}

// ---------------------------------------------------------------------------
// Scalar references (always compiled: the parity oracle and speedup
// baseline, and the public entry points of -DPSDACC_SIMD=OFF builds).
// ---------------------------------------------------------------------------

namespace scalar {

void fir_apply(std::span<const double> b, std::span<const double> x,
               std::vector<double>& out) {
  const std::size_t len = x.size();
  const std::size_t nb = b.size();
  out.resize(len);
  const std::size_t head = std::min(len, nb > 0 ? nb - 1 : 0);
  for (std::size_t i = 0; i < head; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j <= i; ++j) acc += b[j] * x[i - j];
    out[i] = acc;
  }
  for (std::size_t i = head; i < len; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < nb; ++j) acc += b[j] * x[i - j];
    out[i] = acc;
  }
}

void iir_df2(std::span<const double> b, std::span<const double> a,
             std::span<const double> x, std::vector<double>& out) {
  fir_apply(b, x, out);
  iir_feedback(a, out);
}

void iir_df1_quantized(std::span<const double> b, std::span<const double> a,
                       const fxp::QuantizerKernel& q,
                       std::span<const double> x, std::vector<double>& out) {
  fir_apply(b, x, out);
  iir_feedback_quantized(a, q, out);
}

void quantize_span(const fxp::QuantizerKernel& q, std::span<const double> x,
                   std::span<double> out) {
  PSDACC_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = q(x[i]);
}

void window_apply(std::span<const double> x, std::span<const double> w,
                  std::span<double> out) {
  PSDACC_EXPECTS(x.size() == w.size());
  PSDACC_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * w[i];
}

void window_accumulate(std::span<double> acc, std::span<const cplx> spectrum,
                       double scale) {
  PSDACC_EXPECTS(acc.size() >= spectrum.size());
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    const double re = spectrum[k].real();
    const double im = spectrum[k].imag();
    acc[k] += (re * re + im * im) * scale;
  }
}

void complex_mul(std::span<double> xr, std::span<double> xi,
                 std::span<const double> yr, std::span<const double> yi) {
  PSDACC_EXPECTS(xr.size() == xi.size());
  PSDACC_EXPECTS(yr.size() >= xr.size() && yi.size() >= xr.size());
  for (std::size_t i = 0; i < xr.size(); ++i) {
    const double r = xr[i] * yr[i] - xi[i] * yi[i];
    const double m = xr[i] * yi[i] + xi[i] * yr[i];
    xr[i] = r;
    xi[i] = m;
  }
}

void split_complex(std::span<const cplx> x, std::span<double> re,
                   std::span<double> im) {
  PSDACC_EXPECTS(re.size() == x.size() && im.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
}

void merge_complex(std::span<const double> re, std::span<const double> im,
                   std::span<cplx> out) {
  PSDACC_EXPECTS(re.size() == out.size() && im.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = cplx(re[i], im[i]);
}

void scale(std::span<double> x, double s) {
  for (double& v : x) v *= s;
}

void butterfly(double* re, double* im, std::size_t half, const double* wr,
               const double* wi, bool conj_twiddles) {
  for (std::size_t k = 0; k < half; ++k) {
    const double wre = wr[k];
    const double wim = conj_twiddles ? -wi[k] : wi[k];
    const double vr = re[k + half];
    const double vi = im[k + half];
    const double tr = vr * wre - vi * wim;
    const double ti = vr * wim + vi * wre;
    const double ur = re[k];
    const double ui = im[k];
    re[k] = ur + tr;
    im[k] = ui + ti;
    re[k + half] = ur - tr;
    im[k + half] = ui - ti;
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// SIMD entry points. Each vectorizes across independent outputs with the
// per-lane operation order of its scalar reference (see header contract)
// and finishes with an explicit scalar tail loop.
// ---------------------------------------------------------------------------

#if PSDACC_SIMD_ENABLED
namespace {

constexpr std::size_t W = simd::kWidth;

}  // namespace
#endif

void fir_apply(std::span<const double> b, std::span<const double> x,
               std::vector<double>& out) {
#if !PSDACC_SIMD_ENABLED
  scalar::fir_apply(b, x, out);
#else
  const std::size_t len = x.size();
  const std::size_t nb = b.size();
  out.resize(len);
  const std::size_t head = std::min(len, nb > 0 ? nb - 1 : 0);
  for (std::size_t i = 0; i < head; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j <= i; ++j) acc += b[j] * x[i - j];
    out[i] = acc;
  }
  std::size_t i = head;
  // 2*W output samples at a time; every lane accumulates its own dot
  // product in ascending-j order, exactly like the scalar loop. The pair
  // of accumulators shares each tap broadcast and gives the CPU two
  // independent add chains to overlap (a single chain leaves it
  // latency-bound and barely ahead of scalar).
  for (; i + 2 * W <= len; i += 2 * W) {
    simd::VDouble acc0{};
    simd::VDouble acc1{};
    for (std::size_t j = 0; j < nb; ++j) {
      const simd::VDouble bj = simd::splat(b[j]);
      acc0 = acc0 + bj * simd::load(&x[i - j]);
      acc1 = acc1 + bj * simd::load(&x[i + W - j]);
    }
    simd::store(&out[i], acc0);
    simd::store(&out[i + W], acc1);
  }
  for (; i + W <= len; i += W) {
    simd::VDouble acc{};
    for (std::size_t j = 0; j < nb; ++j)
      acc = acc + simd::splat(b[j]) * simd::load(&x[i - j]);
    simd::store(&out[i], acc);
  }
  for (; i < len; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < nb; ++j) acc += b[j] * x[i - j];
    out[i] = acc;
  }
#endif
}

void iir_df2(std::span<const double> b, std::span<const double> a,
             std::span<const double> x, std::vector<double>& out) {
  fir_apply(b, x, out);
  iir_feedback(a, out);
}

void iir_df1_quantized(std::span<const double> b, std::span<const double> a,
                       const fxp::QuantizerKernel& q,
                       std::span<const double> x, std::vector<double>& out) {
  fir_apply(b, x, out);
  iir_feedback_quantized(a, q, out);
}

void quantize_span(const fxp::QuantizerKernel& q, std::span<const double> x,
                   std::span<double> out) {
#if !PSDACC_SIMD_ENABLED
  scalar::quantize_span(q, x, out);
#else
  PSDACC_EXPECTS(out.size() == x.size());
  const simd::VDouble vinv = simd::splat(q.inv_step());
  const simd::VDouble vstep = simd::splat(q.step());
  const simd::VDouble vlo = simd::splat(q.lo());
  const simd::VDouble vhi = simd::splat(q.hi());
  const simd::VDouble vlim = simd::splat(simd::kExactFloorBound);
  const simd::VDouble vhalf = simd::splat(0.5);
  const simd::VDouble vone = simd::splat(1.0);
  const fxp::RoundingMode mode = q.rounding();
  const bool saturate = q.overflow() == fxp::OverflowMode::kSaturate;

  // Scaled value -> rounded unit count, per lane, in the exact-floor
  // domain. Every branch reproduces the scalar kernel's arithmetic
  // lane-wise, including the sign of zero results.
  const auto units_for = [&](simd::VDouble scaled) -> simd::VDouble {
    switch (mode) {
      case fxp::RoundingMode::kTruncate:
        return simd::floor_small(scaled);
      case fxp::RoundingMode::kRoundNearest:
        return simd::floor_small(scaled + vhalf);
      case fxp::RoundingMode::kConvergent: {
        const simd::VDouble fl = simd::floor_small(scaled);
        const simd::VDouble frac = scaled - fl;
        const simd::VMask m_up = frac > vhalf;
        // fl is odd iff fl/2 is not an integer; the halves are < 2^50 so
        // the round-trip test is exact and stays in double lanes.
        const simd::VDouble half_fl = fl * vhalf;
        const simd::VMask m_odd =
            simd::round_even_small(half_fl) != half_fl;
        const simd::VMask m_tie = (frac == vhalf) & m_odd;
        // Select (not add) so untouched lanes keep fl exactly, -0.0
        // included.
        return simd::select(m_up | m_tie, fl + vone, fl);
      }
    }
    return simd::VDouble{};  // unreachable
  };

  // Saturation. When the range straddles zero (every signed format) a
  // plain min/max clamp is bit-identical to the scalar kernel's branches:
  // out-of-range lanes take lo_/hi_'s own bits, equal nonzero doubles
  // share one bit pattern, and ±0.0 lanes are strictly inside the range
  // so the compares pass them through untouched. Only a range touching
  // zero (an unsigned format's lo_ == 0.0, where scalar keeps a -0.0
  // result that max() would rewrite to +0.0) needs the slower
  // select-based form that mirrors the scalar branch structure exactly.
  const bool fast_clamp = q.lo() < 0.0 && q.hi() > 0.0;
  const auto saturate_res = [&](simd::VDouble res) -> simd::VDouble {
    if (fast_clamp) return simd::min(simd::max(res, vlo), vhi);
    const simd::VMask in_range = (res >= vlo) & (res <= vhi);
    return simd::select(in_range, res,
                        simd::select(res < vlo, vlo, vhi));
  };

  std::size_t i = 0;
  // Two W-lane chunks per iteration, sharing one domain-guard branch;
  // the independent chains overlap the per-chunk rounding latency.
  for (; i + 2 * W <= x.size(); i += 2 * W) {
    const simd::VDouble s0 = simd::load(&x[i]) * vinv;
    const simd::VDouble s1 = simd::load(&x[i + W]) * vinv;
    // Non-finite lanes fail the compare; huge lanes sit outside the
    // exact-floor domain. Either sends the whole pair scalar.
    if (!simd::all_of((simd::abs(s0) < vlim) & (simd::abs(s1) < vlim))) {
      for (std::size_t l = 0; l < 2 * W; ++l) out[i + l] = q(x[i + l]);
      continue;
    }
    const simd::VDouble r0 = units_for(s0) * vstep;
    const simd::VDouble r1 = units_for(s1) * vstep;
    if (saturate) {
      simd::store(&out[i], saturate_res(r0));
      simd::store(&out[i + W], saturate_res(r1));
    } else if (simd::all_of((r0 >= vlo) & (r0 <= vhi) & (r1 >= vlo) &
                            (r1 <= vhi))) {
      simd::store(&out[i], r0);
      simd::store(&out[i + W], r1);
    } else {
      // Wrap boundary traffic: rare, and fmod-based wrapping is not worth
      // re-deriving lane-wise — replay the offending pair through the
      // scalar kernel for exact parity.
      for (std::size_t l = 0; l < 2 * W; ++l) out[i + l] = q(x[i + l]);
    }
  }
  for (; i < x.size(); ++i) out[i] = q(x[i]);
#endif
}

void window_apply(std::span<const double> x, std::span<const double> w,
                  std::span<double> out) {
#if !PSDACC_SIMD_ENABLED
  scalar::window_apply(x, w, out);
#else
  PSDACC_EXPECTS(x.size() == w.size());
  PSDACC_EXPECTS(out.size() == x.size());
  std::size_t i = 0;
  for (; i + W <= x.size(); i += W)
    simd::store(&out[i], simd::load(&x[i]) * simd::load(&w[i]));
  for (; i < x.size(); ++i) out[i] = x[i] * w[i];
#endif
}

void window_accumulate(std::span<double> acc, std::span<const cplx> spectrum,
                       double scale) {
#if !PSDACC_SIMD_ENABLED
  scalar::window_accumulate(acc, spectrum, scale);
#else
  PSDACC_EXPECTS(acc.size() >= spectrum.size());
  const double* s = reinterpret_cast<const double*>(spectrum.data());
  const simd::VDouble vscale = simd::splat(scale);
  std::size_t k = 0;
  for (; k + W <= spectrum.size(); k += W) {
    simd::VDouble re, im;
    simd::deinterleave(simd::load(s + 2 * k), simd::load(s + 2 * k + W), re,
                       im);
    simd::store(&acc[k],
                simd::load(&acc[k]) + (re * re + im * im) * vscale);
  }
  for (; k < spectrum.size(); ++k) {
    const double re = spectrum[k].real();
    const double im = spectrum[k].imag();
    acc[k] += (re * re + im * im) * scale;
  }
#endif
}

void complex_mul(std::span<double> xr, std::span<double> xi,
                 std::span<const double> yr, std::span<const double> yi) {
#if !PSDACC_SIMD_ENABLED
  scalar::complex_mul(xr, xi, yr, yi);
#else
  PSDACC_EXPECTS(xr.size() == xi.size());
  PSDACC_EXPECTS(yr.size() >= xr.size() && yi.size() >= xr.size());
  std::size_t i = 0;
  for (; i + W <= xr.size(); i += W) {
    const simd::VDouble ar = simd::load(&xr[i]);
    const simd::VDouble ai = simd::load(&xi[i]);
    const simd::VDouble br = simd::load(&yr[i]);
    const simd::VDouble bi = simd::load(&yi[i]);
    simd::store(&xr[i], ar * br - ai * bi);
    simd::store(&xi[i], ar * bi + ai * br);
  }
  for (; i < xr.size(); ++i) {
    const double r = xr[i] * yr[i] - xi[i] * yi[i];
    const double m = xr[i] * yi[i] + xi[i] * yr[i];
    xr[i] = r;
    xi[i] = m;
  }
#endif
}

void split_complex(std::span<const cplx> x, std::span<double> re,
                   std::span<double> im) {
#if !PSDACC_SIMD_ENABLED
  scalar::split_complex(x, re, im);
#else
  PSDACC_EXPECTS(re.size() == x.size() && im.size() == x.size());
  const double* xd = reinterpret_cast<const double*>(x.data());
  std::size_t i = 0;
  for (; i + W <= x.size(); i += W) {
    simd::VDouble vr, vi;
    simd::deinterleave(simd::load(xd + 2 * i), simd::load(xd + 2 * i + W),
                       vr, vi);
    simd::store(&re[i], vr);
    simd::store(&im[i], vi);
  }
  for (; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
#endif
}

void merge_complex(std::span<const double> re, std::span<const double> im,
                   std::span<cplx> out) {
#if !PSDACC_SIMD_ENABLED
  scalar::merge_complex(re, im, out);
#else
  PSDACC_EXPECTS(re.size() == out.size() && im.size() == out.size());
  double* od = reinterpret_cast<double*>(out.data());
  std::size_t i = 0;
  for (; i + W <= out.size(); i += W) {
    simd::VDouble lo, hi;
    simd::interleave(simd::load(&re[i]), simd::load(&im[i]), lo, hi);
    simd::store(od + 2 * i, lo);
    simd::store(od + 2 * i + W, hi);
  }
  for (; i < out.size(); ++i) out[i] = cplx(re[i], im[i]);
#endif
}

void scale(std::span<double> x, double s) {
#if !PSDACC_SIMD_ENABLED
  scalar::scale(x, s);
#else
  const simd::VDouble vs = simd::splat(s);
  std::size_t i = 0;
  for (; i + W <= x.size(); i += W)
    simd::store(&x[i], simd::load(&x[i]) * vs);
  for (; i < x.size(); ++i) x[i] *= s;
#endif
}

void butterfly(double* re, double* im, std::size_t half, const double* wr,
               const double* wi, bool conj_twiddles) {
#if !PSDACC_SIMD_ENABLED
  scalar::butterfly(re, im, half, wr, wi, conj_twiddles);
#else
  std::size_t k = 0;
  for (; k + W <= half; k += W) {
    const simd::VDouble wre = simd::load(wr + k);
    simd::VDouble wim = simd::load(wi + k);
    if (conj_twiddles) wim = -wim;
    const simd::VDouble vr = simd::load(re + k + half);
    const simd::VDouble vi = simd::load(im + k + half);
    const simd::VDouble tr = vr * wre - vi * wim;
    const simd::VDouble ti = vr * wim + vi * wre;
    const simd::VDouble ur = simd::load(re + k);
    const simd::VDouble ui = simd::load(im + k);
    simd::store(re + k, ur + tr);
    simd::store(im + k, ui + ti);
    simd::store(re + k + half, ur - tr);
    simd::store(im + k + half, ui - ti);
  }
  for (; k < half; ++k) {
    const double wre = wr[k];
    const double wim = conj_twiddles ? -wi[k] : wi[k];
    const double vr = re[k + half];
    const double vi = im[k + half];
    const double tr = vr * wre - vi * wim;
    const double ti = vr * wim + vi * wre;
    const double ur = re[k];
    const double ui = im[k];
    re[k] = ur + tr;
    im[k] = ui + ti;
    re[k + half] = ur - tr;
    im[k + half] = ui - ti;
  }
#endif
}

}  // namespace psdacc::dsp::kernels
