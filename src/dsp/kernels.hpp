// dsp::kernels — the single public entry point for the library's
// vectorizable per-sample loops.
//
// Every scalar hot loop that used to be hand-rolled at its call site
// (ExecutionPlan's direct-form FIR/IIR and quantized kernels, FftPlan's
// butterflies and Bluestein pointwise products, quantizer spans, Welch
// windowing and periodogram accumulation) now routes through this header,
// so the scalar/SIMD selection lives in exactly one place. The SIMD
// implementations are built on dsp/simd.hpp (GCC/Clang vector extensions,
// configure-time width, -DPSDACC_SIMD=OFF forces scalar); `width()` and
// `active_isa()` report what the build selected.
//
// Bit-exactness contract: every kernel vectorizes across independent
// outputs — each lane performs the same operations in the same order the
// scalar reference does — and no kernel reassociates a summation (tap
// accumulation runs in ascending-j order in every lane; horizontal sums
// are never used). The SIMD and scalar builds therefore produce
// bit-identical results, which tests/test_kernels.cpp asserts exactly.
// The scalar references are always compiled, under kernels::scalar, so the
// SIMD build can verify (and benchmark) itself against them in-process.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "fixedpoint/quantizer.hpp"

namespace psdacc::dsp::kernels {

/// Lanes of double per vector op: 1 in scalar builds (PSDACC_SIMD=OFF or a
/// compiler without the vector extensions), else PSDACC_SIMD_WIDTH.
std::size_t width() noexcept;

/// "scalar", or "vec128"/"vec256"/"vec512" for 2/4/8-lane builds.
std::string_view active_isa() noexcept;

/// Whole-vector FIR with zero initial state:
/// out[i] = sum_{j=0}^{nb-1} b[j] x[i-j], taps accumulated in ascending j.
/// Reads straight from the input buffer (no history register file), so the
/// steady-state region vectorizes across output samples.
void fir_apply(std::span<const double> b, std::span<const double> x,
               std::vector<double>& out);

/// Whole-vector direct-form IIR, a[0] stripped (feedback taps a[1..] as in
/// the direct-form realizations): out[i] = sum_j b[j] x[i-j]
/// - sum_j a[j] out[i-1-j]. The feedforward part vectorizes like
/// fir_apply; the feedback recurrence is inherently sequential and runs
/// scalar, in the same b-then-a accumulation order as the all-scalar loop.
void iir_df2(std::span<const double> b, std::span<const double> a,
             std::span<const double> x, std::vector<double>& out);

/// Fixed-point direct-form I block: iir_df2 with the accumulator quantized
/// to @p q each sample and the feedback taps reading the quantized
/// outputs. The quantizer keeps the recurrence sequential; only the
/// feedforward dot products vectorize.
void iir_df1_quantized(std::span<const double> b, std::span<const double> a,
                       const fxp::QuantizerKernel& q,
                       std::span<const double> x, std::vector<double>& out);

/// Lane-wise quantization: out[i] = q(x[i]). Round (truncate / nearest /
/// convergent) and saturate run fully vectorized on the in-range fast
/// path; lanes that overflow the representable range (wrap/saturate
/// boundary traffic) or sit outside the exact-floor domain (|x/step| >=
/// 2^52, non-finite) fall back to the scalar kernel per chunk, so every
/// lane is bit-identical to q(x[i]). In-place (out == x) is allowed.
void quantize_span(const fxp::QuantizerKernel& q, std::span<const double> x,
                   std::span<double> out);

/// Pointwise window application: out[i] = x[i] * w[i] (sizes must match).
/// In-place (out aliasing x) is allowed.
void window_apply(std::span<const double> x, std::span<const double> w,
                  std::span<double> out);

/// Periodogram/Welch accumulation:
/// acc[k] += (re(spectrum[k])^2 + im(spectrum[k])^2) * scale.
/// The squared magnitude is computed as re^2 + im^2 in both paths (PSD
/// magnitudes never approach the overflow range std::norm's abs-based
/// form guards against).
void window_accumulate(std::span<double> acc,
                       std::span<const std::complex<double>> spectrum,
                       double scale);

/// Pointwise complex product on split-complex spans, in place:
/// (xr,xi)[i] *= (yr,yi)[i], computed as (xr*yr - xi*yi,
/// xr*yi + xi*yr) — the direct formula std::complex uses for finite
/// operands. The Bluestein chirp/kernel products run on this.
void complex_mul(std::span<double> xr, std::span<double> xi,
                 std::span<const double> yr, std::span<const double> yi);

/// Deinterleaves std::complex data into split re/im arrays (all spans the
/// same length). The FFT entry points use this to move between the public
/// interleaved layout and the plan's split-complex scratch.
void split_complex(std::span<const std::complex<double>> x,
                   std::span<double> re, std::span<double> im);

/// Inverse of split_complex: out[i] = {re[i], im[i]}.
void merge_complex(std::span<const double> re, std::span<const double> im,
                   std::span<std::complex<double>> out);

/// In-place scaling: x[i] *= s. Interleaved complex data can be scaled by
/// viewing it as a double span of twice the length (componentwise multiply
/// is exactly what complex * real does).
void scale(std::span<double> x, double s);

/// One radix-2 butterfly group over split-complex data: for k in [0,half),
/// with u = (re,im)[k], v = (re,im)[k+half] and w = (wr,wi)[k] (conjugated
/// when @p conj_twiddles, i.e. the inverse transform):
///   (re,im)[k]        = u + v*w
///   (re,im)[k+half]   = u - v*w
void butterfly(double* re, double* im, std::size_t half, const double* wr,
               const double* wi, bool conj_twiddles);

/// Scalar reference implementations, always compiled (even in SIMD builds):
/// the parity oracle for tests/test_kernels.cpp and the baseline the
/// bench_micro_kernels speedup floor measures against. In scalar builds the
/// public entry points are these.
namespace scalar {

void fir_apply(std::span<const double> b, std::span<const double> x,
               std::vector<double>& out);
void iir_df2(std::span<const double> b, std::span<const double> a,
             std::span<const double> x, std::vector<double>& out);
void iir_df1_quantized(std::span<const double> b, std::span<const double> a,
                       const fxp::QuantizerKernel& q,
                       std::span<const double> x, std::vector<double>& out);
void quantize_span(const fxp::QuantizerKernel& q, std::span<const double> x,
                   std::span<double> out);
void window_apply(std::span<const double> x, std::span<const double> w,
                  std::span<double> out);
void window_accumulate(std::span<double> acc,
                       std::span<const std::complex<double>> spectrum,
                       double scale);
void complex_mul(std::span<double> xr, std::span<double> xi,
                 std::span<const double> yr, std::span<const double> yi);
void split_complex(std::span<const std::complex<double>> x,
                   std::span<double> re, std::span<double> im);
void merge_complex(std::span<const double> re, std::span<const double> im,
                   std::span<std::complex<double>> out);
void scale(std::span<double> x, double s);
void butterfly(double* re, double* im, std::size_t half, const double* wr,
               const double* wi, bool conj_twiddles);

}  // namespace scalar

}  // namespace psdacc::dsp::kernels
