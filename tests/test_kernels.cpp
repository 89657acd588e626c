// Bit-exactness suite for dsp::kernels: every public entry point must
// produce bit-identical output to its kernels::scalar reference on the
// same inputs — that is the contract that lets the SIMD build share golden
// files, corpus hashes, and determinism tests with the scalar build.
//
// In a scalar build (PSDACC_SIMD=OFF) the public entry points *are* the
// scalar references, so the suite degenerates to self-consistency and
// still passes; in a SIMD build it exercises the vector main loops, the
// scalar tails (odd/prime/tail-heavy lengths), unaligned spans, and the
// quantizer's overflow/non-finite scalar-replay fallbacks.
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/kernels.hpp"
#include "fixedpoint/format.hpp"
#include "fixedpoint/quantizer.hpp"
#include "support/random.hpp"

namespace {

using namespace psdacc;
namespace kernels = dsp::kernels;
using cplx = std::complex<double>;

// Lengths chosen to hit: empty, single lane, sub-width, exactly one
// vector, one vector + tail, the 2x-unrolled main loop, prime lengths
// (maximal tails), and a large round size.
const std::size_t kLengths[] = {0,  1,  2,  3,  5,  7,  8,
                                13, 16, 31, 64, 97, 128, 1021};

// memcmp-exact comparison: distinguishes -0.0 from +0.0 and fails on any
// NaN payload difference, which EXPECT_DOUBLE_EQ would not.
void expect_bits_eq(std::span<const double> got,
                    std::span<const double> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " lane " << i << ": got " << got[i] << " want "
        << want[i];
  }
}

void expect_bits_eq(std::span<const cplx> got, std::span<const cplx> want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(cplx)), 0)
        << what << " bin " << i;
  }
}

std::vector<double> signal(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  return x;
}

std::vector<cplx> csignal(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.gaussian(), rng.gaussian());
  return x;
}

TEST(Kernels, ReportsConsistentWidthAndIsa) {
  const std::size_t w = kernels::width();
  EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8) << w;
  if (w == 1) {
    EXPECT_EQ(kernels::active_isa(), "scalar");
  } else {
    EXPECT_EQ(kernels::active_isa(),
              w == 2 ? "vec128" : (w == 4 ? "vec256" : "vec512"));
  }
#ifdef PSDACC_SIMD_SCALAR
  EXPECT_EQ(w, 1u);
#endif
}

TEST(Kernels, FirMatchesScalarBitExactly) {
  for (const std::size_t taps : {1u, 2u, 3u, 8u, 24u, 33u}) {
    const auto b = signal(taps, 100 + taps);
    for (const std::size_t n : kLengths) {
      const auto x = signal(n, 7 * n + 1);
      std::vector<double> got, want;
      kernels::fir_apply(b, x, got);
      kernels::scalar::fir_apply(b, x, want);
      expect_bits_eq(got, want, "fir_apply");
    }
  }
}

TEST(Kernels, FirUnalignedInputMatchesScalar) {
  const auto b = signal(17, 3);
  const auto x = signal(260, 4);
  for (std::size_t off = 0; off < 4; ++off) {
    const std::span<const double> view(x.data() + off, x.size() - off);
    std::vector<double> got, want;
    kernels::fir_apply(b, view, got);
    kernels::scalar::fir_apply(b, view, want);
    expect_bits_eq(got, want, "fir_apply unaligned");
  }
}

TEST(Kernels, IirDf2MatchesScalarBitExactly) {
  const auto b = signal(5, 11);
  std::vector<double> a = {0.4, -0.2, 0.05};  // stable feedback taps
  for (const std::size_t n : kLengths) {
    const auto x = signal(n, 13 * n + 5);
    std::vector<double> got, want;
    kernels::iir_df2(b, a, x, got);
    kernels::scalar::iir_df2(b, a, x, want);
    expect_bits_eq(got, want, "iir_df2");
  }
}

TEST(Kernels, IirDf1QuantizedMatchesScalarBitExactly) {
  const auto b = signal(4, 21);
  std::vector<double> a = {0.3, -0.1};
  const fxp::QuantizerKernel q(fxp::q_format(4, 12));
  for (const std::size_t n : kLengths) {
    const auto x = signal(n, 17 * n + 3);
    std::vector<double> got, want;
    kernels::iir_df1_quantized(b, a, q, x, got);
    kernels::scalar::iir_df1_quantized(b, a, q, x, want);
    expect_bits_eq(got, want, "iir_df1_quantized");
  }
}

std::vector<fxp::FixedPointFormat> quantizer_formats() {
  std::vector<fxp::FixedPointFormat> fmts;
  for (const auto rounding :
       {fxp::RoundingMode::kTruncate, fxp::RoundingMode::kRoundNearest,
        fxp::RoundingMode::kConvergent}) {
    for (const auto overflow :
         {fxp::OverflowMode::kSaturate, fxp::OverflowMode::kWrap}) {
      for (const bool is_signed : {true, false}) {
        fxp::FixedPointFormat fmt;
        fmt.integer_bits = 3;
        fmt.fractional_bits = 7;
        fmt.is_signed = is_signed;
        fmt.rounding = rounding;
        fmt.overflow = overflow;
        fmts.push_back(fmt);
      }
    }
  }
  return fmts;
}

TEST(Kernels, QuantizeSpanMatchesScalarOnRandomData) {
  for (const auto& fmt : quantizer_formats()) {
    const fxp::QuantizerKernel q(fmt);
    for (const std::size_t n : kLengths) {
      // Amplitude 6 exceeds the Q3.7 range, so saturate and wrap paths
      // both see boundary traffic mixed with in-range lanes.
      Xoshiro256 rng(n + 31);
      std::vector<double> x(n);
      for (auto& v : x) v = 6.0 * (2.0 * rng.uniform() - 1.0);
      std::vector<double> got(n), want(n);
      kernels::quantize_span(q, x, got);
      kernels::scalar::quantize_span(q, x, want);
      expect_bits_eq(got, want, fmt.to_string().c_str());
    }
  }
}

TEST(Kernels, QuantizeSpanMatchesScalarOnEdgeValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const auto& fmt : quantizer_formats()) {
    const fxp::QuantizerKernel q(fmt);
    const double step = fmt.step();
    const double hi = fmt.max_value();
    const double lo = fmt.min_value();
    // Edge battery: signed zeros, exact grid points, ties for every
    // rounding mode, both saturation boundaries and one step beyond,
    // wrap-period offsets, non-finite lanes (forcing the scalar-replay
    // path), subnormals, and values at the exact-floor domain boundary.
    const std::vector<double> x = {
        +0.0,          -0.0,
        step,          -step,
        0.5 * step,    -0.5 * step,
        1.5 * step,    -1.5 * step,
        2.5 * step,    -2.5 * step,
        hi,            lo,
        hi - step,     lo + step,
        hi + step,     lo - step,
        hi + 0.5 * step, lo - 0.5 * step,
        2.0 * hi,      2.0 * lo - 1.0,
        1e6,           -1e6,
        inf,           -inf,
        nan,           denorm,
        -denorm,       4.5031827360639603e15,  // near 2^52 * step
        -4.5031827360639603e15, 0.3};
    std::vector<double> got(x.size()), want(x.size());
    kernels::quantize_span(q, x, got);
    kernels::scalar::quantize_span(q, x, want);
    // NaN outputs compare by bit pattern too; both paths must forward the
    // scalar kernel's NaN handling verbatim.
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
          << fmt.to_string() << " x=" << x[i] << " got " << got[i]
          << " want " << want[i];
    }
  }
}

TEST(Kernels, QuantizeSpanInPlaceAndUnaligned) {
  const fxp::QuantizerKernel q(fxp::q_format(4, 8));
  auto x = signal(131, 77);
  auto expected = x;
  kernels::scalar::quantize_span(q, x, expected);
  // In place...
  auto in_place = x;
  kernels::quantize_span(q, in_place, in_place);
  expect_bits_eq(in_place, expected, "quantize_span in-place");
  // ...and through unaligned subspans.
  for (std::size_t off = 1; off < 4; ++off) {
    std::vector<double> got(x.size() - off);
    kernels::quantize_span(
        q, std::span<const double>(x.data() + off, x.size() - off), got);
    expect_bits_eq(got,
                   std::span<const double>(expected.data() + off,
                                           expected.size() - off),
                   "quantize_span unaligned");
  }
}

TEST(Kernels, WindowApplyMatchesScalar) {
  for (const std::size_t n : kLengths) {
    const auto x = signal(n, n + 41);
    const auto w = signal(n, n + 43);
    std::vector<double> got(n), want(n);
    kernels::window_apply(x, w, got);
    kernels::scalar::window_apply(x, w, want);
    expect_bits_eq(got, want, "window_apply");
    // In-place form.
    auto in_place = x;
    kernels::window_apply(in_place, w, in_place);
    expect_bits_eq(in_place, want, "window_apply in-place");
  }
}

TEST(Kernels, WindowAccumulateMatchesScalar) {
  for (const std::size_t n : kLengths) {
    const auto spectrum = csignal(n, n + 51);
    const auto seed_acc = signal(n, n + 53);
    auto got = seed_acc;
    auto want = seed_acc;
    kernels::window_accumulate(got, spectrum, 0.37);
    kernels::scalar::window_accumulate(want, spectrum, 0.37);
    expect_bits_eq(got, want, "window_accumulate");
  }
}

TEST(Kernels, ComplexMulSplitMatchesScalar) {
  for (const std::size_t n : kLengths) {
    const auto xr0 = signal(n, n + 61);
    const auto xi0 = signal(n, n + 62);
    const auto yr = signal(n, n + 63);
    const auto yi = signal(n, n + 64);
    auto gr = xr0, gi = xi0, wr = xr0, wi = xi0;
    kernels::complex_mul(gr, gi, yr, yi);
    kernels::scalar::complex_mul(wr, wi, yr, yi);
    expect_bits_eq(gr, wr, "complex_mul split re");
    expect_bits_eq(gi, wi, "complex_mul split im");
  }
}

TEST(Kernels, SplitMergeRoundTripsBitExactly) {
  for (const std::size_t n : kLengths) {
    const auto x = csignal(n, n + 91);
    std::vector<double> gre(n), gim(n), wre(n), wim(n);
    kernels::split_complex(x, gre, gim);
    kernels::scalar::split_complex(x, wre, wim);
    expect_bits_eq(gre, wre, "split_complex re");
    expect_bits_eq(gim, wim, "split_complex im");
    std::vector<cplx> merged(n), merged_ref(n);
    kernels::merge_complex(gre, gim, merged);
    kernels::scalar::merge_complex(wre, wim, merged_ref);
    expect_bits_eq(merged, merged_ref, "merge_complex");
    expect_bits_eq(merged, x, "split/merge round trip");
  }
}

TEST(Kernels, ScaleMatchesScalar) {
  for (const std::size_t n : kLengths) {
    for (const double s : {0.25, -1.0, 1.0 / 3.0}) {
      auto got = signal(n, n + 95);
      auto want = got;
      kernels::scale(got, s);
      kernels::scalar::scale(want, s);
      expect_bits_eq(got, want, "scale");
    }
  }
}

TEST(Kernels, ButterflyMatchesScalar) {
  for (const std::size_t half : {1u, 2u, 3u, 4u, 7u, 16u, 33u}) {
    for (const bool conj : {false, true}) {
      auto re = signal(2 * half, half + 7);
      auto im = signal(2 * half, half + 8);
      auto re_ref = re;
      auto im_ref = im;
      // Forward twiddles for a size-2*half stage.
      std::vector<double> wr(half), wi(half);
      for (std::size_t k = 0; k < half; ++k) {
        const double ang = -3.14159265358979323846 *
                           static_cast<double>(k) /
                           static_cast<double>(half);
        wr[k] = std::cos(ang);
        wi[k] = std::sin(ang);
      }
      kernels::butterfly(re.data(), im.data(), half, wr.data(), wi.data(),
                         conj);
      kernels::scalar::butterfly(re_ref.data(), im_ref.data(), half,
                                 wr.data(), wi.data(), conj);
      expect_bits_eq(re, re_ref, "butterfly re");
      expect_bits_eq(im, im_ref, "butterfly im");
    }
  }
}

// The full quantizer (rounding + saturation on top of the vector path)
// must still agree with the one-shot fxp::quantize on every mode — the
// span overload routes through kernels::quantize_span, so this pins the
// public fixedpoint API to the scalar semantics too.
TEST(Kernels, SpanQuantizeAgreesWithScalarQuantize) {
  for (const auto& fmt : quantizer_formats()) {
    Xoshiro256 rng(99);
    std::vector<double> x(257);
    for (auto& v : x) v = 9.0 * (2.0 * rng.uniform() - 1.0);
    const auto spanned = fxp::quantize(x, fmt);
    ASSERT_EQ(spanned.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double one = fxp::quantize(x[i], fmt);
      EXPECT_EQ(std::memcmp(&spanned[i], &one, sizeof(double)), 0)
          << fmt.to_string() << " x=" << x[i];
    }
  }
}

}  // namespace
