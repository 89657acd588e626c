// Filter library tests: transfer-function algebra, frequency responses of
// designed FIR/IIR filters, stability, and streaming-filter equivalences.
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/convolution.hpp"
#include "filters/filtering.hpp"
#include "filters/fir_design.hpp"
#include "filters/iir_design.hpp"
#include "filters/transfer_function.hpp"
#include "support/random.hpp"

namespace {

using namespace psdacc::filt;
using psdacc::Xoshiro256;

TEST(TransferFunction, GainDelayIdentity) {
  const auto id = TransferFunction::identity();
  EXPECT_NEAR(std::abs(id.response(0.13)), 1.0, 1e-14);
  const auto g = TransferFunction::gain(2.5);
  EXPECT_NEAR(std::abs(g.response(0.4)), 2.5, 1e-14);
  const auto d = TransferFunction::delay(3);
  EXPECT_NEAR(std::abs(d.response(0.27)), 1.0, 1e-14);
  // Delay phase: -2*pi*f*k.
  const auto r = d.response(0.1);
  EXPECT_NEAR(std::arg(r), -2.0 * 3.141592653589793 * 0.1 * 3.0, 1e-9);
}

TEST(TransferFunction, DenominatorNormalization) {
  TransferFunction tf({2.0, 4.0}, {2.0, 1.0});
  EXPECT_DOUBLE_EQ(tf.denominator()[0], 1.0);
  EXPECT_DOUBLE_EQ(tf.denominator()[1], 0.5);
  EXPECT_DOUBLE_EQ(tf.numerator()[0], 1.0);
  EXPECT_DOUBLE_EQ(tf.numerator()[1], 2.0);
}

TEST(TransferFunction, ImpulseResponseOfOnePoleSystem) {
  // H(z) = 1 / (1 - 0.5 z^-1): h[n] = 0.5^n.
  TransferFunction tf({1.0}, {1.0, -0.5});
  const auto h = tf.impulse_response(8);
  for (std::size_t n = 0; n < h.size(); ++n)
    EXPECT_NEAR(h[n], std::pow(0.5, static_cast<double>(n)), 1e-12);
}

TEST(TransferFunction, PowerGainOfOnePoleSystem) {
  // sum 0.25^n = 1/(1-0.25) = 4/3.
  TransferFunction tf({1.0}, {1.0, -0.5});
  EXPECT_NEAR(tf.power_gain(4096), 4.0 / 3.0, 1e-9);
}

TEST(TransferFunction, CascadeMultipliesResponses) {
  TransferFunction a({1.0, 0.5});
  TransferFunction b({1.0}, {1.0, -0.3});
  const auto c = a.cascade(b);
  for (double f : {0.0, 0.1, 0.33, 0.49})
    EXPECT_NEAR(std::abs(c.response(f) - a.response(f) * b.response(f)),
                0.0, 1e-12);
}

TEST(TransferFunction, AddSumsResponses) {
  TransferFunction a({0.5, 0.25});
  TransferFunction b({1.0}, {1.0, 0.4});
  const auto c = a.add(b);
  for (double f : {0.0, 0.2, 0.45})
    EXPECT_NEAR(std::abs(c.response(f) - (a.response(f) + b.response(f))),
                0.0, 1e-12);
}

TEST(TransferFunction, FeedbackClosedLoopResponse) {
  // G = 1, L = 0.5 z^-1: H = 1 / (1 + 0.5 z^-1).
  const auto g = TransferFunction::identity();
  const auto loop = TransferFunction::gain(0.5).cascade(
      TransferFunction::delay(1));
  const auto h = g.feedback(loop);
  const TransferFunction expected({1.0}, {1.0, 0.5});
  for (double f : {0.0, 0.11, 0.37})
    EXPECT_NEAR(std::abs(h.response(f) - expected.response(f)), 0.0, 1e-12);
}

TEST(TransferFunction, StabilityDetection) {
  EXPECT_TRUE(TransferFunction({1.0}, {1.0, -0.9}).is_stable());
  EXPECT_FALSE(TransferFunction({1.0}, {1.0, -1.1}).is_stable());
  EXPECT_TRUE(TransferFunction({1.0, 2.0, 3.0}).is_stable());  // FIR
  // Pole pair at radius 0.95.
  EXPECT_TRUE(
      TransferFunction({1.0}, {1.0, -1.2, 0.9025}).is_stable());
  // Pole pair outside the unit circle.
  EXPECT_FALSE(
      TransferFunction({1.0}, {1.0, -1.2, 1.21}).is_stable());
}

// --- Grid responses read z^-1 from a per-thread unit-circle table -------

// Random FIR (a == {1}) or IIR transfer function of the given order. The
// denominator need not be stable: only the evaluation path is compared.
TransferFunction random_tf(Xoshiro256& rng, std::size_t order, bool iir) {
  std::vector<double> b(order + 1);
  for (double& c : b) c = rng.uniform(-1.0, 1.0);
  if (!iir) return TransferFunction(std::move(b));
  std::vector<double> a(order + 1);
  a[0] = 1.0;
  for (std::size_t i = 1; i < a.size(); ++i)
    a[i] = rng.uniform(-1.0, 1.0) / static_cast<double>(i + 1);
  return TransferFunction(std::move(b), std::move(a));
}

// Bit patterns, so NaN or signed-zero bins compare exactly too.
bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

constexpr std::size_t kGridSizes[] = {2, 3, 1000, 1024, 4096};

TEST(UnitCirclePlanCache, GridMatchesPerBinResponseBitwise) {
  Xoshiro256 rng(2024);
  for (const bool iir : {false, true}) {
    for (std::size_t order = 0; order <= 48; ++order) {
      const TransferFunction tf = random_tf(rng, order, iir);
      for (const std::size_t n : kGridSizes) {
        const auto grid = tf.response_grid(n);
        const auto power = tf.power_response_grid(n);
        ASSERT_EQ(grid.size(), n);
        ASSERT_EQ(power.size(), n);
        for (std::size_t k = 0; k < n; ++k) {
          const cplx r =
              tf.response(static_cast<double>(k) / static_cast<double>(n));
          ASSERT_TRUE(same_bits(grid[k].real(), r.real()) &&
                      same_bits(grid[k].imag(), r.imag()) &&
                      same_bits(power[k], std::norm(r)))
              << (iir ? "IIR" : "FIR") << " order " << order << " n " << n
              << " bin " << k;
        }
      }
    }
  }
}

TEST(UnitCirclePlanCache, ConcurrentThreadsBuildIdenticalGrids) {
  Xoshiro256 rng(7);
  const TransferFunction fir = random_tf(rng, 31, false);
  const TransferFunction iir = random_tf(rng, 8, true);
  std::vector<std::vector<double>> expected;
  for (const std::size_t n : kGridSizes) {
    expected.push_back(fir.power_response_grid(n));
    expected.push_back(iir.power_response_grid(n));
  }
  // Each thread sweeps more sizes than one thread's cache holds, so the
  // threads build, evict and rebuild tables at the same time.
  auto sweep = [&](std::vector<std::vector<double>>& out) {
    for (int round = 0; round < 3; ++round) {
      for (std::size_t extra = 16; extra < 16 + 12; ++extra)
        fir.power_response_grid(extra);
      out.clear();
      for (const std::size_t n : kGridSizes) {
        out.push_back(fir.power_response_grid(n));
        out.push_back(iir.power_response_grid(n));
      }
    }
  };
  std::vector<std::vector<double>> a;
  std::vector<std::vector<double>> b;
  std::thread ta(sweep, std::ref(a));
  std::thread tb(sweep, std::ref(b));
  ta.join();
  tb.join();
  ASSERT_EQ(a.size(), expected.size());
  ASSERT_EQ(b.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(a[i], expected[i]) << "grid " << i;
    EXPECT_EQ(b[i], expected[i]) << "grid " << i;
  }
}

TEST(PolyFromRoots, ConjugatePairGivesRealQuadratic) {
  const std::vector<cplx> roots{{0.5, 0.5}, {0.5, -0.5}};
  const auto p = poly_from_roots(roots);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], -1.0, 1e-12);
  EXPECT_NEAR(p[2], 0.5, 1e-12);
}

class FirDesignCase
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(FirDesignCase, LowpassPassesDcBlocksNyquist) {
  const auto [taps, cutoff] = GetParam();
  const TransferFunction tf(psdacc::filt::fir_lowpass(taps, cutoff));
  EXPECT_NEAR(std::abs(tf.response(0.0)), 1.0, 1e-9);
  EXPECT_LT(std::abs(tf.response(0.5)), 0.05);
  EXPECT_LT(std::abs(tf.response(std::min(0.49, cutoff + 0.15))), 0.2);
}

TEST_P(FirDesignCase, HighpassBlocksDcPassesNyquist) {
  const auto [taps, cutoff] = GetParam();
  const TransferFunction tf(psdacc::filt::fir_highpass(taps, cutoff));
  EXPECT_LT(std::abs(tf.response(0.0)), 0.05);
  EXPECT_NEAR(std::abs(tf.response(0.5)), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FirDesignCase,
    ::testing::Combine(::testing::Values<std::size_t>(16, 33, 64, 127),
                       ::testing::Values(0.1, 0.2, 0.3)));

TEST(FirDesign, BandpassPassesCenterBlocksEdges) {
  const TransferFunction tf(psdacc::filt::fir_bandpass(63, 0.1, 0.3));
  EXPECT_NEAR(std::abs(tf.response(0.2)), 1.0, 1e-9);
  EXPECT_LT(std::abs(tf.response(0.0)), 0.02);
  EXPECT_LT(std::abs(tf.response(0.5)), 0.02);
}

TEST(FirDesign, BandstopBlocksCenterPassesEdges) {
  const TransferFunction tf(psdacc::filt::fir_bandstop(63, 0.15, 0.35));
  EXPECT_LT(std::abs(tf.response(0.25)), 0.05);
  EXPECT_NEAR(std::abs(tf.response(0.0)), 1.0, 1e-9);
}

TEST(FirDesign, LinearPhaseSymmetry) {
  const auto h = psdacc::filt::fir_lowpass(33, 0.2);
  for (std::size_t i = 0; i < h.size(); ++i)
    EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
}

class IirDesignCase : public ::testing::TestWithParam<
                          std::tuple<IirFamily, int, double>> {};

TEST_P(IirDesignCase, LowpassShapeAndStability) {
  const auto [family, order, cutoff] = GetParam();
  const auto tf = iir_lowpass(family, order, cutoff);
  EXPECT_TRUE(tf.is_stable());
  EXPECT_NEAR(std::abs(tf.response(0.0)), 1.0, 1e-9);
  EXPECT_LT(std::abs(tf.response(0.5)),
            std::pow(10.0, -0.5 * order));  // deep stop-band for high order
  // Monotone-ish decay beyond cutoff: response well below 1 at 1.8*cutoff.
  if (1.8 * cutoff < 0.5) {
    EXPECT_LT(std::abs(tf.response(1.8 * cutoff)), 0.9);
  }
}

TEST_P(IirDesignCase, HighpassShapeAndStability) {
  const auto [family, order, cutoff] = GetParam();
  const auto tf = iir_highpass(family, order, cutoff);
  EXPECT_TRUE(tf.is_stable());
  EXPECT_NEAR(std::abs(tf.response(0.5)), 1.0, 1e-9);
  EXPECT_LT(std::abs(tf.response(0.0)), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Families, IirDesignCase,
    ::testing::Combine(::testing::Values(IirFamily::kButterworth,
                                         IirFamily::kChebyshev1),
                       ::testing::Values(2, 4, 7, 10),
                       ::testing::Values(0.1, 0.25)));

TEST(IirDesign, ButterworthHalfPowerAtCutoff) {
  for (int order : {2, 4, 6}) {
    const auto tf = iir_lowpass(IirFamily::kButterworth, order, 0.2);
    EXPECT_NEAR(std::abs(tf.response(0.2)), 1.0 / std::sqrt(2.0), 1e-6)
        << "order " << order;
  }
}

TEST(IirDesign, ChebyshevRippleBounded) {
  const double ripple_db = 1.0;
  const auto tf = iir_lowpass(IirFamily::kChebyshev1, 5, 0.2, ripple_db);
  // Passband magnitude stays within the ripple band (after DC
  // normalization, within a small numerical margin).
  const double floor_mag = std::pow(10.0, -ripple_db / 20.0);
  for (double f = 0.0; f <= 0.19; f += 0.004) {
    const double mag = std::abs(tf.response(f));
    EXPECT_GT(mag, floor_mag * 0.98) << "f=" << f;
    EXPECT_LT(mag, 1.0 / (floor_mag * 0.98)) << "f=" << f;
  }
}

TEST(IirDesign, BandpassPeaksInsideBand) {
  const auto tf = iir_bandpass(IirFamily::kButterworth, 3, 0.15, 0.3);
  EXPECT_TRUE(tf.is_stable());
  EXPECT_LT(std::abs(tf.response(0.02)), 0.1);
  EXPECT_LT(std::abs(tf.response(0.48)), 0.1);
  // Near unit gain somewhere inside the band.
  double peak = 0.0;
  for (double f = 0.15; f <= 0.3; f += 0.002)
    peak = std::max(peak, std::abs(tf.response(f)));
  EXPECT_NEAR(peak, 1.0, 0.05);
}

TEST(Filtering, Df2tMatchesConvolutionForFir) {
  Xoshiro256 rng(8);
  const auto h = psdacc::filt::fir_lowpass(16, 0.2);
  const auto x = psdacc::gaussian_signal(200, rng);
  DirectForm2T filter{TransferFunction(h)};
  const auto y = filter.process(x);
  const auto full = psdacc::dsp::convolve_direct(x, h);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], full[i], 1e-10);
}

TEST(Filtering, Df2tMatchesImpulseResponseForIir) {
  const auto tf = iir_lowpass(IirFamily::kButterworth, 4, 0.2);
  std::vector<double> impulse(64, 0.0);
  impulse[0] = 1.0;
  DirectForm2T filter{tf};
  const auto y = filter.process(impulse);
  const auto h = tf.impulse_response(64);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], h[i], 1e-10);
}

TEST(Filtering, ResetRestoresInitialState) {
  const auto tf = iir_lowpass(IirFamily::kButterworth, 3, 0.15);
  Xoshiro256 rng(9);
  const auto x = psdacc::gaussian_signal(50, rng);
  DirectForm2T filter{tf};
  const auto first = filter.process(x);
  filter.reset();
  const auto second = filter.process(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_DOUBLE_EQ(first[i], second[i]);
}

TEST(Filtering, FixedPointConvergesToDoubleWithWideFormat) {
  const auto tf = iir_lowpass(IirFamily::kButterworth, 2, 0.2);
  Xoshiro256 rng(10);
  const auto x = psdacc::uniform_signal(500, 0.9, rng);
  DirectForm2T ref{tf};
  psdacc::fxp::FixedPointFormat wide = psdacc::fxp::q_format(4, 28);
  FixedPointDirectForm fx(tf, wide);
  const auto yr = ref.process(x);
  const auto yf = fx.process(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(yf[i], yr[i], 1e-6);
}

TEST(Filtering, FixedPointOutputIsOnGrid) {
  const auto tf = iir_lowpass(IirFamily::kButterworth, 2, 0.2);
  Xoshiro256 rng(11);
  const auto x = psdacc::uniform_signal(200, 0.9, rng);
  const auto fmt = psdacc::fxp::q_format(4, 8);
  FixedPointDirectForm fx(tf, fmt);
  for (double v : fx.process(x)) {
    const double units = v / fmt.step();
    EXPECT_NEAR(units, std::round(units), 1e-9);
  }
}

TEST(Filtering, CoefficientQuantizationChangesEffectiveTf) {
  const auto tf = iir_lowpass(IirFamily::kChebyshev1, 4, 0.2);
  const auto coeff_fmt = psdacc::fxp::q_format(2, 6);
  FixedPointDirectForm fx(tf, psdacc::fxp::q_format(4, 24), coeff_fmt);
  const auto& eff = fx.effective_tf();
  for (double c : eff.numerator()) {
    const double units = c / coeff_fmt.step();
    EXPECT_NEAR(units, std::round(units), 1e-9);
  }
}

}  // namespace
