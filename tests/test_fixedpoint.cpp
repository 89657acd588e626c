// Fixed-point substrate tests: format arithmetic, all rounding and
// overflow modes, quantizer idempotence, and empirical validation of the
// PQN noise model (the statistics Eq. 10 is built on).
#include <cmath>

#include <gtest/gtest.h>

#include "fixedpoint/format.hpp"
#include "fixedpoint/noise_model.hpp"
#include "fixedpoint/quantizer.hpp"
#include "support/random.hpp"
#include "support/statistics.hpp"

namespace {

using psdacc::Xoshiro256;
using namespace psdacc::fxp;

TEST(Format, StepAndRange) {
  const auto fmt = q_format(4, 12);
  EXPECT_DOUBLE_EQ(fmt.step(), std::ldexp(1.0, -12));
  EXPECT_DOUBLE_EQ(fmt.max_value(), 8.0 - std::ldexp(1.0, -12));
  EXPECT_DOUBLE_EQ(fmt.min_value(), -8.0);
  EXPECT_EQ(fmt.word_length(), 16);
}

TEST(Format, UnsignedRange) {
  FixedPointFormat fmt;
  fmt.integer_bits = 3;
  fmt.fractional_bits = 5;
  fmt.is_signed = false;
  EXPECT_DOUBLE_EQ(fmt.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(fmt.max_value(), 8.0 - std::ldexp(1.0, -5));
}

TEST(Format, ToStringIsDescriptive) {
  const auto fmt = q_format(2, 14, RoundingMode::kTruncate);
  EXPECT_EQ(fmt.to_string(), "sQ2.14/trunc/sat");
}

TEST(Quantize, RoundNearestGrid) {
  const auto fmt = q_format(4, 2);  // step 0.25
  EXPECT_DOUBLE_EQ(quantize(0.30, fmt), 0.25);
  EXPECT_DOUBLE_EQ(quantize(0.38, fmt), 0.50);
  EXPECT_DOUBLE_EQ(quantize(-0.30, fmt), -0.25);
  // Half-up ties.
  EXPECT_DOUBLE_EQ(quantize(0.125, fmt), 0.25);
  EXPECT_DOUBLE_EQ(quantize(-0.125, fmt), 0.0);
}

TEST(Quantize, TruncateFloorsTowardMinusInfinity) {
  auto fmt = q_format(4, 2, RoundingMode::kTruncate);
  EXPECT_DOUBLE_EQ(quantize(0.99, fmt), 0.75);
  EXPECT_DOUBLE_EQ(quantize(-0.01, fmt), -0.25);
  EXPECT_DOUBLE_EQ(quantize(-0.99, fmt), -1.0);
}

TEST(Quantize, ConvergentBreaksTiesToEven) {
  auto fmt = q_format(4, 2, RoundingMode::kConvergent);  // step 0.25
  // 0.125 is a tie between 0 (even multiple) and 0.25 (odd multiple).
  EXPECT_DOUBLE_EQ(quantize(0.125, fmt), 0.0);
  // 0.375 ties between 0.25 (1 unit) and 0.5 (2 units) -> even 0.5.
  EXPECT_DOUBLE_EQ(quantize(0.375, fmt), 0.5);
  // Non-ties round to nearest as usual.
  EXPECT_DOUBLE_EQ(quantize(0.30, fmt), 0.25);
}

TEST(Quantize, SaturationClampsAtRange) {
  const auto fmt = q_format(2, 4);  // range [-2, 2)
  EXPECT_DOUBLE_EQ(quantize(5.0, fmt), fmt.max_value());
  EXPECT_DOUBLE_EQ(quantize(-5.0, fmt), -2.0);
}

TEST(Quantize, WrapModeWrapsAround) {
  auto fmt = q_format(2, 4);
  fmt.overflow = OverflowMode::kWrap;
  // Range [-2, 2); 2.0 wraps to -2.0.
  EXPECT_DOUBLE_EQ(quantize(2.0, fmt), -2.0);
  EXPECT_DOUBLE_EQ(quantize(2.5, fmt), -1.5);
  EXPECT_DOUBLE_EQ(quantize(-2.25, fmt), 1.75);
}

TEST(Quantize, WrapAppliesRoundingBeforeWrapAround) {
  auto fmt = q_format(2, 4, RoundingMode::kRoundNearest);  // step 0.0625
  fmt.overflow = OverflowMode::kWrap;
  // Just below the top of range: rounds up onto 2.0, which wraps to -2.0.
  EXPECT_DOUBLE_EQ(quantize(fmt.max_value() + fmt.step() / 2.0, fmt), -2.0);
  // Rounds down to max_value(): stays in range, no wrap.
  EXPECT_DOUBLE_EQ(quantize(fmt.max_value() + 0.4 * fmt.step(), fmt),
                   fmt.max_value());
  // Half-up tie exactly at the wrap boundary.
  EXPECT_DOUBLE_EQ(quantize(2.0 - fmt.step() / 2.0, fmt), -2.0);
}

TEST(Quantize, WrapIsPeriodicAcrossMultipleRanges) {
  auto fmt = q_format(2, 4);  // range [-2, 2), span 4
  fmt.overflow = OverflowMode::kWrap;
  for (const double base : {0.5, -1.25, 1.9375}) {
    for (int k = -3; k <= 3; ++k) {
      EXPECT_DOUBLE_EQ(quantize(base + 4.0 * k, fmt), quantize(base, fmt))
          << "base " << base << " period " << k;
    }
  }
}

TEST(Quantize, WrapKeepsResultOnGridAndInRange) {
  auto fmt = q_format(2, 3, RoundingMode::kRoundNearest);
  fmt.overflow = OverflowMode::kWrap;
  Xoshiro256 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(-40.0, 40.0);
    const double q = quantize(v, fmt);
    EXPECT_GE(q, fmt.min_value());
    EXPECT_LE(q, fmt.max_value());
    const double units = q / fmt.step();
    EXPECT_NEAR(units, std::round(units), 1e-9);
  }
}

TEST(Quantize, KernelMatchesFreeFunction) {
  // The precompiled kernel must agree with the one-shot form bit for bit in
  // every rounding/overflow combination.
  for (const auto rounding :
       {RoundingMode::kTruncate, RoundingMode::kRoundNearest,
        RoundingMode::kConvergent}) {
    for (const auto overflow : {OverflowMode::kSaturate, OverflowMode::kWrap}) {
      auto fmt = q_format(3, 5, rounding);
      fmt.overflow = overflow;
      const QuantizerKernel kernel(fmt);
      Xoshiro256 rng(17);
      for (int i = 0; i < 500; ++i) {
        const double v = rng.uniform(-12.0, 12.0);
        EXPECT_DOUBLE_EQ(kernel(v), quantize(v, fmt));
      }
    }
  }
}

TEST(Quantize, IdempotentOnGridValues) {
  const auto fmt = q_format(4, 8);
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-7.0, 7.0);
    const double q1 = quantize(v, fmt);
    EXPECT_DOUBLE_EQ(quantize(q1, fmt), q1);
  }
}

TEST(Quantize, ErrorBoundedByStep) {
  const auto fmt = q_format(4, 10);
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-7.0, 7.0);
    EXPECT_LE(std::abs(quantize(v, fmt) - v), fmt.step() / 2.0 + 1e-15);
  }
}

class PqnMoments : public ::testing::TestWithParam<int> {};

TEST_P(PqnMoments, RoundingMatchesEmpiricalStatistics) {
  const int d = GetParam();
  const auto fmt = q_format(4, d);
  const auto predicted = continuous_quantization_noise(fmt);
  Xoshiro256 rng(1000 + d);
  psdacc::RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    stats.add(quantize(v, fmt) - v);
  }
  const double q = fmt.step();
  EXPECT_NEAR(stats.mean(), predicted.mean, 0.02 * q);
  EXPECT_NEAR(stats.variance(), predicted.variance,
              0.05 * predicted.variance);
}

TEST_P(PqnMoments, TruncationMatchesEmpiricalStatistics) {
  const int d = GetParam();
  const auto fmt = q_format(4, d, RoundingMode::kTruncate);
  const auto predicted = continuous_quantization_noise(fmt);
  Xoshiro256 rng(2000 + d);
  psdacc::RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    stats.add(quantize(v, fmt) - v);
  }
  const double q = fmt.step();
  EXPECT_NEAR(stats.mean(), predicted.mean, 0.02 * q);
  EXPECT_NEAR(stats.variance(), predicted.variance,
              0.05 * predicted.variance);
}

INSTANTIATE_TEST_SUITE_P(FractionalBits, PqnMoments,
                         ::testing::Values(4, 6, 8, 10, 12));

TEST(NarrowingMoments, TruncationOnDiscreteGrid) {
  // Narrow from 10 to 6 fractional bits.
  const auto out_fmt = q_format(4, 6, RoundingMode::kTruncate);
  const auto predicted = narrowing_quantization_noise(10, out_fmt);
  const auto in_fmt = q_format(4, 10, RoundingMode::kRoundNearest);
  Xoshiro256 rng(31);
  psdacc::RunningStats stats;
  for (int i = 0; i < 400000; ++i) {
    const double v = quantize(rng.uniform(-1.0, 1.0), in_fmt);
    stats.add(quantize(v, out_fmt) - v);
  }
  EXPECT_NEAR(stats.mean(), predicted.mean, 0.02 * out_fmt.step());
  EXPECT_NEAR(stats.variance(), predicted.variance,
              0.05 * predicted.variance);
}

TEST(NarrowingMoments, RoundNearestTieBias) {
  const auto out_fmt = q_format(4, 6, RoundingMode::kRoundNearest);
  const auto predicted = narrowing_quantization_noise(10, out_fmt);
  const auto in_fmt = q_format(4, 10, RoundingMode::kRoundNearest);
  Xoshiro256 rng(32);
  psdacc::RunningStats stats;
  for (int i = 0; i < 400000; ++i) {
    const double v = quantize(rng.uniform(-1.0, 1.0), in_fmt);
    stats.add(quantize(v, out_fmt) - v);
  }
  // Predicted bias is q_in / 2 = 2^-11.
  EXPECT_NEAR(predicted.mean, std::ldexp(1.0, -11), 1e-15);
  EXPECT_NEAR(stats.mean(), predicted.mean, 0.25 * predicted.mean);
  EXPECT_NEAR(stats.variance(), predicted.variance,
              0.05 * predicted.variance);
}

TEST(NarrowingMoments, NoBitsDroppedMeansNoNoise) {
  const auto fmt = q_format(4, 8);
  const auto m = narrowing_quantization_noise(8, fmt);
  EXPECT_DOUBLE_EQ(m.mean, 0.0);
  EXPECT_DOUBLE_EQ(m.variance, 0.0);
}

TEST(NoiseMoments, PowerIsMeanSquarePlusVariance) {
  NoiseMoments m{-0.5, 0.25};
  EXPECT_DOUBLE_EQ(m.power(), 0.5);
}

}  // namespace
