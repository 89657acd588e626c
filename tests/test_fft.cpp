// FFT unit and property tests: agreement with the O(N^2) DFT oracle,
// inversion, Parseval, linearity, and known closed-form transforms.
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"
#include "support/random.hpp"

namespace {

using psdacc::Xoshiro256;
using psdacc::dsp::cplx;

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.gaussian(), rng.gaussian());
  return x;
}

double max_abs_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(FftBasics, PowerOfTwoHelpers) {
  EXPECT_TRUE(psdacc::dsp::is_power_of_two(1));
  EXPECT_TRUE(psdacc::dsp::is_power_of_two(2));
  EXPECT_TRUE(psdacc::dsp::is_power_of_two(1024));
  EXPECT_FALSE(psdacc::dsp::is_power_of_two(0));
  EXPECT_FALSE(psdacc::dsp::is_power_of_two(3));
  EXPECT_FALSE(psdacc::dsp::is_power_of_two(1023));
  EXPECT_EQ(psdacc::dsp::next_power_of_two(1), 1u);
  EXPECT_EQ(psdacc::dsp::next_power_of_two(5), 8u);
  EXPECT_EQ(psdacc::dsp::next_power_of_two(1024), 1024u);
  EXPECT_EQ(psdacc::dsp::next_power_of_two(1025), 2048u);
}

TEST(FftBasics, ImpulseTransformsToFlatSpectrum) {
  std::vector<cplx> x(16, cplx(0.0, 0.0));
  x[0] = cplx(1.0, 0.0);
  psdacc::dsp::fft(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftBasics, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = 2.0 * std::numbers::pi * static_cast<double>(tone * i) /
                     static_cast<double>(n);
    x[i] = cplx(std::cos(w), 0.0);
  }
  psdacc::dsp::fft(x);
  EXPECT_NEAR(std::abs(x[tone]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[n - tone]), static_cast<double>(n) / 2.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == tone || k == n - tone) continue;
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9) << "bin " << k;
  }
}

class FftAgainstDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAgainstDft, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 100 + n);
  const auto expected = psdacc::dsp::dft_reference(x);
  psdacc::dsp::fft(x);
  EXPECT_LT(max_abs_diff(x, expected), 1e-8 * static_cast<double>(n));
}

TEST_P(FftAgainstDft, InverseRecoversInput) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 200 + n);
  auto x = original;
  psdacc::dsp::fft(x);
  psdacc::dsp::ifft(x);
  EXPECT_LT(max_abs_diff(x, original), 1e-9 * static_cast<double>(n + 1));
}

TEST_P(FftAgainstDft, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 300 + n);
  auto spec = x;
  psdacc::dsp::fft(spec);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

TEST_P(FftAgainstDft, LinearityHolds) {
  const std::size_t n = GetParam();
  const auto a = random_signal(n, 400 + n);
  const auto b = random_signal(n, 500 + n);
  const cplx alpha(1.7, -0.3);
  std::vector<cplx> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * a[i] + b[i];
  auto fa = a, fb = b;
  psdacc::dsp::fft(fa);
  psdacc::dsp::fft(fb);
  psdacc::dsp::fft(combo);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(combo[i] - (alpha * fa[i] + fb[i])),
              1e-8 * static_cast<double>(n));
}

// Covers powers of two (radix-2 path) and several non-powers (Bluestein).
INSTANTIATE_TEST_SUITE_P(Sizes, FftAgainstDft,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17,
                                           31, 32, 45, 64, 100, 128, 255,
                                           256));

TEST(FftAgainstDftLargePrime, BluesteinMatchesReferenceDft) {
  // A large prime exercises the full Bluestein path (chirp + cached kernel
  // spectrum) with no radix-2 shortcut anywhere in the size.
  const std::size_t n = 1009;
  auto x = random_signal(n, 600);
  const auto expected = psdacc::dsp::dft_reference(x);
  psdacc::dsp::fft(x);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_diff = std::max(max_diff, std::abs(x[i] - expected[i]));
  EXPECT_LT(max_diff, 1e-9 * static_cast<double>(n));
}

class RealFftAgainstDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftAgainstDft, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(700 + n);
  const auto x = psdacc::gaussian_signal(n, rng);
  std::vector<cplx> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = cplx(x[i], 0.0);
  const auto expected = psdacc::dsp::dft_reference(ref);
  const auto spec = psdacc::dsp::fft_real(x);
  ASSERT_EQ(spec.size(), n);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_LT(std::abs(spec[k] - expected[k]), 1e-9)
        << "n=" << n << " bin " << k;
}

// Even sizes use the half-size packing trick; odd and prime sizes take the
// complex fallback; 2 and 6 exercise the tiny half-plans.
INSTANTIATE_TEST_SUITE_P(Sizes, RealFftAgainstDft,
                         ::testing::Values(1, 2, 3, 5, 6, 8, 10, 17, 34, 64,
                                           101, 128, 202, 256));

TEST(RealFft, MatchesComplexPath) {
  Xoshiro256 rng(9);
  const auto x = psdacc::gaussian_signal(64, rng);
  const auto spec = psdacc::dsp::fft_real(x);
  std::vector<cplx> ref(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ref[i] = cplx(x[i], 0.0);
  psdacc::dsp::fft(ref);
  EXPECT_LT(max_abs_diff(spec, ref), 1e-10);
}

TEST(RealFft, ZeroPadsToRequestedLength) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const auto spec = psdacc::dsp::fft_real(x, 8);
  ASSERT_EQ(spec.size(), 8u);
  // DC bin equals the sum of samples.
  EXPECT_NEAR(spec[0].real(), 6.0, 1e-12);
  EXPECT_NEAR(spec[0].imag(), 0.0, 1e-12);
}

TEST(RealFft, ConjugateSymmetryForRealInput) {
  Xoshiro256 rng(10);
  const auto x = psdacc::gaussian_signal(32, rng);
  const auto spec = psdacc::dsp::fft_real(x);
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(spec[k].real(), spec[x.size() - k].real(), 1e-10);
    EXPECT_NEAR(spec[k].imag(), -spec[x.size() - k].imag(), 1e-10);
  }
}

TEST(RealFft, IfftRealRoundTrip) {
  Xoshiro256 rng(11);
  const auto x = psdacc::gaussian_signal(48, rng);
  const auto spec = psdacc::dsp::fft_real(x);
  const auto back = psdacc::dsp::ifft_real(spec);
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(back[i], x[i], 1e-10);
}

// ---------------------------------------------------------------------------
// The bounded thread-local plan cache
// ---------------------------------------------------------------------------

class PlanCacheTest : public ::testing::Test {
 protected:
  static psdacc::dsp::PlanCache& cache() {
    return psdacc::dsp::PlanCache::instance();
  }

  void SetUp() override {
    saved_capacity_ = cache().capacity();
    cache().clear();
  }
  void TearDown() override {
    cache().set_capacity(saved_capacity_);
    cache().clear();
  }

 private:
  std::size_t saved_capacity_ = 0;
};

TEST_F(PlanCacheTest, CapacityClampsToAtLeastOne) {
  cache().set_capacity(0);
  EXPECT_EQ(cache().capacity(), 1u);
  psdacc::dsp::plan_for(8);
  EXPECT_LE(cache().size(), 1u);
}

TEST_F(PlanCacheTest, SizeStaysUnderCapAcrossManySizes) {
  cache().set_capacity(4);
  // Mix of radix-2 and Bluestein sizes; the latter recursively insert
  // their convolution and rfft-half sub-plans, so this also exercises
  // eviction during construction.
  for (const std::size_t n :
       {8u, 16u, 5u, 100u, 31u, 64u, 7u, 128u, 48u, 1000u}) {
    psdacc::dsp::plan_for(n);
    EXPECT_LE(cache().size(), 4u) << "after size " << n;
  }
}

TEST_F(PlanCacheTest, EvictsLeastRecentlyUsedFirst) {
  cache().set_capacity(2);
  const auto p1 = cache().handle(1);
  const auto p2 = cache().handle(2);
  cache().handle(2);  // size 1 is now the LRU entry
  // Size 4's constructor touches its half-plan (size 2) and the insert of
  // 4 overflows the cap, so the victim must be size 1.
  cache().handle(4);
  EXPECT_EQ(cache().handle(2).get(), p2.get())
      << "recently used plan was evicted";
  EXPECT_NE(cache().handle(1).get(), p1.get())
      << "LRU plan survived eviction";
}

TEST_F(PlanCacheTest, ShrinkingCapacityEvictsImmediately) {
  cache().set_capacity(16);
  for (const std::size_t n : {8u, 16u, 32u, 64u}) psdacc::dsp::plan_for(n);
  EXPECT_GE(cache().size(), 4u);
  cache().set_capacity(2);
  EXPECT_LE(cache().size(), 2u);
}

TEST_F(PlanCacheTest, EvictedHoldersStayValidAndCorrect) {
  cache().set_capacity(1);
  // The handle co-owns the whole sub-plan chain (Bluestein convolution,
  // rfft halves), so a capacity-1 storm of other sizes must not invalidate
  // it.
  const auto held = cache().handle(24);
  for (const std::size_t n : {7u, 256u, 13u, 100u})
    psdacc::dsp::plan_for(n);
  EXPECT_LE(cache().size(), 1u);

  Xoshiro256 rng(21);
  const auto x = psdacc::gaussian_signal(24, rng);
  std::vector<cplx> via_plan;
  held->rfft(x, via_plan);
  std::vector<cplx> reference(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    reference[i] = cplx(x[i], 0.0);
  psdacc::dsp::fft(reference);
  ASSERT_EQ(via_plan.size(), reference.size());
  EXPECT_LT(max_abs_diff(via_plan, reference), 1e-10);
}

TEST_F(PlanCacheTest, ReRequestAfterEvictionIsCorrect) {
  cache().set_capacity(1);
  psdacc::dsp::plan_for(48);
  psdacc::dsp::plan_for(512);  // evicts 48
  auto x = random_signal(48, 31);
  auto reference = x;
  psdacc::dsp::fft(reference);
  psdacc::dsp::plan_for(48).forward(x);  // rebuilt plan
  EXPECT_LT(max_abs_diff(x, reference), 1e-10);
}

}  // namespace
