// Direct convolution tests: the reference oracle other suites compare
// their block implementations against.
#include <gtest/gtest.h>

#include "dsp/convolution.hpp"
#include "support/random.hpp"

namespace {

using psdacc::Xoshiro256;

TEST(DirectConvolution, KnownSmallCase) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> h{1.0, -1.0};
  const auto y = psdacc::dsp::convolve_direct(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
  EXPECT_DOUBLE_EQ(y[3], -3.0);
}

TEST(DirectConvolution, IdentityKernel) {
  Xoshiro256 rng(1);
  const auto x = psdacc::gaussian_signal(37, rng);
  const std::vector<double> h{1.0};
  const auto y = psdacc::dsp::convolve_direct(x, h);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(DirectConvolution, Commutes) {
  Xoshiro256 rng(2);
  const auto a = psdacc::gaussian_signal(13, rng);
  const auto b = psdacc::gaussian_signal(29, rng);
  const auto ab = psdacc::dsp::convolve_direct(a, b);
  const auto ba = psdacc::dsp::convolve_direct(b, a);
  ASSERT_EQ(ab.size(), ba.size());
  for (std::size_t i = 0; i < ab.size(); ++i)
    EXPECT_NEAR(ab[i], ba[i], 1e-12);
}

}  // namespace
