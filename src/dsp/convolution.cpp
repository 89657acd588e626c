#include "dsp/convolution.hpp"

#include "support/assert.hpp"

namespace psdacc::dsp {

std::vector<double> convolve_direct(std::span<const double> x,
                                    std::span<const double> h) {
  PSDACC_EXPECTS(!x.empty() && !h.empty());
  std::vector<double> out(x.size() + h.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < h.size(); ++j) out[i + j] += x[i] * h[j];
  return out;
}

}  // namespace psdacc::dsp
