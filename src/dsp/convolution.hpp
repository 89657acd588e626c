// Direct linear convolution: the reference oracle the filter, wavelet and
// frequency-domain tests compare their block implementations against.
#pragma once

#include <span>
#include <vector>

namespace psdacc::dsp {

/// Direct O(N*M) linear convolution; output length N + M - 1.
std::vector<double> convolve_direct(std::span<const double> x,
                                    std::span<const double> h);

}  // namespace psdacc::dsp
