#include "dsp/fft_plan.hpp"

#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numbers>
#include <unordered_map>

#include "dsp/kernels.hpp"
#include "support/assert.hpp"

// Transforms run in split-complex (SoA) layout throughout: the butterfly
// stages and Bluestein pointwise products call the vectorized dsp::kernels
// entry points, and only the interleaved std::complex boundary converts.
// The kernels reproduce libstdc++'s finite-operand complex arithmetic
// operation for operation, so the results are bit-identical to the old
// interleaved implementation (and between SIMD and scalar builds).

namespace psdacc::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  PSDACC_EXPECTS(n >= 1);
  PlanCache& cache = PlanCache::instance();
  if (is_power_of_two(n_)) {
    // Bit-reversal permutation, stored as the swap pairs applied in order.
    for (std::size_t i = 1, j = 0; i < n_; ++i) {
      std::size_t bit = n_ >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) {
        bitrev_swaps_.push_back(i);
        bitrev_swaps_.push_back(j);
      }
    }
    // Forward twiddles e^{-j 2 pi k / len}, k = 0..len/2-1, one run per
    // butterfly stage; the stage with span `len` starts at offset len/2 - 1.
    const std::size_t total = n_ > 1 ? n_ - 1 : 0;
    twiddle_re_.reserve(total);
    twiddle_im_.reserve(total);
    for (std::size_t len = 2; len <= n_; len <<= 1) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const double angle = -2.0 * std::numbers::pi *
                             static_cast<double>(k) /
                             static_cast<double>(len);
        twiddle_re_.push_back(std::cos(angle));
        twiddle_im_.push_back(std::sin(angle));
      }
    }
  } else {
    // Bluestein: DFT as a convolution with a chirp, via a power-of-two FFT.
    const std::size_t m = next_power_of_two(2 * n_ + 1);
    conv_ = cache.handle(m);
    chirp_re_.resize(n_);
    chirp_im_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      // angle = -pi * i^2 / n, with i^2 taken mod 2n to avoid overflow.
      const std::size_t sq = (i * i) % (2 * n_);
      const double angle = -std::numbers::pi * static_cast<double>(sq) /
                           static_cast<double>(n_);
      chirp_re_[i] = std::cos(angle);
      chirp_im_[i] = std::sin(angle);
    }
    kernel_re_.assign(m, 0.0);
    kernel_im_.assign(m, 0.0);
    kernel_re_[0] = chirp_re_[0];
    kernel_im_[0] = -chirp_im_[0];
    for (std::size_t i = 1; i < n_; ++i) {
      kernel_re_[i] = chirp_re_[i];
      kernel_im_[i] = -chirp_im_[i];
      kernel_re_[m - i] = chirp_re_[i];
      kernel_im_[m - i] = -chirp_im_[i];
    }
    conv_->transform_pow2_split(kernel_re_.data(), kernel_im_.data(), -1);
    work_re_.resize(m);
    work_im_.resize(m);
  }
  split_re_.resize(n_);
  split_im_.resize(n_);
  if (n_ >= 2 && n_ % 2 == 0) {
    half_ = cache.handle(n_ / 2);
    rfft_tw_re_.resize(n_ / 2 + 1);
    rfft_tw_im_.resize(n_ / 2 + 1);
    for (std::size_t k = 0; k <= n_ / 2; ++k) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(n_);
      rfft_tw_re_[k] = std::cos(angle);
      rfft_tw_im_[k] = std::sin(angle);
    }
    half_re_.resize(n_ / 2);
    half_im_.resize(n_ / 2);
  }
}

void FftPlan::transform_pow2_split(double* re, double* im, int sign) const {
  for (std::size_t p = 0; p < bitrev_swaps_.size(); p += 2) {
    std::swap(re[bitrev_swaps_[p]], re[bitrev_swaps_[p + 1]]);
    std::swap(im[bitrev_swaps_[p]], im[bitrev_swaps_[p + 1]]);
  }
  const double* wr = twiddle_re_.data();
  const double* wi = twiddle_im_.data();
  const bool conj_tw = sign > 0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len)
      kernels::butterfly(re + i, im + i, half, wr, wi, conj_tw);
    wr += half;
    wi += half;
  }
}

void FftPlan::bluestein_split(double* re, double* im) const {
  const std::size_t m = work_re_.size();
  std::copy(re, re + n_, work_re_.begin());
  std::copy(im, im + n_, work_im_.begin());
  kernels::complex_mul({work_re_.data(), n_}, {work_im_.data(), n_},
                       {chirp_re_.data(), n_}, {chirp_im_.data(), n_});
  std::fill(work_re_.begin() + static_cast<std::ptrdiff_t>(n_),
            work_re_.end(), 0.0);
  std::fill(work_im_.begin() + static_cast<std::ptrdiff_t>(n_),
            work_im_.end(), 0.0);
  conv_->transform_pow2_split(work_re_.data(), work_im_.data(), -1);
  kernels::complex_mul({work_re_.data(), m}, {work_im_.data(), m},
                       {kernel_re_.data(), m}, {kernel_im_.data(), m});
  conv_->transform_pow2_split(work_re_.data(), work_im_.data(), +1);
  // Same operation order as the interleaved original: the 1/m scaling
  // applies before the chirp product.
  const double inv_m = 1.0 / static_cast<double>(m);
  kernels::scale({work_re_.data(), n_}, inv_m);
  kernels::scale({work_im_.data(), n_}, inv_m);
  kernels::complex_mul({work_re_.data(), n_}, {work_im_.data(), n_},
                       {chirp_re_.data(), n_}, {chirp_im_.data(), n_});
  std::copy(work_re_.begin(), work_re_.begin() + static_cast<std::ptrdiff_t>(n_),
            re);
  std::copy(work_im_.begin(), work_im_.begin() + static_cast<std::ptrdiff_t>(n_),
            im);
}

void FftPlan::forward_split(double* re, double* im) const {
  if (n_ == 1) return;
  if (conv_ == nullptr) {
    transform_pow2_split(re, im, -1);
  } else {
    bluestein_split(re, im);
  }
}

void FftPlan::forward(std::vector<cplx>& data) const {
  PSDACC_EXPECTS(data.size() == n_);
  if (n_ == 1) return;
  kernels::split_complex(data, split_re_, split_im_);
  forward_split(split_re_.data(), split_im_.data());
  kernels::merge_complex(split_re_, split_im_, data);
}

void FftPlan::inverse(std::vector<cplx>& data) const {
  PSDACC_EXPECTS(data.size() == n_);
  if (n_ == 1) return;
  kernels::split_complex(data, split_re_, split_im_);
  const double inv_n = 1.0 / static_cast<double>(n_);
  if (conv_ == nullptr) {
    transform_pow2_split(split_re_.data(), split_im_.data(), +1);
    kernels::scale(split_re_, inv_n);
    kernels::scale(split_im_, inv_n);
  } else {
    // IFFT(x) = conj(FFT(conj(x))) / n keeps the Bluestein tables
    // forward-only. Conjugation is a sign flip on the imaginary array
    // (multiplying by -1 is exact), and the trailing conj folds into the
    // 1/n scaling.
    kernels::scale(split_im_, -1.0);
    bluestein_split(split_re_.data(), split_im_.data());
    kernels::scale(split_re_, inv_n);
    kernels::scale(split_im_, -inv_n);
  }
  kernels::merge_complex(split_re_, split_im_, data);
}

void FftPlan::rfft(std::span<const double> x, std::vector<cplx>& out) const {
  const std::size_t copy = std::min(n_, x.size());
  if (half_ == nullptr) {
    // Size 1 or odd size: plain complex transform of the real signal.
    out.assign(n_, cplx(0.0, 0.0));
    for (std::size_t i = 0; i < copy; ++i) out[i] = cplx(x[i], 0.0);
    forward(out);
    return;
  }
  // Pack pairs of real samples into one half-length complex signal,
  // z[i] = x[2i] + j x[2i+1] — in split layout that is exactly a
  // deinterleave of the input, straight into the half-size scratch.
  const std::size_t h = n_ / 2;
  if (copy == n_) {
    kernels::split_complex(
        {reinterpret_cast<const cplx*>(x.data()), h}, half_re_, half_im_);
  } else {
    for (std::size_t i = 0; i < h; ++i) {
      half_re_[i] = 2 * i < copy ? x[2 * i] : 0.0;
      half_im_[i] = 2 * i + 1 < copy ? x[2 * i + 1] : 0.0;
    }
  }
  half_->forward_split(half_re_.data(), half_im_.data());
  // Split Z into the even/odd-sample spectra and recombine:
  // X[k] = E[k] + W_n^k O[k], with X[n-k] = conj(X[k]). The component
  // expressions below spell out the complex arithmetic of the interleaved
  // original (including the zero products) so results match it bit for
  // bit.
  out.resize(n_);
  out[0] = cplx(half_re_[0] + half_im_[0], 0.0);
  out[h] = cplx(half_re_[0] - half_im_[0], 0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const double ar = half_re_[k];
    const double ai = half_im_[k];
    const double br = half_re_[h - k];
    const double bi = -half_im_[h - k];  // conj(Z[h-k])
    const double even_re = 0.5 * (ar + br);
    const double even_im = 0.5 * (ai + bi);
    const double d_re = ar - br;
    const double d_im = ai - bi;
    // odd = (0 - 0.5j) * d, written as the full product formula.
    const double odd_re = 0.0 * d_re - (-0.5) * d_im;
    const double odd_im = 0.0 * d_im + (-0.5) * d_re;
    const double wr = rfft_tw_re_[k];
    const double wi = rfft_tw_im_[k];
    const double xk_re = even_re + (wr * odd_re - wi * odd_im);
    const double xk_im = even_im + (wr * odd_im + wi * odd_re);
    out[k] = cplx(xk_re, xk_im);
    out[n_ - k] = cplx(xk_re, -xk_im);
  }
}

namespace {

constexpr std::size_t kDefaultPlanCacheCapacity = 64;

struct CacheEntry {
  std::shared_ptr<const FftPlan> plan;
  std::uint64_t last_use = 0;
};

// One cache per thread: plans carry mutable scratch, so sharing instances
// across threads would race. Thread-local duplication trades a little
// memory (twiddle tables per worker) for lock-free lookups on the hot path.
// Bounded: LRU-evicted down to `capacity` after every insert, so a server
// worker sweeping arbitrary transform sizes holds O(capacity) plans.
struct CacheState {
  std::unordered_map<std::size_t, CacheEntry> map;
  std::uint64_t tick = 0;
  std::size_t capacity = kDefaultPlanCacheCapacity;
};

CacheState& thread_cache() {
  thread_local CacheState cache;
  return cache;
}

// Evicting is a plain erase: the shared_ptr keeps the plan alive for any
// holder (a parent plan's sub-plan member, a caller mid
// PlanCache::handle), so eviction can only ever free memory, never dangle.
void evict_to_capacity(CacheState& cache) {
  while (cache.map.size() > cache.capacity) {
    auto victim = cache.map.begin();
    for (auto it = std::next(victim); it != cache.map.end(); ++it)
      if (it->second.last_use < victim->second.last_use) victim = it;
    cache.map.erase(victim);
  }
}

}  // namespace

PlanCache& PlanCache::instance() {
  // The facade is stateless (all real state is in thread_cache()), but
  // handing out a thread_local instance keeps the call sites honest about
  // the per-thread scoping.
  thread_local PlanCache facade;
  return facade;
}

std::shared_ptr<const FftPlan> PlanCache::handle(std::size_t n) {
  PSDACC_EXPECTS(n >= 1);
  CacheState& cache = thread_cache();
  const auto it = cache.map.find(n);
  if (it != cache.map.end()) {
    it->second.last_use = ++cache.tick;
    return it->second.plan;
  }
  // Construct before inserting: the constructor recurses into handle()
  // for its sub-plans (Bluestein convolution size, rfft half size), and
  // those inserts may themselves evict.
  auto plan = std::make_shared<const FftPlan>(n);
  CacheEntry& entry = cache.map[n];
  entry.plan = plan;
  entry.last_use = ++cache.tick;
  evict_to_capacity(cache);
  return plan;
}

const FftPlan& PlanCache::get(std::size_t n) { return *handle(n); }

std::size_t PlanCache::size() const { return thread_cache().map.size(); }

std::size_t PlanCache::capacity() const { return thread_cache().capacity; }

void PlanCache::set_capacity(std::size_t capacity) {
  CacheState& cache = thread_cache();
  cache.capacity = capacity < 1 ? 1 : capacity;
  evict_to_capacity(cache);
}

void PlanCache::clear() { thread_cache().map.clear(); }

const FftPlan& plan_for(std::size_t n) {
  // The cache's reference keeps the plan alive after the handle returned
  // here dies; the next insert may evict it, which is why bare references
  // are only stable until the thread's next plan_for call.
  return PlanCache::instance().get(n);
}

}  // namespace psdacc::dsp
