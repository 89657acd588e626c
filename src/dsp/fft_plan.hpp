// Cached FFT plans.
//
// An FftPlan precomputes everything about a transform of one size that does
// not depend on the data: the bit-reversal permutation and per-stage twiddle
// tables for the radix-2 path, and the chirp sequence plus the kernel
// spectrum for the Bluestein path. Plans also carry the scratch buffers the
// transform needs, so a hot loop that transforms the same length repeatedly
// (Welch segmentation, overlap-save blocks, PSD probes) performs no
// allocations and no trigonometry after the first call.
//
// Internally every table and scratch buffer lives in split-complex (SoA)
// layout — separate re/im arrays — so the butterfly stages and Bluestein
// pointwise products run through the vectorized dsp::kernels entry points.
// The public interface stays interleaved std::complex; the entry points
// convert at the boundary (the real-input path packs straight into split
// scratch and never interleaves an intermediate).
//
// `PlanCache::instance()` (and the `plan_for(n)` convenience) returns a
// cached plan per size. The cache is thread-local: concurrent lookups from
// different threads are safe and each thread gets its own plan instances
// (plans own mutable scratch, so a single plan must not be driven from two
// threads at once). Anything that holds a plan pointer (a parent plan's
// sub-plans, a spectral estimator mid-call) is therefore bound to the
// thread that created it; the `runtime::` ThreadPool workloads respect
// this by giving every worker its own analyzers and plans.
//
// The cache is *bounded*: at most `PlanCache::capacity()` plans per thread,
// least-recently-used evicted first, so a long-running server worker that
// sweeps many transform sizes cannot grow the twiddle tables without bound.
// Eviction is safe for live holders: plans are shared_ptr-owned and a plan
// owns its sub-plans (Bluestein convolution size, rfft half size), so
// evicting an entry only drops the cache's reference — anything still using
// the plan (a parent plan, a `PlanCache::handle` holder) keeps it alive.
// References returned by `plan_for` are only guaranteed until the calling
// thread's next `plan_for`/`PlanCache::handle` call; holders that outlive
// that use `PlanCache::handle`.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace psdacc::dsp {

/// Reusable transform of one fixed size. Forward convention matches fft():
/// X[k] = sum_n x[n] e^{-j 2 pi k n / N}; inverse() includes the 1/N.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward transform; data.size() must equal size().
  void forward(std::vector<cplx>& data) const;
  /// In-place inverse transform (includes the 1/N normalization).
  void inverse(std::vector<cplx>& data) const;

  /// Real-input forward transform: out receives all size() complex bins of
  /// the FFT of x zero-padded (or truncated) to size(). Even sizes use the
  /// half-length complex-transform trick (one FFT of size()/2); odd sizes
  /// fall back to the complex path.
  void rfft(std::span<const double> x, std::vector<cplx>& out) const;

 private:
  /// Core transform over caller-owned split-complex arrays of size().
  void forward_split(double* re, double* im) const;
  void transform_pow2_split(double* re, double* im, int sign) const;
  void bluestein_split(double* re, double* im) const;

  std::size_t n_;
  // Radix-2 path (n_ a power of two).
  std::vector<std::size_t> bitrev_swaps_;  // (i, j) pairs with i < j
  // Forward twiddles, stages concatenated, split re/im.
  std::vector<double> twiddle_re_;
  std::vector<double> twiddle_im_;
  // Bluestein path (n_ not a power of two): convolution plan of size m.
  // Sub-plans are shared with the cache but co-owned, so cache eviction
  // can never dangle a live parent plan.
  std::shared_ptr<const FftPlan> conv_;
  std::vector<double> chirp_re_;   // e^{-j pi i^2 / n}, n entries
  std::vector<double> chirp_im_;
  std::vector<double> kernel_re_;  // FFT_m of the chirp kernel
  std::vector<double> kernel_im_;
  mutable std::vector<double> work_re_;  // size m scratch
  mutable std::vector<double> work_im_;
  // Split scratch of size n_ for the interleaved entry points.
  mutable std::vector<double> split_re_;
  mutable std::vector<double> split_im_;
  // Real-input path (n_ even): half-size plan + post-combine twiddles.
  std::shared_ptr<const FftPlan> half_;
  std::vector<double> rfft_tw_re_;      // e^{-j 2 pi k / n}, k = 0..n/2
  std::vector<double> rfft_tw_im_;
  mutable std::vector<double> half_re_;  // size n/2 scratch
  mutable std::vector<double> half_im_;
};

/// Facade over the calling thread's bounded LRU plan cache. All state is
/// thread-local; `instance()` hands back the current thread's view, so the
/// usual shape is `PlanCache::instance().handle(n)`. See the file comment
/// for the eviction/lifetime contract.
class PlanCache {
 public:
  /// The calling thread's cache.
  static PlanCache& instance();

  /// Cached plan with shared ownership: stays alive for the holder even
  /// after eviction. The form every object that keeps a plan across calls
  /// (a parent plan's Bluestein and rfft sub-plans) uses.
  std::shared_ptr<const FftPlan> handle(std::size_t n);

  /// Cached plan by reference; valid until this thread's next cache
  /// lookup (which may evict) or clear().
  const FftPlan& get(std::size_t n);

  /// Number of plans currently cached by this thread.
  std::size_t size() const;

  /// Per-thread plan count cap (default 64). Eviction is LRU and never
  /// invalidates live holders. The cap is clamped to >= 1; setting it
  /// below the current size evicts immediately.
  std::size_t capacity() const;
  void set_capacity(std::size_t capacity);

  /// Drops this thread's cached plans. Plans checked out via handle()
  /// survive; bare get()/plan_for references dangle (test hook).
  void clear();

 private:
  PlanCache() = default;
};

/// Thread-local cached plan lookup, the common shorthand for
/// `PlanCache::instance().get(n)`. The returned reference stays valid
/// until this thread's next cache lookup; use `PlanCache::handle` to hold
/// a plan longer.
const FftPlan& plan_for(std::size_t n);

}  // namespace psdacc::dsp
