/// @file accuracy_engine.hpp
/// The unified accuracy-evaluation interface — one polymorphic contract
/// over every method the paper compares: the flat spectral method (Menard
/// et al. [8], Eq. 4), the PSD-agnostic moment baseline ([4], [9]), the
/// proposed hierarchical PSD method (Section III), and bit-true Monte-Carlo
/// simulation (the ground truth).
///
/// The interface captures the paper's two-phase cost contract:
///  * construction ("preprocessing", tau_pp) — everything that depends only
///    on topology and block coefficients is computed once by
///    `make_engine()`;
///  * `output_noise_power()` ("evaluation", tau_eval) — cheap and
///    repeatable; re-reads the graph's current quantizer/block formats, so
///    drivers may mutate word-lengths between calls without rebuilding.
///
/// Thread-safety contract: one engine instance carries mutable evaluation
/// scratch and must be driven from one thread at a time. Parallel drivers
/// (the optimizer's concurrent probes, runtime::BatchRunner workers) give
/// every worker its own graph clone plus `clone_for_worker()` engine — the
/// per-worker-clone pattern the parallel runtime established. Read-only
/// state a clone shares with its prototype (the psd engine's compiled
/// model) is immutable, so clones stay independent across threads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/noise_spectrum.hpp"
#include "fixedpoint/format.hpp"
#include "sfg/graph.hpp"

namespace psdacc::runtime {
class ThreadPool;
}

namespace psdacc::core {

/// The four accuracy-evaluation methods the paper compares.
enum class EngineKind {
  kFlat,        ///< flat spectral method, Eq. 4 (exact, scales poorly)
  kMoment,      ///< PSD-agnostic hierarchical baseline (mu, sigma^2 only)
  kPsd,         ///< proposed hierarchical PSD propagation (Section III)
  kSimulation,  ///< bit-true Monte-Carlo simulation (ground truth)
};

/// All kinds, in the order reports list them (reference first).
inline constexpr std::array<EngineKind, 4> kAllEngineKinds = {
    EngineKind::kSimulation, EngineKind::kPsd, EngineKind::kMoment,
    EngineKind::kFlat};

/// Stable lowercase name ("flat", "moment", "psd", "simulation").
std::string_view to_string(EngineKind kind);

/// Inverse of to_string(); also accepts "sim". Empty optional on unknown
/// names — drivers turn that into their own usage error.
std::optional<EngineKind> parse_engine_kind(std::string_view name);

/// What an engine can honestly do. Drivers query this instead of
/// hard-coding per-method special cases.
struct EngineCapabilities {
  bool spectrum = false;   ///< output_spectrum() is supported
  bool multirate = false;  ///< accepts graphs with up/down-samplers
  bool stochastic = false; ///< estimate carries Monte-Carlo noise (seeded)
  /// evaluate_delta() is supported *on the bound graph*. Per-instance on
  /// purpose: the analytical engines decompose the output noise per
  /// source, which is exact only where propagation is linear in each
  /// source's (variance, mean) — upsamplers break it for the psd engine
  /// (and for the moment engine under corrected multirate rules), and the
  /// simulation engine has no decomposition at all. Drivers that find
  /// delta == false fall back to full evaluation.
  bool delta = false;
};

/// Union of every backend's tuning knobs; each engine reads only its own.
/// One options struct (rather than a per-kind variant) keeps sweep drivers
/// trivial: configure once, construct any kind.
struct EngineOptions {
  // flat + psd: spectral resolution (the paper's N_PSD).
  std::size_t n_psd = 1024;
  // psd: interpolation for fractional bin indices in the multirate fold.
  NoiseSpectrum::Interp interp = NoiseSpectrum::Interp::kLinear;
  // moment: blind vs corrected multirate rules, IIR power-gain truncation.
  bool blind_multirate = true;
  std::size_t impulse_len = 8192;
  // simulation: Monte-Carlo plan (see sim::measure_output_error_sharded;
  // shards > 1 splits the run into independent RNG substreams).
  std::size_t sim_samples = 1u << 20;
  std::size_t sim_shards = 1;
  std::size_t sim_discard = 1024;
  std::uint64_t sim_seed = 42;
  double sim_amplitude = 0.9;  ///< uniform input in [-a, a]
  /// Optional pool for concurrent simulation shards (not owned). The other
  /// engines are single-threaded by design; results never depend on this.
  runtime::ThreadPool* pool = nullptr;
};

/// Polymorphic accuracy engine over one (graph, options) binding.
class AccuracyEngine {
 public:
  /// Per-instance evaluation accounting — the probe-counter hook tests
  /// and drivers use to assert cache behavior (cache-warm repeated
  /// evaluation, delta probes actually taking the delta path).
  struct EvalCounters {
    std::size_t full = 0;    ///< full output_noise_power() recomputations
    std::size_t cached = 0;  ///< revision-cache hits (graph unchanged)
    std::size_t delta = 0;   ///< evaluate_delta() probes
  };

  virtual ~AccuracyEngine() = default;

  virtual EngineKind kind() const = 0;
  std::string_view name() const { return to_string(kind()); }
  virtual EngineCapabilities capabilities() const = 0;

  /// Total estimated (or measured) noise power at the single Output node
  /// for the graph's *current* word-length assignment. This is the tau_eval
  /// phase: cheap and repeatable for the analytical engines, a full
  /// Monte-Carlo run for the simulation engine. Every engine's evaluation
  /// is a pure function of the graph state, so results are memoized on
  /// sfg::Graph::revision(): re-evaluating an unchanged graph is a cache
  /// hit (eval_counters().cached) returning the identical bits.
  virtual double output_noise_power() = 0;

  /// Incremental probe: total output noise power as if noise source @p v
  /// carried the word-length format @p format (PQN moments re-derived from
  /// it, exactly as applying the assignment would), every other node
  /// unchanged. The graph is not mutated. Combines cached per-source
  /// noise contributions with one re-derived term, so a probe is
  /// O(sources) instead of O(graph) — the optimizer's inner loop lives on
  /// this. Exact up to floating-point reordering against
  /// apply-then-output_noise_power().
  /// @throws std::logic_error when !capabilities().delta (the simulation
  ///         engine always; psd/moment engines on graphs where the
  ///         per-source decomposition would be dishonest) — callers check
  ///         the capability and fall back to full evaluation.
  virtual double evaluate_delta(sfg::NodeId v,
                                const fxp::FixedPointFormat& format);

  const EvalCounters& eval_counters() const { return counters_; }

  /// Output noise spectrum at the engine's configured resolution.
  /// @throws std::logic_error when !capabilities().spectrum (moment engine).
  virtual NoiseSpectrum output_spectrum() = 0;

  /// A new engine of the same kind and options bound to @p g — a private
  /// copy of the driver's graph (NodeIds are indices, so ids remain
  /// valid), with any formats. @p g must outlive the returned engine; the
  /// prototype need not. The psd engine shares the prototype's immutable
  /// compiled model, so its clone costs O(1) and no grid work; the flat
  /// and moment engines redo their preprocessing; the simulation engine
  /// has none.
  /// @throws std::invalid_argument (psd) when @p g's node count or
  ///         topology revision differs from the prototype's graph at
  ///         construction, i.e. @p g is not a copy of it
  virtual std::unique_ptr<AccuracyEngine> clone_for_worker(
      const sfg::Graph& g) const = 0;

 protected:
  EvalCounters counters_;
};

/// True when @p kind can evaluate @p g (today: the flat engine refuses
/// multirate graphs; everything else accepts any acyclic SFG).
bool engine_supports(EngineKind kind, const sfg::Graph& g);

/// Why no engine can evaluate @p g, or empty. A block with a pole on or
/// outside the unit circle has no finite power response: the analytical
/// engines would trip an internal precondition on it and the simulation
/// would diverge. Drivers that must answer before building an engine (the
/// serve daemon's INVALID reply) call this directly.
std::string unstable_block(const sfg::Graph& g);

/// Factory: preprocesses @p g (tau_pp) and returns the engine.
/// @param g    acyclic SFG with exactly one Output; must outlive the engine
/// @param opts per-backend knobs (each engine reads only its own)
/// @throws std::invalid_argument when engine_supports(kind, g) is false,
///         e.g. the flat engine on a multirate graph, or when a block is
///         unstable (the message is unstable_block(g))
std::unique_ptr<AccuracyEngine> make_engine(EngineKind kind,
                                            const sfg::Graph& g,
                                            const EngineOptions& opts = {});

}  // namespace psdacc::core
