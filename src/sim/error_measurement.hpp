// Monte-Carlo measurement of the fixed-point error at a graph output, and
// the top-level harness comparing every core::AccuracyEngine against the
// simulated ground truth.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/accuracy_engine.hpp"
#include "sfg/graph.hpp"
#include "support/random.hpp"

namespace psdacc::runtime {
class ThreadPool;
}

namespace psdacc::sim {

/// What the simulation measured at the output.
struct ErrorMeasurement {
  double power = 0.0;          // E[err^2]
  double mean = 0.0;           // E[err]
  double variance = 0.0;       // Var[err]
  std::size_t samples = 0;     // error samples actually accumulated
  std::vector<double> signal;  // the raw error signal (optional use)
};

/// Simulates the graph twice (reference vs fixed-point) on `input` and
/// returns the statistics of the output difference. `discard` initial
/// samples are dropped to skip filter transients. With `keep_signal`
/// false the raw error signal is never materialized — the form repeated
/// probes (e.g. the simulation engine) use.
ErrorMeasurement measure_output_error(const sfg::Graph& g,
                                      std::span<const double> input,
                                      std::size_t discard = 0,
                                      bool keep_signal = true);

/// Sharded Monte-Carlo measurement plan: `shards` independent uniform input
/// streams drawn from non-overlapping RNG substreams of `seed`
/// (Xoshiro256::substream), each simulated with its own transient discard.
struct ShardedErrorConfig {
  std::size_t total_samples = 1u << 20;  ///< Error samples across all shards.
  std::size_t shards = 1;                ///< Independent streams (not workers).
  std::size_t discard = 1024;            ///< Transient discard per shard.
  std::uint64_t seed = 42;
  double input_amplitude = 0.9;  ///< Uniform input in [-a, a].
  bool keep_signal = true;       ///< Concatenate shard error signals.
};

/// Runs the shards (concurrently when @p pool is given) and combines their
/// statistics with a shard-ordered parallel-Welford reduction. The shard
/// decomposition is fixed by @p cfg alone, so the result is bit-identical
/// for any worker count — including serial `pool == nullptr` runs.
ErrorMeasurement measure_output_error_sharded(
    const sfg::Graph& g, const ShardedErrorConfig& cfg,
    runtime::ThreadPool* pool = nullptr);

/// Welch PSD of the simulated error over n_bins, normalized so that
/// sum(bins) == E[err^2]. For validating the estimated spectrum shape.
std::vector<double> measured_error_psd(const ErrorMeasurement& m,
                                       std::size_t n_bins);

/// One engine's entry in an AccuracyReport: what it estimated (or
/// measured) and what the two phases cost — the paper's tau_pp / tau_eval
/// split, reported per engine.
struct EngineEstimate {
  core::EngineKind kind = core::EngineKind::kPsd;
  std::string name;       ///< to_string(kind), for table/report printing
  double power = 0.0;     ///< estimated output noise power
  double ed = 0.0;        ///< Eq. 15 deviation vs the simulation reference
                          ///< (0 for the reference itself); NaN when the
                          ///< report has no reference or it measured zero
  double tau_pp = 0.0;    ///< preprocessing seconds (engine construction)
  double tau_eval = 0.0;  ///< one evaluation pass, seconds
};

/// Engine-keyed comparison report: one EngineEstimate per engine run, in
/// the order requested. Replaces the old fixed psd/moment field pair, so a
/// report can carry any engine set (including future backends) without an
/// API change.
struct AccuracyReport {
  /// Simulated ground-truth power (the kSimulation estimate), 0 when the
  /// simulation engine was not part of the run.
  double reference_power = 0.0;
  std::vector<EngineEstimate> estimates;
  /// The stop predicate ended the run early; `estimates` holds the engines
  /// that completed before it fired.
  bool cancelled = false;

  /// First estimate of @p kind, or nullptr when that engine did not run
  /// (not requested, or skipped as unsupported on this graph).
  const EngineEstimate* find(core::EngineKind kind) const;
  /// As find(), but asserts the engine ran.
  const EngineEstimate& at(core::EngineKind kind) const;
  double power(core::EngineKind kind) const { return at(kind).power; }
  double ed(core::EngineKind kind) const { return at(kind).ed; }
};

struct EvaluationConfig {
  std::size_t n_psd = 1024;
  std::size_t sim_samples = 1u << 20;
  std::size_t discard = 1024;
  std::uint64_t seed = 42;
  double input_amplitude = 0.9;  // uniform input in [-a, a]
  /// > 1 splits the simulation into that many independent Monte-Carlo
  /// shards (see measure_output_error_sharded); 1 keeps the single-stream
  /// run. Results depend on this value, never on the worker count.
  std::size_t shards = 1;
  /// Engines to run, in report order. Engines that cannot evaluate the
  /// graph (engine_supports() == false, e.g. flat on a multirate SFG) are
  /// skipped rather than failing the whole report.
  std::vector<core::EngineKind> engines{core::kAllEngineKinds.begin(),
                                        core::kAllEngineKinds.end()};
};

/// The EngineOptions an evaluation of @p cfg runs with: the spectral
/// resolution and the Monte-Carlo plan, no pool.
core::EngineOptions engine_options_for(const EvaluationConfig& cfg);

/// Runs every requested engine on a SISO graph and scores each against the
/// simulated reference (when kSimulation is among them). When @p pool is
/// given, Monte-Carlo shards (cfg.shards > 1) run concurrently on it.
/// @p stop, when given, is polled before each supported engine; once it
/// returns true the run ends with `cancelled` set and the engines completed
/// so far in `estimates`. This is the one loop over `cfg.engines`: golden
/// regeneration and served evaluations go through it too.
AccuracyReport evaluate_accuracy(const sfg::Graph& g,
                                 const EvaluationConfig& cfg,
                                 runtime::ThreadPool* pool = nullptr,
                                 const std::function<bool()>& stop = {});

}  // namespace psdacc::sim
