#include "core/accuracy_engine.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "core/flat_analyzer.hpp"
#include "core/moment_analyzer.hpp"
#include "core/psd_analyzer.hpp"
#include "sim/error_measurement.hpp"
#include "support/random.hpp"

namespace psdacc::core {
namespace {

// Revision-keyed memo of the last full evaluation. Every engine's
// output_noise_power() is a deterministic function of the graph state
// (the simulation engine re-runs the same seeded plan), so a repeated
// evaluation on an unchanged graph — equal sfg::Graph::revision() — may
// return the memoized value bit for bit.
class PowerCache {
 public:
  explicit PowerCache(const sfg::Graph& g) : graph_(g) {}

  template <typename Recompute>
  double get(AccuracyEngine::EvalCounters& counters, Recompute&& recompute) {
    if (valid_ && revision_ == graph_.revision()) {
      ++counters.cached;
      return power_;
    }
    ++counters.full;
    power_ = recompute();
    revision_ = graph_.revision();
    valid_ = true;
    return power_;
  }

 private:
  const sfg::Graph& graph_;
  double power_ = 0.0;
  std::uint64_t revision_ = 0;
  bool valid_ = false;
};

// --- Analytical adapters ---------------------------------------------------
//
// Each adapter owns its analyzer (construction is the tau_pp phase) and
// forwards evaluation; options are kept so clone_for_worker() can build
// an identical engine against a worker's graph clone.

class FlatEngine final : public AccuracyEngine {
 public:
  FlatEngine(const sfg::Graph& g, const EngineOptions& opts)
      : opts_(opts), cache_(g), analyzer_(g, opts.n_psd) {}

  EngineKind kind() const override { return EngineKind::kFlat; }
  EngineCapabilities capabilities() const override {
    return {.spectrum = true, .multirate = false, .stochastic = false,
            .delta = analyzer_.supports_delta()};
  }
  double output_noise_power() override {
    return cache_.get(counters_,
                      [&] { return analyzer_.output_noise_power(); });
  }
  double evaluate_delta(sfg::NodeId v,
                        const fxp::FixedPointFormat& format) override {
    ++counters_.delta;
    return analyzer_.output_noise_power_delta(v, format);
  }
  NoiseSpectrum output_spectrum() override {
    return analyzer_.output_spectrum();
  }
  std::unique_ptr<AccuracyEngine> clone_for_worker(
      const sfg::Graph& g) const override {
    return std::make_unique<FlatEngine>(g, opts_);
  }

 private:
  EngineOptions opts_;
  PowerCache cache_;
  FlatAnalyzer analyzer_;
};

class MomentEngine final : public AccuracyEngine {
 public:
  MomentEngine(const sfg::Graph& g, const EngineOptions& opts)
      : opts_(opts),
        cache_(g),
        analyzer_(g, {.blind_multirate = opts.blind_multirate,
                      .impulse_len = opts.impulse_len}) {}

  EngineKind kind() const override { return EngineKind::kMoment; }
  EngineCapabilities capabilities() const override {
    return {.spectrum = false, .multirate = true, .stochastic = false,
            .delta = analyzer_.supports_delta()};
  }
  double output_noise_power() override {
    return cache_.get(counters_,
                      [&] { return analyzer_.output_noise_power(); });
  }
  double evaluate_delta(sfg::NodeId v,
                        const fxp::FixedPointFormat& format) override {
    if (!analyzer_.supports_delta())
      return AccuracyEngine::evaluate_delta(v, format);  // throws
    ++counters_.delta;
    return analyzer_.output_noise_power_delta(v, format);
  }
  NoiseSpectrum output_spectrum() override {
    throw std::logic_error(
        "moment engine propagates (mu, sigma^2) only; it has no spectrum "
        "(capabilities().spectrum == false)");
  }
  std::unique_ptr<AccuracyEngine> clone_for_worker(
      const sfg::Graph& g) const override {
    return std::make_unique<MomentEngine>(g, opts_);
  }

 private:
  EngineOptions opts_;
  PowerCache cache_;
  MomentAnalyzer analyzer_;
};

// Unlike the other adapters, the psd engine's clones share the
// prototype's compiled model (PsdAnalyzer::Model): binding a worker's
// graph clone is O(1), so a search pays the grid preprocessing once.
class PsdEngine final : public AccuracyEngine {
 public:
  PsdEngine(const sfg::Graph& g, const EngineOptions& opts)
      : PsdEngine(g, opts,
                  PsdAnalyzer::compile(
                      g, {.n_psd = opts.n_psd, .interp = opts.interp})) {}
  PsdEngine(const sfg::Graph& g, const EngineOptions& opts,
            std::shared_ptr<const PsdAnalyzer::Model> model)
      : opts_(opts), cache_(g), analyzer_(g, std::move(model)) {}

  EngineKind kind() const override { return EngineKind::kPsd; }
  EngineCapabilities capabilities() const override {
    return {.spectrum = true, .multirate = true, .stochastic = false,
            .delta = analyzer_.supports_delta()};
  }
  double output_noise_power() override {
    return cache_.get(counters_,
                      [&] { return analyzer_.output_noise_power(); });
  }
  double evaluate_delta(sfg::NodeId v,
                        const fxp::FixedPointFormat& format) override {
    if (!analyzer_.supports_delta())
      return AccuracyEngine::evaluate_delta(v, format);  // throws
    ++counters_.delta;
    return analyzer_.output_noise_power_delta(v, format);
  }
  NoiseSpectrum output_spectrum() override {
    return analyzer_.output_spectrum();
  }
  std::unique_ptr<AccuracyEngine> clone_for_worker(
      const sfg::Graph& g) const override {
    return std::make_unique<PsdEngine>(g, opts_, analyzer_.model());
  }

 private:
  EngineOptions opts_;
  PowerCache cache_;
  PsdAnalyzer analyzer_;
};

// --- Simulation adapter ----------------------------------------------------
//
// Adapts the Monte-Carlo measurement to the engine contract. There is no
// meaningful preprocessing (the execution plan is rebuilt per run because
// every evaluation re-reads the mutated formats anyway), so tau_pp ~ 0 and
// tau_eval carries the full simulation cost — exactly the asymmetry the
// paper's Fig. 6 measures. Every evaluation re-runs the same seeded plan,
// so repeated calls are bit-identical until the graph changes.

class SimulationEngine final : public AccuracyEngine {
 public:
  SimulationEngine(const sfg::Graph& g, const EngineOptions& opts)
      : opts_(opts), graph_(g), cache_(g) {}

  EngineKind kind() const override { return EngineKind::kSimulation; }
  EngineCapabilities capabilities() const override {
    // delta stays false: a Monte-Carlo run has no per-source
    // decomposition to combine from cache; evaluate_delta() inherits the
    // honest base-class throw and drivers fall back to full evaluation.
    return {.spectrum = true, .multirate = true, .stochastic = true,
            .delta = false};
  }
  double output_noise_power() override {
    // Safe to memoize: the run is seeded, so an unchanged graph replays
    // to the identical estimate anyway.
    return cache_.get(counters_,
                      [&] { return measure(/*keep_signal=*/false).power; });
  }
  NoiseSpectrum output_spectrum() override {
    const sim::ErrorMeasurement m = measure(/*keep_signal=*/true);
    const auto psd = sim::measured_error_psd(m, opts_.n_psd);
    NoiseSpectrum spectrum(opts_.n_psd);
    for (std::size_t k = 0; k < psd.size(); ++k) spectrum.bin(k) = psd[k];
    // measured_error_psd folds the DC (mean^2) power into bin 0; the
    // NoiseSpectrum convention keeps the mean separate.
    spectrum.bin(0) -= m.mean * m.mean;
    spectrum.set_mean(m.mean);
    return spectrum;
  }
  std::unique_ptr<AccuracyEngine> clone_for_worker(
      const sfg::Graph& g) const override {
    return std::make_unique<SimulationEngine>(g, opts_);
  }

 private:
  sim::ErrorMeasurement measure(bool keep_signal) const {
    if (opts_.sim_shards <= 1) {
      // Single-stream plan: one input of sim_samples with the transient
      // discard dropped from the measured output.
      Xoshiro256 rng(opts_.sim_seed);
      const auto input =
          uniform_signal(opts_.sim_samples, opts_.sim_amplitude, rng);
      return sim::measure_output_error(graph_, input, opts_.sim_discard,
                                       keep_signal);
    }
    const sim::ShardedErrorConfig mc{.total_samples = opts_.sim_samples,
                                     .shards = opts_.sim_shards,
                                     .discard = opts_.sim_discard,
                                     .seed = opts_.sim_seed,
                                     .input_amplitude = opts_.sim_amplitude,
                                     .keep_signal = keep_signal};
    return sim::measure_output_error_sharded(graph_, mc, opts_.pool);
  }

  EngineOptions opts_;
  const sfg::Graph& graph_;
  PowerCache cache_;
};

}  // namespace

double AccuracyEngine::evaluate_delta(sfg::NodeId,
                                      const fxp::FixedPointFormat&) {
  throw std::logic_error(
      std::string(name()) +
      " engine does not support incremental evaluation on this graph "
      "(capabilities().delta == false); apply the format and call "
      "output_noise_power() instead");
}

std::string_view to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kFlat: return "flat";
    case EngineKind::kMoment: return "moment";
    case EngineKind::kPsd: return "psd";
    case EngineKind::kSimulation: return "simulation";
  }
  return "?";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) {
  if (name == "flat") return EngineKind::kFlat;
  if (name == "moment") return EngineKind::kMoment;
  if (name == "psd") return EngineKind::kPsd;
  if (name == "simulation" || name == "sim") return EngineKind::kSimulation;
  return std::nullopt;
}

bool engine_supports(EngineKind kind, const sfg::Graph& g) {
  if (kind == EngineKind::kFlat) return g.is_single_rate();
  return true;
}

std::string unstable_block(const sfg::Graph& g) {
  for (sfg::NodeId id = 0; id < g.node_count(); ++id) {
    const auto* block = std::get_if<sfg::BlockNode>(&g.node(id).payload);
    if (block == nullptr || block->tf.is_stable()) continue;
    return "block node " + std::to_string(id) + " (\"" +
           std::string(g.name(id)) +
           "\") is not stable: a pole lies on or outside the unit circle";
  }
  return {};
}

std::unique_ptr<AccuracyEngine> make_engine(EngineKind kind,
                                            const sfg::Graph& g,
                                            const EngineOptions& opts) {
  if (!engine_supports(kind, g)) {
    throw std::invalid_argument(
        std::string(to_string(kind)) +
        " engine does not support this graph: the flat method assumes a "
        "single-rate LTI system and the graph contains up/down-samplers "
        "(use the psd, moment, or simulation engine instead)");
  }
  if (std::string why = unstable_block(g); !why.empty())
    throw std::invalid_argument(std::move(why));
  switch (kind) {
    case EngineKind::kFlat: return std::make_unique<FlatEngine>(g, opts);
    case EngineKind::kMoment:
      return std::make_unique<MomentEngine>(g, opts);
    case EngineKind::kPsd: return std::make_unique<PsdEngine>(g, opts);
    case EngineKind::kSimulation:
      return std::make_unique<SimulationEngine>(g, opts);
  }
  throw std::invalid_argument("unknown engine kind");
}

}  // namespace psdacc::core
