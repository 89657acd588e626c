#include "sim/error_measurement.hpp"

#include <cmath>
#include <limits>

#include "core/metrics.hpp"
#include "dsp/spectral.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/execution_plan.hpp"
#include "support/assert.hpp"
#include "support/statistics.hpp"
#include "support/timer.hpp"

namespace psdacc::sim {

ErrorMeasurement measure_output_error(const sfg::Graph& g,
                                      std::span<const double> input,
                                      std::size_t discard,
                                      bool keep_signal) {
  // One compiled plan serves both sweeps; the reference output must be
  // copied out because the fixed-point run reuses the plan's buffers.
  ExecutionPlan plan(g);
  const auto ref_view = plan.run_sisos(input, Mode::kReference);
  const std::vector<double> ref(ref_view.begin(), ref_view.end());
  const auto fx = plan.run_sisos(input, Mode::kFixedPoint);
  PSDACC_EXPECTS(ref.size() == fx.size());
  PSDACC_EXPECTS(ref.size() > discard);

  ErrorMeasurement m;
  if (keep_signal) m.signal.reserve(ref.size() - discard);
  RunningStats stats;
  for (std::size_t i = discard; i < ref.size(); ++i) {
    const double e = fx[i] - ref[i];
    if (keep_signal) m.signal.push_back(e);
    stats.add(e);
  }
  m.power = stats.mean_square();
  m.mean = stats.mean();
  m.variance = stats.variance();
  m.samples = stats.count();
  return m;
}

ErrorMeasurement measure_output_error_sharded(const sfg::Graph& g,
                                              const ShardedErrorConfig& cfg,
                                              runtime::ThreadPool* pool) {
  PSDACC_EXPECTS(cfg.shards >= 1);
  PSDACC_EXPECTS(cfg.total_samples >= cfg.shards);
  // Split total_samples exactly: the first (total mod shards) shards
  // measure one extra sample, so result.samples == total_samples always.
  const std::size_t base_samples = cfg.total_samples / cfg.shards;
  const std::size_t extra_shards = cfg.total_samples % cfg.shards;
  const Xoshiro256 base(cfg.seed);

  // Shards are fully independent: their own RNG substream, input signal,
  // and execution plan (the shared graph is only read, once its lazy
  // caches are filled below). Running them via parallel_map keeps the
  // per-shard work identical for any worker count; only the reduction
  // below could reorder, and it runs in shard order.
  auto run_shard = [&](std::size_t s) {
    const std::size_t samples = base_samples + (s < extra_shards ? 1 : 0);
    Xoshiro256 rng = base.substream(s);
    const auto input =
        uniform_signal(samples + cfg.discard, cfg.input_amplitude, rng);
    return measure_output_error(g, input, cfg.discard, cfg.keep_signal);
  };
  // sfg::Graph fills its role and reverse-edge caches lazily on first
  // const use, without synchronization, and every shard's ExecutionPlan
  // reads both (outputs()/inputs(), has_cycles()/topological_order()).
  // Fill them here, on the calling thread, before the shards run.
  g.outputs();
  if (g.node_count() > 0) g.consumers(0);
  std::vector<ErrorMeasurement> shards =
      pool != nullptr ? pool->parallel_map(cfg.shards, run_shard)
                      : [&] {
                          std::vector<ErrorMeasurement> out(cfg.shards);
                          for (std::size_t s = 0; s < cfg.shards; ++s)
                            out[s] = run_shard(s);
                          return out;
                        }();

  // Deterministic ordered reduction: rebuild each shard's Welford state
  // from its reported moments and merge in shard-index order.
  ErrorMeasurement total;
  if (cfg.keep_signal) total.signal.reserve(cfg.total_samples);
  RunningStats stats;
  for (const ErrorMeasurement& m : shards) {
    stats.merge(RunningStats::from_moments(
        m.samples, m.mean, m.variance * static_cast<double>(m.samples)));
    if (cfg.keep_signal)
      total.signal.insert(total.signal.end(), m.signal.begin(),
                          m.signal.end());
  }
  total.power = stats.mean_square();
  total.mean = stats.mean();
  total.variance = stats.variance();
  total.samples = stats.count();
  return total;
}

std::vector<double> measured_error_psd(const ErrorMeasurement& m,
                                       std::size_t n_bins) {
  PSDACC_EXPECTS(!m.signal.empty());
  // Welch on the zero-mean part, then put the DC power back in bin 0 so the
  // total matches E[err^2].
  std::vector<double> centered(m.signal.size());
  for (std::size_t i = 0; i < centered.size(); ++i)
    centered[i] = m.signal[i] - m.mean;
  auto psd = dsp::welch_psd(centered, n_bins);
  psd[0] += m.mean * m.mean;
  return psd;
}

const EngineEstimate* AccuracyReport::find(core::EngineKind kind) const {
  for (const EngineEstimate& e : estimates)
    if (e.kind == kind) return &e;
  return nullptr;
}

const EngineEstimate& AccuracyReport::at(core::EngineKind kind) const {
  const EngineEstimate* e = find(kind);
  PSDACC_EXPECTS(e != nullptr && "engine did not run in this report");
  return *e;
}

core::EngineOptions engine_options_for(const EvaluationConfig& cfg) {
  core::EngineOptions opts;
  opts.n_psd = cfg.n_psd;
  opts.sim_samples = cfg.sim_samples;
  opts.sim_shards = cfg.shards;
  opts.sim_discard = cfg.discard;
  opts.sim_seed = cfg.seed;
  opts.sim_amplitude = cfg.input_amplitude;
  return opts;
}

AccuracyReport evaluate_accuracy(const sfg::Graph& g,
                                 const EvaluationConfig& cfg,
                                 runtime::ThreadPool* pool,
                                 const std::function<bool()>& stop) {
  core::EngineOptions opts = engine_options_for(cfg);
  opts.pool = pool;

  AccuracyReport report;
  report.estimates.reserve(cfg.engines.size());
  for (const core::EngineKind kind : cfg.engines) {
    if (!core::engine_supports(kind, g)) continue;  // e.g. flat, multirate
    if (stop && stop()) {
      report.cancelled = true;
      break;
    }
    EngineEstimate est;
    est.kind = kind;
    est.name = core::to_string(kind);
    const Stopwatch pp;
    const auto engine = core::make_engine(kind, g, opts);
    est.tau_pp = pp.seconds();
    const Stopwatch eval;
    est.power = engine->output_noise_power();
    est.tau_eval = eval.seconds();
    report.estimates.push_back(std::move(est));
  }

  // Score every estimate against the simulated reference (its own ed is 0
  // by construction). Without a reference — or with a zero-power one,
  // where Eq. 15 is undefined — the other deviations are NaN.
  const EngineEstimate* ref = report.find(core::EngineKind::kSimulation);
  report.reference_power = ref != nullptr ? ref->power : 0.0;
  for (EngineEstimate& e : report.estimates) {
    if (&e == ref)
      e.ed = 0.0;
    else
      e.ed = ref != nullptr && ref->power > 0.0
                 ? core::mse_deviation(ref->power, e.power)
                 : std::numeric_limits<double>::quiet_NaN();
  }
  return report;
}

}  // namespace psdacc::sim
