// Simulation-engine tests: reference/fixed-point execution, error
// measurement statistics, transient discarding, and measured error PSDs.
#include <cmath>

#include <gtest/gtest.h>

#include "core/accuracy_engine.hpp"
#include "filters/fir_design.hpp"
#include "filters/iir_design.hpp"
#include "runtime/thread_pool.hpp"
#include "sfg/serialize.hpp"
#include "sim/error_measurement.hpp"
#include "sim/executor.hpp"
#include "support/random.hpp"

namespace {

using namespace psdacc;
using sfg::Graph;

TEST(ErrorMeasurement, PureQuantizerErrorStatistics) {
  Graph g;
  const auto in = g.add_input();
  g.add_output(g.add_quantizer(in, fxp::q_format(4, 8)));
  Xoshiro256 rng(1);
  const auto x = uniform_signal(1u << 17, 0.9, rng);
  const auto m = sim::measure_output_error(g, x, 0);
  const auto predicted =
      fxp::continuous_quantization_noise(fxp::q_format(4, 8));
  EXPECT_NEAR(m.power, predicted.power(), 0.03 * predicted.power());
  EXPECT_NEAR(m.mean, 0.0, 0.02 * fxp::q_format(4, 8).step());
  EXPECT_EQ(m.samples, x.size());
}

TEST(ErrorMeasurement, TruncationBiasVisible) {
  const auto fmt = fxp::q_format(4, 8, fxp::RoundingMode::kTruncate);
  Graph g;
  const auto in = g.add_input();
  g.add_output(g.add_quantizer(in, fmt));
  Xoshiro256 rng(2);
  const auto x = uniform_signal(1u << 16, 0.9, rng);
  const auto m = sim::measure_output_error(g, x, 0);
  EXPECT_NEAR(m.mean, -fmt.step() / 2.0, 0.05 * fmt.step());
}

TEST(ErrorMeasurement, DiscardSkipsTransient) {
  Graph g;
  const auto in = g.add_input();
  g.add_output(g.add_quantizer(in, fxp::q_format(4, 8)));
  Xoshiro256 rng(3);
  const auto x = uniform_signal(4096, 0.9, rng);
  const auto full = sim::measure_output_error(g, x, 0);
  const auto cut = sim::measure_output_error(g, x, 1000);
  EXPECT_EQ(full.samples, 4096u);
  EXPECT_EQ(cut.samples, 3096u);
  EXPECT_EQ(cut.signal.size(), 3096u);
}

TEST(ErrorMeasurement, ReferenceModeHasZeroError) {
  // A graph with no quantization has identical ref/fx behavior.
  Graph g;
  const auto in = g.add_input();
  g.add_output(g.add_block(
      in, filt::iir_lowpass(filt::IirFamily::kButterworth, 2, 0.2)));
  Xoshiro256 rng(4);
  const auto x = uniform_signal(2048, 0.9, rng);
  const auto m = sim::measure_output_error(g, x, 0);
  EXPECT_DOUBLE_EQ(m.power, 0.0);
}

TEST(ErrorMeasurement, MeasuredPsdTotalsErrorPower) {
  Graph g;
  const auto in = g.add_input();
  const auto q = g.add_quantizer(in, fxp::q_format(4, 8));
  g.add_output(g.add_block(
      q, filt::iir_lowpass(filt::IirFamily::kButterworth, 3, 0.15),
      fxp::q_format(4, 8)));
  Xoshiro256 rng(5);
  const auto x = uniform_signal(1u << 16, 0.9, rng);
  const auto m = sim::measure_output_error(g, x, 256);
  const auto psd = sim::measured_error_psd(m, 128);
  double tot = 0.0;
  for (double v : psd) tot += v;
  EXPECT_NEAR(tot, m.power, 0.1 * m.power);
}

TEST(EvaluateAccuracy, ReportFieldsConsistent) {
  Graph g;
  const auto in = g.add_input();
  const auto q = g.add_quantizer(in, fxp::q_format(4, 10));
  g.add_output(g.add_block(
      q, filt::iir_lowpass(filt::IirFamily::kButterworth, 2, 0.25),
      fxp::q_format(4, 10)));
  sim::EvaluationConfig cfg;
  cfg.sim_samples = 1u << 16;
  cfg.n_psd = 256;
  const auto report = sim::evaluate_accuracy(g, cfg);
  // Single-rate graph: all four engines must be present, keyed by kind.
  ASSERT_EQ(report.estimates.size(), 4u);
  EXPECT_GT(report.reference_power, 0.0);
  EXPECT_EQ(report.reference_power,
            report.power(core::EngineKind::kSimulation));
  EXPECT_DOUBLE_EQ(report.ed(core::EngineKind::kSimulation), 0.0);
  for (const auto& est : report.estimates) {
    EXPECT_GT(est.power, 0.0) << est.name;
    EXPECT_EQ(est.name, core::to_string(est.kind));
    EXPECT_GE(est.tau_pp, 0.0);
    EXPECT_GE(est.tau_eval, 0.0);
    EXPECT_NEAR(est.ed,
                (report.reference_power - est.power) /
                    report.reference_power,
                1e-15)
        << est.name;
  }
  EXPECT_LT(std::abs(report.ed(core::EngineKind::kPsd)), 0.5);
}

TEST(EvaluateAccuracy, DeterministicGivenSeed) {
  Graph g;
  const auto in = g.add_input();
  g.add_output(g.add_quantizer(in, fxp::q_format(4, 8)));
  sim::EvaluationConfig cfg;
  cfg.sim_samples = 1u << 14;
  const auto a = sim::evaluate_accuracy(g, cfg);
  const auto b = sim::evaluate_accuracy(g, cfg);
  EXPECT_DOUBLE_EQ(a.reference_power, b.reference_power);
}

// A freshly parsed graph has empty lazy role and reverse-edge caches.
// With simulation as the first engine and a pool, the shards' execution
// plans are the first readers of those caches, concurrently; the sharded
// measurement must fill them before it forks (run under TSan in CI).
TEST(SimShardedFreshGraph, SimulationFirstOnPoolIsRepeatable) {
  Graph src;
  const auto in = src.add_input();
  const auto q = src.add_quantizer(in, fxp::q_format(4, 10));
  const auto lp = src.add_block(
      q, filt::iir_lowpass(filt::IirFamily::kButterworth, 2, 0.25),
      fxp::q_format(4, 10));
  const auto hp = src.add_block(
      lp, filt::TransferFunction(filt::fir_highpass(15, 0.05)),
      fxp::q_format(4, 10));
  src.add_output(hp);
  const std::string doc = sfg::serialize(src);

  sim::EvaluationConfig cfg;
  cfg.engines = {core::EngineKind::kSimulation, core::EngineKind::kPsd};
  cfg.sim_samples = 1u << 13;
  cfg.discard = 64;
  cfg.shards = 8;
  cfg.n_psd = 128;
  runtime::ThreadPool pool(4);
  const auto reference = sim::evaluate_accuracy(sfg::parse_graph(doc), cfg);
  for (int rep = 0; rep < 8; ++rep) {
    const Graph g = sfg::parse_graph(doc);
    const auto report = sim::evaluate_accuracy(g, cfg, &pool);
    ASSERT_EQ(report.estimates.size(), 2u);
    EXPECT_EQ(report.reference_power, reference.reference_power)
        << "rep " << rep;  // bitwise: shards reduce in shard order
    EXPECT_EQ(report.power(core::EngineKind::kPsd),
              reference.power(core::EngineKind::kPsd));
  }
}

TEST(Executor, MultirateChainLengths) {
  Graph g;
  const auto in = g.add_input();
  const auto down = g.add_downsample(in, 3);
  const auto up = g.add_upsample(down, 2);
  const auto out = g.add_output(up);
  std::map<sfg::NodeId, std::vector<double>> inputs;
  inputs[in] = std::vector<double>(12, 1.0);
  const auto signals = sim::execute(g, inputs, sim::Mode::kReference);
  EXPECT_EQ(signals[down].size(), 4u);
  EXPECT_EQ(signals[out].size(), 8u);
}

}  // namespace
