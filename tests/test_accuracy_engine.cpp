// Contract suite for the unified core::AccuracyEngine interface: every
// EngineKind must satisfy the same behavioral contract (repeatable
// evaluation, independent worker clones, honest capabilities), the factory
// must refuse graphs an engine cannot evaluate, and the engine-keyed
// AccuracyReport must expose every method the paper compares — including
// the flat-vs-PSD reconvergence gap the old fixed-field report could not
// show.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/accuracy_engine.hpp"
#include "core/flat_analyzer.hpp"
#include "core/moment_analyzer.hpp"
#include "core/psd_analyzer.hpp"
#include "filters/fir_design.hpp"
#include "filters/iir_design.hpp"
#include "opt/wordlength_optimizer.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "sfg/random_graph.hpp"
#include "sim/error_measurement.hpp"

namespace {

using namespace psdacc;
using core::EngineKind;

sfg::Graph make_chain() {
  sfg::Graph g;
  const auto in = g.add_input();
  const auto q = g.add_quantizer(in, fxp::q_format(4, 12));
  const auto b1 = g.add_block(
      q, filt::iir_lowpass(filt::IirFamily::kButterworth, 3, 0.2),
      fxp::q_format(4, 12), "lp");
  const auto b2 = g.add_block(
      b1, filt::TransferFunction(filt::fir_highpass(31, 0.05)),
      fxp::q_format(4, 12), "hp");
  g.add_output(b2);
  return g;
}

sfg::Graph make_multirate() {
  sfg::Graph g;
  const auto in = g.add_input();
  const auto q = g.add_quantizer(in, fxp::q_format(4, 10));
  const auto up = g.add_upsample(q, 2);
  const auto lp = g.add_block(
      up, filt::TransferFunction(filt::fir_lowpass(16, 0.2)));
  g.add_output(g.add_downsample(lp, 2));
  return g;
}

// Small options so the simulation engine stays test-sized.
core::EngineOptions test_options() {
  core::EngineOptions opts;
  opts.n_psd = 256;
  opts.sim_samples = 1u << 12;
  opts.sim_discard = 128;
  return opts;
}

class EngineContractTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineContractTest, ConstructThenEvaluateTwiceIsIdempotent) {
  const auto g = make_chain();
  const auto engine = core::make_engine(GetParam(), g, test_options());
  EXPECT_EQ(engine->kind(), GetParam());
  const double first = engine->output_noise_power();
  const double second = engine->output_noise_power();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(first, second);  // bitwise: evaluation must not drift
}

TEST_P(EngineContractTest, EvaluationTracksGraphMutation) {
  auto g = make_chain();
  const auto engine = core::make_engine(GetParam(), g, test_options());
  const double coarse = engine->output_noise_power();
  // Double every fractional word-length: noise must drop a lot, through
  // the *same* engine instance (preprocessing is topology-only).
  for (sfg::NodeId id : g.noise_sources()) {
    const sfg::NodeView node = g.node(id);
    auto format =
        std::holds_alternative<sfg::QuantizerNode>(node.payload)
            ? std::get<sfg::QuantizerNode>(node.payload).format
            : *std::get<sfg::BlockNode>(node.payload).output_format;
    format.fractional_bits = 24;
    g.set_format(id, format);
  }
  const double fine = engine->output_noise_power();
  EXPECT_LT(fine, 1e-4 * coarse);
}

TEST_P(EngineContractTest, CloneForWorkerIsIndependentUnderThreadPool) {
  const auto g = make_chain();
  const auto prototype = core::make_engine(GetParam(), g, test_options());
  const double serial = prototype->output_noise_power();

  // One private graph clone per worker engine, evaluated concurrently —
  // the per-worker-clone pattern every parallel driver uses.
  constexpr std::size_t kClones = 8;
  std::vector<sfg::Graph> graphs(kClones, g);
  runtime::ThreadPool pool(4);
  const auto powers = pool.parallel_map(kClones, [&](std::size_t i) {
    const auto engine = prototype->clone_for_worker(graphs[i]);
    const double a = engine->output_noise_power();
    const double b = engine->output_noise_power();
    return a == b ? a : std::numeric_limits<double>::quiet_NaN();
  });
  for (const double p : powers) EXPECT_EQ(p, serial);  // bitwise
}

TEST_P(EngineContractTest, SpectrumCapabilityIsHonest) {
  const auto g = make_chain();
  const auto engine = core::make_engine(GetParam(), g, test_options());
  if (!engine->capabilities().spectrum) {
    EXPECT_THROW(engine->output_spectrum(), std::logic_error);
    return;
  }
  const auto spectrum = engine->output_spectrum();
  const double power = engine->output_noise_power();
  // Analytical spectra integrate exactly to the scalar estimate; the
  // simulation engine's Welch estimate carries windowing leakage.
  const double tol = engine->capabilities().stochastic ? 0.15 : 1e-9;
  EXPECT_NEAR(spectrum.power(), power, tol * power);
}

TEST_P(EngineContractTest, DeltaCapabilityIsHonest) {
  auto g = make_chain();
  const auto engine = core::make_engine(GetParam(), g, test_options());
  const auto sources = g.noise_sources();
  const auto& q =
      std::get<sfg::QuantizerNode>(std::as_const(g).node(sources[0]).payload);
  if (!engine->capabilities().delta) {
    EXPECT_THROW(engine->evaluate_delta(sources[0], q.format),
                 std::logic_error);
    return;
  }
  // Null delta: hypothesizing the format a source already carries must
  // reproduce the full evaluation (up to summation reordering).
  const double full = engine->output_noise_power();
  const double null_delta = engine->evaluate_delta(sources[0], q.format);
  EXPECT_NEAR(null_delta, full, 1e-12 * full);
  // A hypothetical probe must not mutate the graph or the evaluation.
  auto finer = q.format;
  finer.fractional_bits += 4;
  const double probed = engine->evaluate_delta(sources[0], finer);
  EXPECT_LT(probed, full);
  EXPECT_EQ(engine->output_noise_power(), full);  // bitwise
}

TEST_P(EngineContractTest, NameRoundTripsThroughParse) {
  const auto kind = GetParam();
  const auto parsed = core::parse_engine_kind(core::to_string(kind));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngineKinds, EngineContractTest,
    ::testing::ValuesIn(core::kAllEngineKinds),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(core::to_string(info.param));
    });

TEST(AccuracyEngine, FlatRefusesMultirateGraphWithClearError) {
  const auto g = make_multirate();
  EXPECT_FALSE(core::engine_supports(EngineKind::kFlat, g));
  EXPECT_THROW(core::make_engine(EngineKind::kFlat, g),
               std::invalid_argument);
  // Everything else accepts the same graph.
  for (const EngineKind kind :
       {EngineKind::kPsd, EngineKind::kMoment, EngineKind::kSimulation}) {
    EXPECT_TRUE(core::engine_supports(kind, g));
    EXPECT_GT(core::make_engine(kind, g, test_options())
                  ->output_noise_power(),
              0.0);
  }
}

TEST(AccuracyEngineFactory, RefusesUnstableBlock) {
  // A pure integrator 1 / (1 - z^-1) has its pole on the unit circle: no
  // finite power response, so every kind refuses it with the same reason
  // the serve daemon's INVALID reply carries.
  sfg::Graph g;
  const auto in = g.add_input();
  const auto q = g.add_quantizer(in, fxp::q_format(4, 12));
  g.add_output(g.add_block(q, filt::TransferFunction({1.0}, {1.0, -1.0})));
  const std::string why = core::unstable_block(g);
  EXPECT_NE(why.find("block node 2"), std::string::npos) << why;
  EXPECT_TRUE(core::unstable_block(make_chain()).empty());
  for (const EngineKind kind : core::kAllEngineKinds) {
    try {
      core::make_engine(kind, g, test_options());
      ADD_FAILURE() << core::to_string(kind) << " built an engine";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), why) << core::to_string(kind);
    }
  }
}

TEST(AccuracyEngine, MatchesUnderlyingAnalyzersBitwise) {
  const auto g = make_chain();
  const auto opts = test_options();
  EXPECT_EQ(core::make_engine(EngineKind::kPsd, g, opts)
                ->output_noise_power(),
            core::PsdAnalyzer(g, {.n_psd = opts.n_psd})
                .output_noise_power());
  EXPECT_EQ(core::make_engine(EngineKind::kMoment, g, opts)
                ->output_noise_power(),
            core::MomentAnalyzer(g).output_noise_power());
  EXPECT_EQ(core::make_engine(EngineKind::kFlat, g, opts)
                ->output_noise_power(),
            core::FlatAnalyzer(g, opts.n_psd).output_noise_power());
}

// --- psd clones share the prototype's compiled model ----------------------

// Re-formats every noise source of @p g to a seed-dependent width, so a
// clone's graph state differs from the prototype's.
void reformat_sources(sfg::Graph& g, int seed) {
  int i = seed;
  for (const sfg::NodeId id : std::vector<sfg::NodeId>(g.noise_sources())) {
    const sfg::NodeView node = std::as_const(g).node(id);
    auto format =
        std::holds_alternative<sfg::QuantizerNode>(node.payload)
            ? std::get<sfg::QuantizerNode>(node.payload).format
            : *std::get<sfg::BlockNode>(node.payload).output_format;
    format.fractional_bits = 6 + (i++ * 7) % 13;
    g.set_format(id, format);
  }
}

// Bitwise comparison of everything a psd engine reports: total power,
// spectrum bins and mean, and a delta probe per source.
void expect_psd_engines_identical(core::AccuracyEngine& a,
                                  core::AccuracyEngine& b,
                                  const sfg::Graph& g) {
  EXPECT_EQ(a.output_noise_power(), b.output_noise_power());
  const auto sa = a.output_spectrum();
  const auto sb = b.output_spectrum();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t k = 0; k < sa.size(); ++k)
    ASSERT_EQ(sa.bin(k), sb.bin(k)) << "bin " << k;
  EXPECT_EQ(sa.mean(), sb.mean());
  ASSERT_EQ(a.capabilities().delta, b.capabilities().delta);
  if (!a.capabilities().delta) return;
  for (const sfg::NodeId id : g.noise_sources()) {
    for (const int bits : {5, 11, 17}) {
      const fxp::FixedPointFormat format = fxp::q_format(4, bits);
      EXPECT_EQ(a.evaluate_delta(id, format), b.evaluate_delta(id, format))
          << "source " << id << " bits " << bits;
    }
  }
}

std::vector<sfg::Graph> clone_test_graphs() {
  std::vector<sfg::Graph> graphs;
  graphs.push_back(make_chain());
  graphs.push_back(make_multirate());  // upsampler: no delta path
  // Deep enough for more than 64 sources (the pairwise-tree delta path).
  graphs.push_back(sfg::random_graph(11, {.depth = 96}));
  graphs.push_back(sfg::random_graph(12, {.depth = 24, .multirate = true}));
  return graphs;
}

TEST(PsdEngineClone, MatchesFreshEngineBitwise) {
  std::size_t max_sources = 0;
  for (const sfg::Graph& g : clone_test_graphs()) {
    max_sources = std::max(max_sources, g.noise_sources().size());
    const auto prototype = core::make_engine(EngineKind::kPsd, g,
                                             test_options());
    sfg::Graph worker_graph = g;
    reformat_sources(worker_graph, 3);
    const auto clone = prototype->clone_for_worker(worker_graph);
    const auto fresh =
        core::make_engine(EngineKind::kPsd, worker_graph, test_options());
    expect_psd_engines_identical(*clone, *fresh, worker_graph);
    // The prototype is untouched by its clone's evaluations.
    const auto rebuilt = core::make_engine(EngineKind::kPsd, g,
                                           test_options());
    EXPECT_EQ(prototype->output_noise_power(),
              rebuilt->output_noise_power());
  }
  EXPECT_GT(max_sources, 64u);
}

TEST(PsdEngineClone, OutlivesItsPrototype) {
  const auto g = make_chain();
  sfg::Graph worker_graph = g;
  reformat_sources(worker_graph, 5);
  std::unique_ptr<core::AccuracyEngine> clone;
  {
    const auto prototype = core::make_engine(EngineKind::kPsd, g,
                                             test_options());
    clone = prototype->clone_for_worker(worker_graph);
  }
  const auto fresh =
      core::make_engine(EngineKind::kPsd, worker_graph, test_options());
  expect_psd_engines_identical(*clone, *fresh, worker_graph);
}

TEST(PsdEngineClone, RefusesGraphOfDifferentTopology) {
  const auto g = make_chain();
  const auto prototype = core::make_engine(EngineKind::kPsd, g,
                                           test_options());
  const auto other = make_multirate();
  EXPECT_THROW(prototype->clone_for_worker(other), std::invalid_argument);

  // Same node count, one more edge: a structural edit after the copy.
  sfg::Graph fan;
  const auto in = fan.add_input();
  const auto q = fan.add_quantizer(in, fxp::q_format(4, 12));
  const auto gain = fan.add_gain(q, 0.5);
  const auto sum = fan.add_adder({gain});
  fan.add_output(sum);
  const auto fan_engine = core::make_engine(EngineKind::kPsd, fan,
                                            test_options());
  sfg::Graph edited = fan;
  edited.add_adder_input(sum, q);
  ASSERT_EQ(edited.node_count(), fan.node_count());
  EXPECT_THROW(fan_engine->clone_for_worker(edited), std::invalid_argument);
  EXPECT_THROW(core::PsdAnalyzer(edited, core::PsdAnalyzer::compile(fan)),
               std::invalid_argument);
}

TEST(PsdEngineClone, ClonesOfOneModelEvaluateConcurrently) {
  const auto g = sfg::random_graph(11, {.depth = 96});
  const auto prototype = core::make_engine(EngineKind::kPsd, g,
                                           test_options());
  constexpr std::size_t kClones = 8;
  std::vector<sfg::Graph> graphs(kClones, g);
  for (std::size_t i = 0; i < kClones; ++i)
    reformat_sources(graphs[i], static_cast<int>(i));
  std::vector<double> serial(kClones);
  for (std::size_t i = 0; i < kClones; ++i)
    serial[i] = core::make_engine(EngineKind::kPsd, graphs[i],
                                  test_options())
                    ->output_noise_power();
  runtime::ThreadPool pool(4);
  const auto powers = pool.parallel_map(kClones, [&](std::size_t i) {
    return prototype->clone_for_worker(graphs[i])->output_noise_power();
  });
  for (std::size_t i = 0; i < kClones; ++i) EXPECT_EQ(powers[i], serial[i]);
}

TEST(AccuracyEngine, ParseRejectsUnknownNames) {
  EXPECT_FALSE(core::parse_engine_kind("psd2").has_value());
  EXPECT_FALSE(core::parse_engine_kind("").has_value());
  EXPECT_EQ(core::parse_engine_kind("sim"), EngineKind::kSimulation);
}

TEST(AccuracyReport, ContainsEverySupportedEngineWithTimings) {
  const auto g = make_chain();
  sim::EvaluationConfig cfg;
  cfg.sim_samples = 1u << 14;
  cfg.discard = 128;
  cfg.n_psd = 256;
  const auto report = sim::evaluate_accuracy(g, cfg);
  ASSERT_EQ(report.estimates.size(), 4u);
  EXPECT_EQ(report.reference_power,
            report.power(EngineKind::kSimulation));
  EXPECT_DOUBLE_EQ(report.ed(EngineKind::kSimulation), 0.0);
  for (const auto& est : report.estimates) {
    EXPECT_EQ(est.name, core::to_string(est.kind));
    EXPECT_GT(est.power, 0.0);
    EXPECT_GE(est.tau_pp, 0.0);
    EXPECT_GE(est.tau_eval, 0.0);
    EXPECT_NEAR(
        est.ed,
        (report.reference_power - est.power) / report.reference_power,
        1e-15);
  }
}

TEST(AccuracyReport, SkipsFlatOnMultirateGraphs) {
  const auto g = make_multirate();
  sim::EvaluationConfig cfg;
  cfg.sim_samples = 1u << 13;
  cfg.discard = 128;
  cfg.n_psd = 128;
  const auto report = sim::evaluate_accuracy(g, cfg);
  EXPECT_EQ(report.find(EngineKind::kFlat), nullptr);
  ASSERT_EQ(report.estimates.size(), 3u);
  EXPECT_GT(report.power(EngineKind::kPsd), 0.0);
  EXPECT_GT(report.power(EngineKind::kMoment), 0.0);
}

TEST(AccuracyReport, EngineSubsetWithoutSimulationHasNoReference) {
  const auto g = make_chain();
  sim::EvaluationConfig cfg;
  cfg.n_psd = 128;
  cfg.engines = {EngineKind::kPsd, EngineKind::kMoment};
  const auto report = sim::evaluate_accuracy(g, cfg);
  ASSERT_EQ(report.estimates.size(), 2u);
  EXPECT_EQ(report.reference_power, 0.0);
  for (const auto& est : report.estimates)
    EXPECT_TRUE(std::isnan(est.ed)) << est.name;
}

TEST(AccuracyReport, StopPredicateEndsTheRunAfterTheFirstEngine) {
  const auto g = make_chain();
  sim::EvaluationConfig cfg;
  cfg.n_psd = 128;
  cfg.engines = {EngineKind::kPsd, EngineKind::kMoment, EngineKind::kFlat};
  int polls = 0;
  const auto report = sim::evaluate_accuracy(
      g, cfg, nullptr, [&polls] { return polls++ > 0; });
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(polls, 2);  // once before each engine it reached
  ASSERT_EQ(report.estimates.size(), 1u);
  EXPECT_EQ(report.estimates[0].kind, EngineKind::kPsd);
  EXPECT_GT(report.estimates[0].power, 0.0);
}

TEST(AccuracyReport, NeverFiringStopPredicateIsBitIdentical) {
  const auto g = make_multirate();  // flat is skipped, never polled
  sim::EvaluationConfig cfg;
  cfg.sim_samples = 1u << 13;
  cfg.discard = 128;
  cfg.n_psd = 128;
  int polls = 0;
  const auto plain = sim::evaluate_accuracy(g, cfg);
  const auto polled = sim::evaluate_accuracy(g, cfg, nullptr, [&polls] {
    ++polls;
    return false;
  });
  EXPECT_EQ(polls, 3);
  EXPECT_FALSE(plain.cancelled);
  EXPECT_FALSE(polled.cancelled);
  EXPECT_EQ(polled.reference_power, plain.reference_power);
  ASSERT_EQ(polled.estimates.size(), plain.estimates.size());
  for (std::size_t i = 0; i < plain.estimates.size(); ++i) {
    const auto& a = plain.estimates[i];
    const auto& b = polled.estimates[i];
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.power, a.power) << a.name;  // bitwise: no tolerance
    EXPECT_EQ(b.ed, a.ed) << a.name;
  }
}

TEST(AccuracyReport, FlatVsPsdReconvergenceGapIsVisible) {
  // One quantizer whose noise reaches the output through two identical
  // paths re-converging at an adder: the true output noise is 4x the
  // source power (coherent), which the flat engine reproduces, while the
  // hierarchical PSD engine adds branch powers (2x, the documented Eq. 14
  // approximation). The engine-keyed report makes the paper's flat-vs-PSD
  // comparison a one-call experiment — impossible with the old
  // fixed-field report, which never ran the flat analyzer at all.
  sfg::Graph g;
  const auto in = g.add_input();
  const auto q = g.add_quantizer(in, fxp::q_format(4, 10));
  const auto direct = g.add_gain(q, 1.0);
  const auto delayed = g.add_gain(g.add_delay(q, 0), 1.0);
  g.add_output(g.add_adder({direct, delayed}));
  const auto m = fxp::continuous_quantization_noise(fxp::q_format(4, 10));

  sim::EvaluationConfig cfg;
  cfg.sim_samples = 1u << 16;
  cfg.discard = 64;
  cfg.n_psd = 256;
  const auto report = sim::evaluate_accuracy(g, cfg);
  ASSERT_NE(report.find(EngineKind::kFlat), nullptr);
  EXPECT_NEAR(report.power(EngineKind::kFlat), 4.0 * m.power(),
              1e-12 * m.power());
  EXPECT_NEAR(report.power(EngineKind::kPsd), 2.0 * m.power(),
              1e-12 * m.power());
  // Simulation agrees with the flat method: its deviation stays small
  // while the PSD engine misses the coherent cross term by ~half.
  EXPECT_LT(std::abs(report.ed(EngineKind::kFlat)), 0.05);
  EXPECT_GT(report.ed(EngineKind::kPsd), 0.4);
}

TEST(AccuracyEngine, OptimizerRunsUnderEveryAnalyticalEngine) {
  for (const EngineKind kind :
       {EngineKind::kPsd, EngineKind::kMoment, EngineKind::kFlat}) {
    auto g = make_chain();
    opt::OptimizerConfig cfg;
    cfg.noise_budget = 1e-6;
    cfg.min_bits = 4;
    cfg.max_bits = 20;
    cfg.n_psd = 128;
    cfg.engine = kind;
    opt::WordlengthOptimizer optimizer(g, g.noise_sources(), cfg);
    EXPECT_EQ(optimizer.engine().kind(), kind);
    const auto r = optimizer.uniform();
    EXPECT_TRUE(r.feasible) << core::to_string(kind);
    EXPECT_LE(r.noise, 1e-6) << core::to_string(kind);
  }
}

TEST(BatchRunner, MovedJobsNeverCopyAGraph) {
  static_assert(std::is_nothrow_move_constructible_v<runtime::BatchJob>,
                "BatchJob must stay cheaply movable");
  // Build the graphs first (construction itself copies nothing), then
  // count every Graph copy from job assembly through the whole batch run.
  std::vector<sfg::Graph> graphs;
  for (int i = 0; i < 3; ++i) graphs.push_back(make_chain());

  const std::size_t before = sfg::Graph::copies_made();
  std::vector<runtime::BatchJob> jobs;
  jobs.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    runtime::BatchJob job;
    job.name = "job" + std::to_string(i);
    job.graph = std::move(graphs[i]);
    job.config.sim_samples = 1u << 12;
    job.config.discard = 64;
    job.config.n_psd = 64;
    jobs.push_back(std::move(job));
  }
  runtime::BatchRunner runner(2);
  const auto results = runner.run(std::move(jobs));
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results)
    EXPECT_GT(r.report.reference_power, 0.0);
  EXPECT_EQ(sfg::Graph::copies_made(), before)
      << "the move-friendly batch path must not copy graphs";
}

}  // namespace
