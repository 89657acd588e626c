// Word-length optimizer tests: feasibility, strategy quality ordering,
// cost-weight sensitivity, and verification of the chosen design by
// simulation.
#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "filters/fir_design.hpp"
#include "filters/iir_design.hpp"
#include "opt/search/annealing.hpp"
#include "opt/wordlength_optimizer.hpp"
#include "sim/error_measurement.hpp"

namespace {

using namespace psdacc;

struct TestSystem {
  sfg::Graph graph;
  std::vector<sfg::NodeId> variables;
};

TestSystem make_chain() {
  TestSystem s;
  const auto in = s.graph.add_input();
  const auto q = s.graph.add_quantizer(in, fxp::q_format(4, 12));
  const auto b1 = s.graph.add_block(
      q, filt::iir_lowpass(filt::IirFamily::kButterworth, 3, 0.2),
      fxp::q_format(4, 12), "lp");
  const auto b2 = s.graph.add_block(
      b1, filt::TransferFunction(filt::fir_highpass(31, 0.05)),
      fxp::q_format(4, 12), "hp");
  s.graph.add_output(b2);
  s.variables = {q, b1, b2};
  return s;
}

opt::OptimizerConfig budget_config(double budget) {
  opt::OptimizerConfig cfg;
  cfg.noise_budget = budget;
  cfg.min_bits = 4;
  cfg.max_bits = 20;
  cfg.n_psd = 256;
  return cfg;
}

TEST(Optimizer, UniformFindsFeasibleAssignment) {
  auto sys = make_chain();
  opt::WordlengthOptimizer optimizer(sys.graph, sys.variables,
                                     budget_config(1e-6));
  const auto r = optimizer.uniform();
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.noise, 1e-6);
  for (std::size_t i = 1; i < r.bits.size(); ++i)
    EXPECT_EQ(r.bits[i], r.bits[0]);  // uniform by construction
}

TEST(Optimizer, GreedyBeatsOrMatchesUniformCost) {
  auto sys = make_chain();
  opt::WordlengthOptimizer optimizer(sys.graph, sys.variables,
                                     budget_config(1e-6));
  const auto uniform = optimizer.uniform();
  const auto greedy = optimizer.greedy_descent();
  EXPECT_TRUE(greedy.feasible);
  EXPECT_LE(greedy.cost, uniform.cost);
}

TEST(Optimizer, MinPlusOneIsFeasible) {
  auto sys = make_chain();
  opt::WordlengthOptimizer optimizer(sys.graph, sys.variables,
                                     budget_config(1e-6));
  const auto r = optimizer.min_plus_one();
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.noise, 1e-6);
}

TEST(Optimizer, TighterBudgetCostsMoreBits) {
  auto sys = make_chain();
  opt::WordlengthOptimizer loose(sys.graph, sys.variables,
                                 budget_config(1e-5));
  const double loose_cost = loose.greedy_descent().cost;
  auto sys2 = make_chain();
  opt::WordlengthOptimizer tight(sys2.graph, sys2.variables,
                                 budget_config(1e-8));
  const double tight_cost = tight.greedy_descent().cost;
  EXPECT_GT(tight_cost, loose_cost);
}

TEST(Optimizer, CostWeightsShiftBits) {
  // Make the first variable 10x as expensive: it should end up with no
  // more bits than in the unweighted solution.
  auto sys_a = make_chain();
  opt::WordlengthOptimizer plain(sys_a.graph, sys_a.variables,
                                 budget_config(1e-6));
  const auto unweighted = plain.greedy_descent();

  auto sys_b = make_chain();
  auto cfg = budget_config(1e-6);
  cfg.cost_weights = {10.0, 1.0, 1.0};
  opt::WordlengthOptimizer weighted(sys_b.graph, sys_b.variables, cfg);
  const auto shifted = weighted.greedy_descent();
  EXPECT_TRUE(shifted.feasible);
  EXPECT_LE(shifted.bits[0], unweighted.bits[0] + 1);
}

TEST(Optimizer, ResultVerifiedBySimulation) {
  auto sys = make_chain();
  opt::WordlengthOptimizer optimizer(sys.graph, sys.variables,
                                     budget_config(2e-7));
  const auto r = optimizer.greedy_descent();
  ASSERT_TRUE(r.feasible);
  // The graph still carries the optimized formats; simulate it.
  sim::EvaluationConfig cfg;
  cfg.sim_samples = 1u << 16;
  const auto report = sim::evaluate_accuracy(sys.graph, cfg);
  // Simulation within 30% of the budget (estimate error + MC noise).
  EXPECT_LT(report.reference_power, 1.3 * 2e-7);
}

TEST(Optimizer, GreedyScoresMarginalNoiseNotAbsoluteNoise) {
  // Three parallel quantizer->gain branches into one adder. The fixed
  // branch C sets a noise floor that dominates every candidate's absolute
  // output noise, so scoring weight/absolute-noise degenerates to ranking
  // by weight alone: it strips the heavy-weight variable A first, burning
  // the budget on A's large marginal increases and stranding B at 11 bits
  // (final bits {3, 11}, cost 46). Scoring weight/marginal-increase trades
  // the two correctly and ends at {4, 5} with cost 42.
  const double c_a = 0.0014501723118430063;
  const double c_b = 0.00790649610142119;
  const double c_fixed = 2e-5;
  // Quantizer at d fractional bits injects variance 4^-d / 12; a gain of
  // sqrt(12 c) scales that to c * 4^-d at the output.
  sfg::Graph g;
  const auto in = g.add_input();
  const auto qa = g.add_quantizer(in, fxp::q_format(4, 12));
  const auto ga = g.add_gain(qa, std::sqrt(12.0 * c_a));
  const auto qb = g.add_quantizer(in, fxp::q_format(4, 12));
  const auto gb = g.add_gain(qb, std::sqrt(12.0 * c_b));
  const auto qc = g.add_quantizer(in, fxp::q_format(4, 8));
  const double var_c = std::ldexp(1.0, -16) / 12.0;
  const auto gc = g.add_gain(qc, std::sqrt(c_fixed / var_c));
  g.add_output(g.add_adder({ga, gb, gc}));

  opt::OptimizerConfig cfg;
  cfg.noise_budget = 4.2663281771083254e-5;
  cfg.min_bits = 2;
  cfg.max_bits = 12;
  cfg.n_psd = 64;
  cfg.cost_weights = {8.0, 2.0};
  opt::WordlengthOptimizer optimizer(g, {qa, qb}, cfg);
  const auto r = optimizer.greedy_descent();
  EXPECT_TRUE(r.feasible);
  ASSERT_EQ(r.bits.size(), 2u);
  EXPECT_EQ(r.bits[0], 4);
  EXPECT_EQ(r.bits[1], 5);
  EXPECT_DOUBLE_EQ(r.cost, 42.0);
}

TEST(Optimizer, InfeasibleBudgetReported) {
  auto sys = make_chain();
  auto cfg = budget_config(1e-30);  // impossible
  cfg.max_bits = 12;
  opt::WordlengthOptimizer optimizer(sys.graph, sys.variables, cfg);
  const auto r = optimizer.greedy_descent();
  EXPECT_FALSE(r.feasible);
}

TEST(Optimizer, EvaluationCountIsTracked) {
  auto sys = make_chain();
  opt::WordlengthOptimizer optimizer(sys.graph, sys.variables,
                                     budget_config(1e-6));
  const auto r = optimizer.greedy_descent();
  EXPECT_GT(r.evaluations, 3u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation (the hook server-side job timeouts ride on)
// ---------------------------------------------------------------------------

TEST(OptimizerCancellation, NeverFiringCheckChangesNothing) {
  auto sys_a = make_chain();
  opt::WordlengthOptimizer plain(sys_a.graph, sys_a.variables,
                                 budget_config(1e-6));
  const auto reference = plain.greedy_descent();

  auto sys_b = make_chain();
  auto cfg = budget_config(1e-6);
  cfg.cancel_check = [] { return false; };
  opt::WordlengthOptimizer checked(sys_b.graph, sys_b.variables, cfg);
  const auto r = checked.greedy_descent();
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.bits, reference.bits);
  EXPECT_EQ(r.cost, reference.cost);
}

TEST(OptimizerCancellation, GreedyStopsEarlyWithPartialState) {
  auto sys_a = make_chain();
  opt::WordlengthOptimizer plain(sys_a.graph, sys_a.variables,
                                 budget_config(1e-8));
  const auto full = plain.greedy_descent();

  // Cancel after two accepted rounds: the search must stop with the
  // assignment it held at that point — fewer probes spent, every variable
  // still at or above the converged answer (greedy only removes bits).
  auto sys_b = make_chain();
  auto cfg = budget_config(1e-8);
  int polls = 0;
  cfg.cancel_check = [&polls] { return ++polls > 2; };
  opt::WordlengthOptimizer cancelled(sys_b.graph, sys_b.variables, cfg);
  const auto partial = cancelled.greedy_descent();
  EXPECT_TRUE(partial.cancelled);
  EXPECT_TRUE(partial.feasible);  // greedy's working state stays feasible
  EXPECT_LT(partial.evaluations, full.evaluations);
  ASSERT_EQ(partial.bits.size(), full.bits.size());
  for (std::size_t i = 0; i < full.bits.size(); ++i)
    EXPECT_GE(partial.bits[i], full.bits[i]) << "variable " << i;
  EXPECT_GE(partial.cost, full.cost);

  // The partial assignment was applied to the graph and its noise
  // re-evaluated — the "report what you have" server contract.
  opt::WordlengthOptimizer probe(sys_b.graph, sys_b.variables,
                                 budget_config(1e-8));
  EXPECT_DOUBLE_EQ(probe.evaluate(), partial.noise);
}

TEST(OptimizerCancellation, ImmediateCancelReportsStartState) {
  auto sys = make_chain();
  auto cfg = budget_config(1e-6);
  cfg.cancel_check = [] { return true; };
  opt::WordlengthOptimizer optimizer(sys.graph, sys.variables, cfg);
  const auto r = optimizer.greedy_descent();
  EXPECT_TRUE(r.cancelled);
  ASSERT_EQ(r.bits.size(), sys.variables.size());
  for (const int bits : r.bits) EXPECT_EQ(bits, cfg.max_bits);
}

TEST(OptimizerCancellation, AllStrategiesHonorTheCheck) {
  for (const int strategy : {0, 1, 2}) {
    auto sys = make_chain();
    auto cfg = budget_config(1e-6);
    int polls = 0;
    cfg.cancel_check = [&polls] { return ++polls > 1; };
    opt::WordlengthOptimizer optimizer(sys.graph, sys.variables, cfg);
    const auto r = strategy == 0   ? optimizer.uniform()
                   : strategy == 1 ? optimizer.greedy_descent()
                                   : optimizer.min_plus_one();
    EXPECT_TRUE(r.cancelled) << "strategy " << strategy;
    EXPECT_EQ(r.bits.size(), sys.variables.size()) << "strategy "
                                                   << strategy;
    EXPECT_GT(polls, 1) << "strategy " << strategy;
  }
}

// ---------------------------------------------------------------------------
// Probe contexts re-stamp only the variables whose bits changed
// ---------------------------------------------------------------------------

void expect_same_result(const opt::OptimizerResult& a,
                        const opt::OptimizerResult& b, const char* what) {
  EXPECT_EQ(a.bits, b.bits) << what;
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.noise, b.noise) << what;  // bitwise
  EXPECT_EQ(a.feasible, b.feasible) << what;
}

opt::search::AnnealOptions short_anneal() {
  opt::search::AnnealOptions o;
  o.seed = 17;
  o.rounds = 60;
  o.proposals_per_round = 5;
  return o;
}

TEST(OptimizerStampTracking, ReusedOptimizerMatchesFreshOnes) {
  // One optimizer runs every strategy in turn, so its probe contexts
  // carry whatever the previous search stamped; each result must equal a
  // fresh optimizer's on a fresh graph.
  const auto cfg = budget_config(1e-7);
  auto sys = make_chain();
  opt::WordlengthOptimizer reused(sys.graph, sys.variables, cfg);
  const std::vector<int> probe_bits = {9, 14, 6};

  opt::search::SimulatedAnnealing anneal(short_anneal());
  const auto annealed = anneal.run(reused);
  const auto greedy = reused.greedy_descent();
  const double probed = reused.probe_assignment(probe_bits);
  const auto plus_one = reused.min_plus_one();

  {
    auto fresh = make_chain();
    opt::WordlengthOptimizer o(fresh.graph, fresh.variables, cfg);
    opt::search::SimulatedAnnealing fresh_anneal(short_anneal());
    expect_same_result(annealed, fresh_anneal.run(o), "anneal");
  }
  {
    auto fresh = make_chain();
    opt::WordlengthOptimizer o(fresh.graph, fresh.variables, cfg);
    expect_same_result(greedy, o.greedy_descent(), "greedy");
  }
  {
    auto fresh = make_chain();
    opt::WordlengthOptimizer o(fresh.graph, fresh.variables, cfg);
    EXPECT_EQ(probed, o.probe_assignment(probe_bits));
  }
  {
    auto fresh = make_chain();
    opt::WordlengthOptimizer o(fresh.graph, fresh.variables, cfg);
    expect_same_result(plus_one, o.min_plus_one(), "min_plus_one");
  }
}

TEST(OptimizerStampTracking, CallerSuppliedMomentsReplacedOnFirstProbe) {
  // A quantizer built with caller-supplied moments, probed at the bits it
  // already has: the probe must still install the derived PQN moments,
  // i.e. score like a quantizer built from its format alone.
  const auto build = [](bool supplied) {
    TestSystem s;
    const auto in = s.graph.add_input();
    const auto format = fxp::q_format(4, 10);
    const auto q = supplied
                       ? s.graph.add_quantizer(
                             in, format, fxp::NoiseMoments{0.25, 1e-3})
                       : s.graph.add_quantizer(in, format);
    const auto b = s.graph.add_block(
        q, filt::iir_lowpass(filt::IirFamily::kButterworth, 2, 0.25),
        fxp::q_format(4, 12), "lp");
    s.graph.add_output(b);
    s.variables = {q, b};
    return s;
  };
  const std::vector<int> bits = {10, 12};
  const auto cfg = budget_config(1e-6);

  auto plain = build(false);
  opt::WordlengthOptimizer reference(plain.graph, plain.variables, cfg);
  const double expected = reference.probe_assignment(bits);
  const auto expected_delta = reference.probe_candidates(bits, {{1, 12}});

  auto full = build(true);
  opt::WordlengthOptimizer full_probe(full.graph, full.variables, cfg);
  EXPECT_EQ(full_probe.probe_assignment(bits), expected);

  // The delta path's first probe stamps a fresh context the same way.
  auto delta = build(true);
  opt::WordlengthOptimizer delta_probe(delta.graph, delta.variables, cfg);
  EXPECT_EQ(delta_probe.probe_candidates(bits, {{1, 12}}), expected_delta);
  EXPECT_EQ(delta_probe.probe_counters().delta, 1u);
}

TEST(OptimizerStampTracking, ProbeCountersArePinned) {
  // Exact counts: stamping only changed variables must not move a single
  // revision the unconditional stamp did not move.
  auto sys = make_chain();
  opt::WordlengthOptimizer optimizer(sys.graph, sys.variables,
                                     budget_config(1e-7));
  optimizer.greedy_descent();
  optimizer.min_plus_one();
  optimizer.probe_assignment({9, 14, 6});
  optimizer.probe_assignment({9, 14, 6});
  const auto c = optimizer.probe_counters();
  EXPECT_EQ(c.full, 5u);
  EXPECT_EQ(c.delta, 116u);
  EXPECT_EQ(c.cached, 1u);

  auto full_sys = make_chain();
  auto cfg = budget_config(1e-7);
  cfg.incremental = false;
  opt::WordlengthOptimizer full(full_sys.graph, full_sys.variables, cfg);
  full.greedy_descent();
  full.min_plus_one();
  const auto f = full.probe_counters();
  EXPECT_EQ(f.full, 120u);
  EXPECT_EQ(f.delta, 0u);
  EXPECT_EQ(f.cached, 0u);
}

}  // namespace
