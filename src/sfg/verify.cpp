#include "sfg/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/accuracy_engine.hpp"
#include "core/metrics.hpp"
// Verification reaches *up* into the search layer on purpose: optimizer
// goldens are corpus content, and the corpus checker is the one place
// where serialization and search meet. Headers stay acyclic (opt/search
// includes sfg types, never sfg/verify).
#include "opt/search/strategies.hpp"

namespace psdacc::sfg {
namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool rel_close(double a, double b, double rel_tol) {
  return std::abs(a - b) <= rel_tol * std::max({std::abs(a), std::abs(b),
                                                1e-30});
}

/// Current word-length format of a noise source (quantizer format or
/// quantized block output format).
std::optional<fxp::FixedPointFormat> source_format(const NodeView& node) {
  if (const auto* q = std::get_if<QuantizerNode>(&node.payload))
    return q->format;
  if (const auto* b = std::get_if<BlockNode>(&node.payload))
    return b->output_format;
  return std::nullopt;
}

/// evaluate_delta re-derives PQN moments from the hypothesized format, so
/// delta(v, current format) equals the full evaluation only when the
/// source's stored moments are the format-derived ones (true everywhere
/// except quantizers with overridden moments, e.g. narrowing corrections).
bool delta_comparable(const NodeView& node) {
  const auto* q = std::get_if<QuantizerNode>(&node.payload);
  if (q == nullptr) return true;
  return q->moments == fxp::continuous_quantization_noise(q->format);
}

/// The engines can only evaluate a well-formed SISO scenario graph.
bool evaluable(const Graph& g) {
  return !g.has_cycles() && g.outputs().size() == 1 &&
         g.inputs().size() == 1 && !g.noise_sources().empty();
}

void check_delta_parity(core::AccuracyEngine& engine, const Graph& g,
                        double full_power, double rel_tol,
                        std::vector<VerifyIssue>& issues) {
  if (!engine.capabilities().delta) return;
  const std::string tag = "delta:" + std::string(engine.name());
  for (const NodeId v : g.noise_sources()) {
    if (!delta_comparable(g.node(v))) continue;
    const auto fmt = source_format(g.node(v));
    if (!fmt.has_value()) continue;
    const double delta = engine.evaluate_delta(v, *fmt);
    if (!rel_close(delta, full_power, rel_tol))
      issues.push_back(
          {tag, "source " + std::to_string(v) + ": evaluate_delta=" +
                    fmt_double(delta) + " vs full=" + fmt_double(full_power)});
  }
}

/// Runs one optimizer golden exactly as recorded: the named strategy over
/// the graph's noise sources (unit weights, serial, the scenario config's
/// spectral resolution), on a private copy of the graph so verification
/// never mutates the caller's scenario.
opt::OptimizerResult run_opt_expectation(const Scenario& s,
                                         const OptExpectation& e) {
  Graph g = s.graph;
  opt::OptimizerConfig cfg;
  cfg.noise_budget = e.budget;
  cfg.min_bits = e.min_bits;
  cfg.max_bits = e.max_bits;
  cfg.n_psd = s.config.n_psd;
  cfg.engine = e.engine;
  cfg.engine_opts = sim::engine_options_for(s.config);
  opt::WordlengthOptimizer optimizer(g, g.noise_sources(), cfg);
  opt::search::StrategySpec spec;
  spec.name = e.strategy;
  spec.anneal.seed = e.seed;
  return opt::search::run_strategy(optimizer, spec);
}

}  // namespace

std::vector<std::pair<core::EngineKind, double>> evaluate_expected(
    const Scenario& s) {
  std::vector<std::pair<core::EngineKind, double>> out;
  for (const sim::EngineEstimate& e :
       sim::evaluate_accuracy(s.graph, s.config).estimates)
    out.emplace_back(e.kind, e.power);
  return out;
}

std::vector<VerifyIssue> verify_scenario_text(std::string_view text,
                                              const VerifyOptions& opts) {
  std::vector<VerifyIssue> issues;
  Scenario s;
  try {
    s = parse_scenario(text);
  } catch (const ParseError& e) {
    issues.push_back({"parse", e.what()});
    return issues;
  }

  const std::string canonical = serialize(s);
  if (canonical != text) {
    std::size_t i = 0;
    const std::size_t n = std::min(canonical.size(), text.size());
    while (i < n && canonical[i] == text[i]) ++i;
    issues.push_back({"canonical",
                      "document is not canonical (first difference at byte " +
                          std::to_string(i) + "); run 'psdacc-verify regen'"});
  }

  if (!evaluable(s.graph)) {
    if (!s.expected.empty() || !s.opt_expected.empty())
      issues.push_back({"golden",
                        "document carries expectations but the graph is not "
                        "evaluable (need one input, one output, >= 1 noise "
                        "source, no cycles)"});
    return issues;
  }
  if (std::string why = core::unstable_block(s.graph); !why.empty()) {
    issues.push_back({"invalid", std::move(why)});
    return issues;
  }

  const auto engine_opts = sim::engine_options_for(s.config);
  double flat_power = 0.0, psd_power = 0.0;
  double flat_golden = 0.0, psd_golden = 0.0;
  bool have_flat = false, have_psd = false;
  for (const auto& [kind, golden] : s.expected) {
    const std::string kind_name{to_string(kind)};
    if (!core::engine_supports(kind, s.graph)) {
      issues.push_back({"golden:" + kind_name,
                        "engine does not support this graph"});
      continue;
    }
    const auto engine = core::make_engine(kind, s.graph, engine_opts);
    const double power = engine->output_noise_power();
    if (!rel_close(power, golden, opts.golden_rel_tol))
      issues.push_back({"golden:" + kind_name,
                        "evaluated " + fmt_double(power) + " vs golden " +
                            fmt_double(golden) + " (tol " +
                            fmt_double(opts.golden_rel_tol) + " rel)"});
    check_delta_parity(*engine, s.graph, power, opts.delta_rel_tol, issues);
    if (kind == core::EngineKind::kFlat) {
      flat_power = power;
      flat_golden = golden;
      have_flat = true;
    }
    if (kind == core::EngineKind::kPsd) {
      psd_power = power;
      psd_golden = golden;
      have_psd = true;
    }
  }

  // Cross-engine band check, gated on the *recorded* goldens: graphs with
  // strongly correlated reconvergent noise (e.g. a parallel realization,
  // every branch fed by the same quantizer with no decorrelating delay)
  // legitimately violate the uncorrelated-sources assumption, and their
  // documents record that deviation in the goldens. The check therefore
  // only fires when the goldens agree but the evaluated engines no longer
  // do — i.e. on new divergence, not on known model limitations.
  if (opts.cross_engine && have_flat && have_psd &&
      core::within_one_bit(core::mse_deviation(flat_golden, psd_golden))) {
    const double ed = core::mse_deviation(flat_power, psd_power);
    if (!core::within_one_bit(ed))
      issues.push_back({"cross:flat-vs-psd",
                        "psd deviates from flat by E_d=" + fmt_double(ed) +
                            " (outside the one-bit band)"});
  }

  // Optimizer goldens: every recorded search must reproduce its cost
  // exactly — word-length costs are small integer sums and every strategy
  // is deterministic (the annealer via its recorded seed), so equality is
  // bitwise, pinning search behavior the way `expect` pins the engines.
  for (const OptExpectation& e : s.opt_expected) {
    const std::string tag = "optgolden:" + e.strategy;
    if (!opt::search::known_strategy(e.strategy)) {
      issues.push_back({tag, "unknown strategy '" + e.strategy + "'"});
      continue;
    }
    if (!core::engine_supports(e.engine, s.graph)) {
      issues.push_back({tag, "engine '" + std::string(to_string(e.engine)) +
                                 "' does not support this graph"});
      continue;
    }
    const opt::OptimizerResult r = run_opt_expectation(s, e);
    if (r.cost != e.cost)
      issues.push_back(
          {tag, "budget " + fmt_double(e.budget) + " (" +
                    std::string(to_string(e.engine)) + "): searched cost " +
                    fmt_double(r.cost) + " vs golden " + fmt_double(e.cost)});
  }
  return issues;
}

std::vector<OptExpectation> evaluate_opt_expected(const Scenario& s) {
  std::vector<OptExpectation> out;
  for (const OptExpectation& e : s.opt_expected) {
    if (!opt::search::known_strategy(e.strategy)) continue;
    if (!core::engine_supports(e.engine, s.graph)) continue;
    OptExpectation fresh = e;
    fresh.cost = run_opt_expectation(s, e).cost;
    out.push_back(std::move(fresh));
  }
  return out;
}

std::vector<VerifyIssue> differential_check(const Graph& g,
                                            const DifferentialOptions& opts) {
  std::vector<VerifyIssue> issues;

  // 1. Round-trip.
  const std::string text = serialize(g);
  Graph parsed;
  try {
    parsed = parse_graph(text);
  } catch (const ParseError& e) {
    issues.push_back({"round-trip", std::string("serialized graph does not "
                                                "parse: ") +
                                        e.what()});
    return issues;
  }
  if (!graphs_equal(g, parsed)) {
    issues.push_back({"round-trip",
                      "parse(serialize(g)) is not structurally equal to g"});
    return issues;
  }
  if (serialize(parsed) != text) {
    issues.push_back({"canonical",
                      "re-serializing the parsed graph changed bytes"});
    return issues;
  }

  if (!evaluable(g)) return issues;  // boundary graph: round-trip only

  std::size_t adders = 0;
  for (NodeId id = 0; id < g.node_count(); ++id)
    if (std::holds_alternative<AdderNode>(g.node(id).payload)) ++adders;

  // 2.-4. Engine differential on original vs parsed copy.
  core::EngineOptions engine_opts;
  engine_opts.n_psd = opts.n_psd;
  double flat_power = 0.0, psd_power = 0.0;
  bool have_flat = false, have_psd = false;
  for (const core::EngineKind kind :
       {core::EngineKind::kFlat, core::EngineKind::kMoment,
        core::EngineKind::kPsd}) {
    if (!core::engine_supports(kind, g)) continue;
    const std::string kind_name{to_string(kind)};
    const auto engine = core::make_engine(kind, g, engine_opts);
    const auto twin = core::make_engine(kind, parsed, engine_opts);
    const double power = engine->output_noise_power();
    const double twin_power = twin->output_noise_power();
    if (power != twin_power)
      issues.push_back({"differential:" + kind_name,
                        "original " + fmt_double(power) +
                            " != parsed copy " + fmt_double(twin_power)});
    check_delta_parity(*engine, g, power, opts.delta_rel_tol, issues);
    switch (kind) {
      case core::EngineKind::kFlat:
        flat_power = power;
        have_flat = true;
        break;
      case core::EngineKind::kPsd:
        psd_power = power;
        have_psd = true;
        break;
      default:
        break;  // moment: differential + delta parity only (no band)
    }
  }

  // Cross-engine agreement. Without an adder there is no reconvergence
  // and the hierarchical PSD method is exact — a theorem, enforced to
  // golden precision under the hard "cross:" tag. With reconvergent
  // joins, correlated path contributions can legitimately push any
  // single graph outside the paper's one-bit band (the band is a
  // statistical claim over filter populations), so violations are
  // reported under the advisory "band:" tag, which the fuzz driver
  // counts against an aggregate rate threshold instead of failing
  // per graph.
  if (have_flat && have_psd && flat_power > 0.0) {
    if (adders == 0) {
      if (!rel_close(flat_power, psd_power, 1e-9))
        issues.push_back({"cross:chain-exact",
                          "chain graph: psd " + fmt_double(psd_power) +
                              " != flat " + fmt_double(flat_power) +
                              " (must agree to 1e-9 without reconvergence)"});
    } else {
      const double ed = core::mse_deviation(flat_power, psd_power);
      if (!core::within_one_bit(ed))
        issues.push_back({"band:flat-vs-psd",
                          "psd deviates from flat by E_d=" + fmt_double(ed)});
    }
  }

  // 5. Optional simulation band check (the expensive mutual oracle).
  if (opts.with_simulation &&
      core::engine_supports(core::EngineKind::kSimulation, g)) {
    core::EngineOptions sim_opts = engine_opts;
    sim_opts.sim_samples = opts.sim_samples;
    sim_opts.sim_discard = std::min<std::size_t>(1024, opts.sim_samples / 4);
    const auto sim =
        core::make_engine(core::EngineKind::kSimulation, g, sim_opts);
    const double sim_power = sim->output_noise_power();
    if (sim_power > 0.0) {
      // Simulation bands are advisory for the same reason as
      // flat-vs-psd: correlated reconvergence (psd) and PQN-model
      // validity (flat) are statistical claims, not per-graph theorems.
      if (have_psd &&
          !core::within_one_bit(core::mse_deviation(sim_power, psd_power)))
        issues.push_back({"band:sim-vs-psd",
                          "psd " + fmt_double(psd_power) +
                              " outside the one-bit band of simulation " +
                              fmt_double(sim_power)});
      if (have_flat &&
          !core::within_one_bit(core::mse_deviation(sim_power, flat_power)))
        issues.push_back({"band:sim-vs-flat",
                          "flat " + fmt_double(flat_power) +
                              " outside the one-bit band of simulation " +
                              fmt_double(sim_power)});
    }
  }
  return issues;
}

}  // namespace psdacc::sfg
