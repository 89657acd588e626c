// psdacc-opt: offline word-length search driver over serialized scenario
// documents — the CLI face of the src/opt/search/ subsystem.
//
//   psdacc-opt run [--strategy S] [--budget B] [--min-bits N] [--max-bits N]
//                  [--engine E] [--seed S] [--workers N] [--json]
//                  <file.sfg>
//       One search (S in: uniform | greedy | min_plus_one | anneal | tabu
//       | bnb) over the document's graph, variables = its noise sources.
//       `anneal`/`bnb` also work as verbs: `psdacc-opt anneal f.sfg` ==
//       `psdacc-opt run --strategy anneal f.sfg`.
//
//   psdacc-opt sweep [--strategy S] [--budgets B1,B2,...]
//                    [--budget-lo B] [--budget-hi B] [--points N]
//                    [--min-bits N] [--max-bits N] [--engine E] [--seed S]
//                    [--workers N] [--csv] [--json] [--all-points]
//                    <file.sfg>
//       Pareto-front sweep: one search per budget, dominance-filtered.
//       Default output is the front as a table; --csv emits the canonical
//       CSV (`budget,cost,noise,feasible,evaluations,bits`), --all-points
//       includes dominated ladder points in the CSV/JSON.
//
// Exit codes: 0 success, 1 infeasible/empty front, 2 usage/config error.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "opt/search/pareto.hpp"
#include "opt/search/strategies.hpp"
#include "sfg/serialize.hpp"
#include "sim/error_measurement.hpp"

namespace {

using namespace psdacc;

int usage() {
  std::fprintf(
      stderr,
      "usage: psdacc-opt run [--strategy S] [--budget B] [--min-bits N]\n"
      "                      [--max-bits N] [--engine E] [--seed S]"
      " [--workers N]\n"
      "                      [--json] <file.sfg>\n"
      "       psdacc-opt sweep [--strategy S] [--budgets B1,B2,...]\n"
      "                      [--budget-lo B] [--budget-hi B] [--points N]\n"
      "                      [--min-bits N] [--max-bits N] [--engine E]"
      " [--seed S]\n"
      "                      [--workers N] [--csv] [--json] [--all-points]"
      " <file.sfg>\n"
      "       (any strategy token also works as a verb: psdacc-opt anneal"
      " <file.sfg>)\n");
  return 2;
}

std::string shortest(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string join_bits(const std::vector<int>& bits, char sep) {
  std::string out;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i > 0) out += sep;
    out += std::to_string(bits[i]);
  }
  return out;
}

/// Everything both verbs share; sweep-only fields are ignored by `run`.
struct Options {
  std::string strategy = "greedy";
  double budget = 1e-6;
  std::vector<double> budgets;
  double budget_lo = 1e-10;
  double budget_hi = 1e-4;
  std::size_t points = 8;
  int min_bits = 2;
  int max_bits = 24;
  core::EngineKind engine = core::EngineKind::kPsd;
  bool engine_set = false;
  std::uint64_t seed = 0;
  std::size_t workers = 1;
  bool json = false;
  bool csv = false;
  bool all_points = false;
  std::string path;
};

bool parse_options(const std::vector<std::string>& args, Options& o) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < args.size() ? args[++i].c_str() : nullptr;
    };
    const char* v = nullptr;
    if (args[i] == "--strategy" && (v = value()) != nullptr)
      o.strategy = v;
    else if (args[i] == "--budget" && (v = value()) != nullptr)
      o.budget = std::strtod(v, nullptr);
    else if (args[i] == "--budgets" && (v = value()) != nullptr) {
      o.budgets.clear();
      std::string list(v);
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t end = list.find(',', pos);
        if (end == std::string::npos) end = list.size();
        if (end > pos)
          o.budgets.push_back(
              std::strtod(list.substr(pos, end - pos).c_str(), nullptr));
        pos = end + 1;
      }
    } else if (args[i] == "--budget-lo" && (v = value()) != nullptr)
      o.budget_lo = std::strtod(v, nullptr);
    else if (args[i] == "--budget-hi" && (v = value()) != nullptr)
      o.budget_hi = std::strtod(v, nullptr);
    else if (args[i] == "--points" && (v = value()) != nullptr)
      o.points = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    else if (args[i] == "--min-bits" && (v = value()) != nullptr)
      o.min_bits = static_cast<int>(std::strtol(v, nullptr, 10));
    else if (args[i] == "--max-bits" && (v = value()) != nullptr)
      o.max_bits = static_cast<int>(std::strtol(v, nullptr, 10));
    else if (args[i] == "--engine" && (v = value()) != nullptr) {
      const auto kind = core::parse_engine_kind(v);
      if (!kind.has_value()) {
        std::fprintf(stderr, "psdacc-opt: unknown engine '%s'\n", v);
        return false;
      }
      o.engine = *kind;
      o.engine_set = true;
    } else if (args[i] == "--seed" && (v = value()) != nullptr)
      o.seed = std::strtoull(v, nullptr, 10);
    else if (args[i] == "--workers" && (v = value()) != nullptr)
      o.workers = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    else if (args[i] == "--json")
      o.json = true;
    else if (args[i] == "--csv")
      o.csv = true;
    else if (args[i] == "--all-points")
      o.all_points = true;
    else if (!args[i].empty() && args[i][0] == '-') {
      std::fprintf(stderr, "psdacc-opt: unknown option '%s'\n",
                   args[i].c_str());
      return false;
    } else if (o.path.empty())
      o.path = args[i];
    else {
      std::fprintf(stderr, "psdacc-opt: one input document, got '%s' too\n",
                   args[i].c_str());
      return false;
    }
  }
  if (o.path.empty()) {
    std::fprintf(stderr, "psdacc-opt: missing input document\n");
    return false;
  }
  if (!opt::search::known_strategy(o.strategy)) {
    std::fprintf(stderr, "psdacc-opt: unknown strategy '%s'\n",
                 o.strategy.c_str());
    return false;
  }
  return true;
}

opt::OptimizerConfig base_config(const Options& o,
                                 const sfg::Scenario& scenario) {
  opt::OptimizerConfig cfg;
  cfg.noise_budget = o.budget;
  cfg.min_bits = o.min_bits;
  cfg.max_bits = o.max_bits;
  cfg.n_psd = scenario.config.n_psd;
  cfg.engine = o.engine;
  cfg.engine_opts = sim::engine_options_for(scenario.config);
  cfg.workers = o.workers;
  return cfg;
}

opt::search::StrategySpec strategy_spec(const Options& o) {
  opt::search::StrategySpec spec;
  spec.name = o.strategy;
  spec.anneal.seed = o.seed;
  return spec;
}

int cmd_run(const std::vector<std::string>& args,
            const std::string& strategy_verb) {
  Options o;
  if (!strategy_verb.empty()) o.strategy = strategy_verb;
  if (!parse_options(args, o)) return 2;

  sfg::Scenario scenario = sfg::load_scenario(o.path);
  if (scenario.graph.noise_sources().empty()) {
    std::fprintf(stderr, "psdacc-opt: %s has no noise sources\n",
                 o.path.c_str());
    return 2;
  }
  if (!core::engine_supports(o.engine, scenario.graph)) {
    std::fprintf(stderr,
                 "psdacc-opt: engine cannot evaluate this graph\n");
    return 2;
  }
  opt::WordlengthOptimizer optimizer(
      scenario.graph, scenario.graph.noise_sources(), base_config(o,
                                                                  scenario));
  const opt::OptimizerResult r =
      opt::search::run_strategy(optimizer, strategy_spec(o));
  const auto counters = optimizer.probe_counters();

  if (o.json) {
    std::printf(
        "{\"strategy\":\"%s\",\"budget\":%s,\"feasible\":%s,"
        "\"cost\":%s,\"noise\":%s,\"evaluations\":%zu,"
        "\"probes\":{\"full\":%zu,\"cached\":%zu,\"delta\":%zu},"
        "\"bits\":[%s]}\n",
        o.strategy.c_str(), shortest(o.budget).c_str(),
        r.feasible ? "true" : "false", shortest(r.cost).c_str(),
        shortest(r.noise).c_str(), r.evaluations, counters.full,
        counters.cached, counters.delta, join_bits(r.bits, ',').c_str());
  } else {
    std::printf(
        "strategy=%s budget=%s feasible=%d cost=%s noise=%s "
        "evaluations=%zu probes_delta=%zu probes_full=%zu bits=[%s]\n",
        o.strategy.c_str(), shortest(o.budget).c_str(), r.feasible ? 1 : 0,
        shortest(r.cost).c_str(), shortest(r.noise).c_str(), r.evaluations,
        counters.delta, counters.full, join_bits(r.bits, ' ').c_str());
  }
  return r.feasible ? 0 : 1;
}

int cmd_sweep(const std::vector<std::string>& args) {
  Options o;
  if (!parse_options(args, o)) return 2;

  sfg::Scenario scenario = sfg::load_scenario(o.path);
  if (scenario.graph.noise_sources().empty()) {
    std::fprintf(stderr, "psdacc-opt: %s has no noise sources\n",
                 o.path.c_str());
    return 2;
  }
  if (!core::engine_supports(o.engine, scenario.graph)) {
    std::fprintf(stderr,
                 "psdacc-opt: engine cannot evaluate this graph\n");
    return 2;
  }
  opt::search::SweepConfig cfg;
  cfg.budgets = o.budgets;
  cfg.budget_lo = o.budget_lo;
  cfg.budget_hi = o.budget_hi;
  cfg.points = o.points;
  cfg.base = base_config(o, scenario);
  cfg.base.workers = 1;  // fan out across points instead
  cfg.strategy = strategy_spec(o);
  cfg.workers = o.workers;
  opt::search::ParetoSweep sweep(
      scenario.graph, scenario.graph.noise_sources(), cfg);
  const std::vector<opt::search::ParetoPoint> points = sweep.run_points();
  const auto front = opt::search::ParetoFront::from_points(points);
  const auto counters = sweep.probe_counters();

  if (o.json) {
    const auto emit = [](const opt::search::ParetoPoint& p) {
      std::string out = "{\"budget\":" + shortest(p.budget) +
                        ",\"cost\":" + shortest(p.cost) +
                        ",\"noise\":" + shortest(p.noise) +
                        ",\"feasible\":" + (p.feasible ? "true" : "false") +
                        ",\"evaluations\":" + std::to_string(p.evaluations) +
                        ",\"bits\":[" + join_bits(p.bits, ',') + "]}";
      return out;
    };
    std::string body = "{\"strategy\":\"" + o.strategy + "\",\"front\":[";
    for (std::size_t i = 0; i < front.points().size(); ++i) {
      if (i > 0) body += ',';
      body += emit(front.points()[i]);
    }
    body += ']';
    if (o.all_points) {
      body += ",\"points\":[";
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0) body += ',';
        body += emit(points[i]);
      }
      body += ']';
    }
    body += ",\"probes\":{\"full\":" + std::to_string(counters.full) +
            ",\"cached\":" + std::to_string(counters.cached) +
            ",\"delta\":" + std::to_string(counters.delta) + "}}";
    std::printf("%s\n", body.c_str());
  } else if (o.csv) {
    std::fputs(o.all_points ? opt::search::points_to_csv(points).c_str()
                            : front.to_csv().c_str(),
               stdout);
  } else {
    std::printf("%s", front.to_table().c_str());
    std::printf(
        "points=%zu front=%zu probes_full=%zu probes_cached=%zu "
        "probes_delta=%zu\n",
        points.size(), front.points().size(), counters.full,
        counters.cached, counters.delta);
  }
  return front.points().empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "run") return cmd_run(args, "");
    if (cmd == "sweep") return cmd_sweep(args);
    if (opt::search::known_strategy(cmd)) return cmd_run(args, cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psdacc-opt: %s\n", e.what());
    return 2;
  }
  return usage();
}
