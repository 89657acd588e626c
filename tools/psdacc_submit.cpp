// psdacc-submit: client CLI for a running psdacc-serve daemon.
//
//   psdacc-submit [--port P] eval [--timeout-ms T] [--check] <file.sfg>...
//       Submit each document for evaluation and print the per-engine
//       output noise powers. With --check, also compare the served values
//       against the file's own `expect` section (1e-9 relative — the
//       golden-corpus contract) and fail on mismatch.
//
//   psdacc-submit [--port P] opt [--strategy S] [--budget B]
//                 [--min-bits N] [--max-bits N] [--engine E]
//                 [--timeout-ms T] <file.sfg>
//       Submit a word-length optimization job and print the resulting
//       assignment (streamed PROG frames are counted, not printed).
//
//   psdacc-submit [--port P] sweep [--strategy S] [--budgets B1,B2,...]
//                 [--budget-lo B] [--budget-hi B] [--points N]
//                 [--min-bits N] [--max-bits N] [--engine E] [--seed S]
//                 [--timeout-ms T] <file.sfg>
//       Submit a Pareto-sweep job (PARJ) and print the dominance-filtered
//       front as CSV (one PROG frame streams per completed budget point).
//
//   psdacc-submit [--port P] stats
//       Print the server's stats snapshot.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "sfg/serialize.hpp"

namespace {

using namespace psdacc;

int usage() {
  std::fprintf(
      stderr,
      "usage: psdacc-submit [--port P] eval [--timeout-ms T] [--check]"
      " <file.sfg>...\n"
      "       psdacc-submit [--port P] opt [--strategy S] [--budget B]"
      " [--min-bits N]\n"
      "                     [--max-bits N] [--engine E] [--timeout-ms T]"
      " <file.sfg>\n"
      "       psdacc-submit [--port P] sweep [--strategy S]"
      " [--budgets B1,B2,...]\n"
      "                     [--budget-lo B] [--budget-hi B] [--points N]"
      " [--min-bits N]\n"
      "                     [--max-bits N] [--engine E] [--seed S]"
      " [--timeout-ms T] <file.sfg>\n"
      "       psdacc-submit [--port P] stats\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void print_failure(const std::string& path, const serve::Response& r) {
  std::fprintf(stderr, "FAIL %s [%s] %s\n", path.c_str(), r.error.c_str(),
               r.message.c_str());
  if (r.error == "PARSE")
    std::fprintf(stderr, "     at line %llu, column %llu\n",
                 static_cast<unsigned long long>(r.line),
                 static_cast<unsigned long long>(r.column));
}

/// Served value vs the document's recorded golden, 1e-9 relative.
bool check_goldens(const std::string& path, const sfg::Scenario& scenario,
                   const serve::Response& r) {
  bool ok = true;
  for (const auto& [kind, golden] : scenario.expected) {
    bool found = false;
    for (const auto& engine : r.engines) {
      if (engine.kind != kind) continue;
      found = true;
      const double rel = std::abs(engine.power - golden) /
                         std::max(std::abs(golden), 1e-300);
      if (rel > 1e-9) {
        std::fprintf(stderr,
                     "FAIL %s golden %s: served %.17g, expected %.17g "
                     "(rel %.3g)\n",
                     path.c_str(),
                     std::string(core::to_string(kind)).c_str(),
                     engine.power, golden, rel);
        ok = false;
      }
    }
    if (!found) {
      std::fprintf(stderr, "FAIL %s golden %s: engine missing from reply\n",
                   path.c_str(),
                   std::string(core::to_string(kind)).c_str());
      ok = false;
    }
  }
  return ok;
}

int cmd_eval(serve::Client& client, const std::vector<std::string>& args) {
  std::chrono::milliseconds timeout{0};
  bool check = false;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--timeout-ms" && i + 1 < args.size())
      timeout = std::chrono::milliseconds(
          std::strtol(args[++i].c_str(), nullptr, 10));
    else if (args[i] == "--check")
      check = true;
    else
      files.push_back(args[i]);
  }
  if (files.empty()) return usage();

  int failures = 0;
  for (const auto& path : files) {
    const std::string document = read_file(path);
    const serve::Response r = client.submit_eval(document, timeout);
    if (!r.ok) {
      print_failure(path, r);
      ++failures;
      continue;
    }
    std::string engines;
    for (const auto& engine : r.engines) {
      engines += ' ';
      engines += core::to_string(engine.kind);
      engines += '=';
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.12g", engine.power);
      engines += buf;
    }
    std::printf("ok   %s cache=%s%s\n", path.c_str(),
                r.cache_hit ? "hit" : "miss", engines.c_str());
    if (check &&
        !check_goldens(path, sfg::parse_scenario(document), r))
      ++failures;
  }
  if (failures > 0)
    std::fprintf(stderr, "%d of %zu submission(s) failed\n", failures,
                 files.size());
  return failures == 0 ? 0 : 1;
}

int cmd_opt(serve::Client& client, const std::vector<std::string>& args) {
  serve::OptimizerSpec spec;
  std::chrono::milliseconds timeout{0};
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < args.size() ? args[++i].c_str() : nullptr;
    };
    const char* v = nullptr;
    if (args[i] == "--strategy" && (v = value()) != nullptr)
      spec.strategy = v;
    else if (args[i] == "--budget" && (v = value()) != nullptr)
      spec.noise_budget = std::strtod(v, nullptr);
    else if (args[i] == "--min-bits" && (v = value()) != nullptr)
      spec.min_bits = static_cast<int>(std::strtol(v, nullptr, 10));
    else if (args[i] == "--max-bits" && (v = value()) != nullptr)
      spec.max_bits = static_cast<int>(std::strtol(v, nullptr, 10));
    else if (args[i] == "--engine" && (v = value()) != nullptr) {
      const auto kind = core::parse_engine_kind(v);
      if (!kind.has_value()) {
        std::fprintf(stderr, "psdacc-submit: unknown engine '%s'\n", v);
        return 2;
      }
      spec.engine = *kind;
    } else if (args[i] == "--timeout-ms" && (v = value()) != nullptr)
      timeout = std::chrono::milliseconds(std::strtol(v, nullptr, 10));
    else
      files.push_back(args[i]);
  }
  if (files.size() != 1) return usage();

  const std::string& path = files.front();
  const serve::Response r =
      client.submit_opt(read_file(path), spec, timeout);
  if (!r.ok && r.error != "TIMEOUT") {
    print_failure(path, r);
    return 1;
  }
  std::string bits;
  for (std::size_t i = 0; i < r.bits.size(); ++i) {
    if (i > 0) bits += ' ';
    bits += std::to_string(r.bits[i]);
  }
  std::printf(
      "%s %s strategy=%s feasible=%d cost=%g noise=%.12g evaluations=%llu "
      "progress=%zu bits=[%s]\n",
      r.cancelled ? "TIMEOUT(partial)" : "ok  ", path.c_str(),
      r.strategy.c_str(), r.feasible ? 1 : 0, r.cost, r.noise,
      static_cast<unsigned long long>(r.evaluations), r.progress.size(),
      bits.c_str());
  return r.cancelled ? 3 : 0;
}

int cmd_sweep(serve::Client& client, const std::vector<std::string>& args) {
  serve::SweepSpec spec;
  std::chrono::milliseconds timeout{0};
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < args.size() ? args[++i].c_str() : nullptr;
    };
    const char* v = nullptr;
    if (args[i] == "--strategy" && (v = value()) != nullptr)
      spec.strategy = v;
    else if (args[i] == "--budgets" && (v = value()) != nullptr) {
      spec.budgets.clear();
      std::string list(v);
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t end = list.find(',', pos);
        if (end == std::string::npos) end = list.size();
        if (end > pos)
          spec.budgets.push_back(
              std::strtod(list.substr(pos, end - pos).c_str(), nullptr));
        pos = end + 1;
      }
    } else if (args[i] == "--budget-lo" && (v = value()) != nullptr)
      spec.budget_lo = std::strtod(v, nullptr);
    else if (args[i] == "--budget-hi" && (v = value()) != nullptr)
      spec.budget_hi = std::strtod(v, nullptr);
    else if (args[i] == "--points" && (v = value()) != nullptr)
      spec.points = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    else if (args[i] == "--min-bits" && (v = value()) != nullptr)
      spec.min_bits = static_cast<int>(std::strtol(v, nullptr, 10));
    else if (args[i] == "--max-bits" && (v = value()) != nullptr)
      spec.max_bits = static_cast<int>(std::strtol(v, nullptr, 10));
    else if (args[i] == "--engine" && (v = value()) != nullptr) {
      const auto kind = core::parse_engine_kind(v);
      if (!kind.has_value()) {
        std::fprintf(stderr, "psdacc-submit: unknown engine '%s'\n", v);
        return 2;
      }
      spec.engine = *kind;
    } else if (args[i] == "--seed" && (v = value()) != nullptr)
      spec.seed = std::strtoull(v, nullptr, 10);
    else if (args[i] == "--timeout-ms" && (v = value()) != nullptr)
      timeout = std::chrono::milliseconds(std::strtol(v, nullptr, 10));
    else
      files.push_back(args[i]);
  }
  if (files.size() != 1) return usage();

  const std::string& path = files.front();
  const serve::Response r =
      client.submit_sweep(read_file(path), spec, timeout);
  if (!r.ok && r.error != "TIMEOUT") {
    print_failure(path, r);
    return 1;
  }
  const bool partial = !r.ok;  // TIMEOUT with a completed prefix attached
  std::printf("%s %s strategy=%s cache=%s points=%zu front=%zu "
              "probes_full=%llu probes_delta=%llu progress=%zu\n",
              partial ? "TIMEOUT(partial)" : "ok  ", path.c_str(),
              r.strategy.c_str(), r.cache_hit ? "hit" : "miss",
              r.sweep_points.size(), r.front.size(),
              static_cast<unsigned long long>(r.probes_full),
              static_cast<unsigned long long>(r.probes_delta),
              r.progress.size());
  std::printf("budget,cost,noise,feasible,evaluations,bits\n");
  for (const auto& p : r.front) {
    std::string bits;
    for (std::size_t i = 0; i < p.bits.size(); ++i) {
      if (i > 0) bits += '|';
      bits += std::to_string(p.bits[i]);
    }
    std::printf("%.17g,%.17g,%.17g,%d,%llu,%s\n", p.budget, p.cost,
                p.noise, p.feasible ? 1 : 0,
                static_cast<unsigned long long>(p.evaluations),
                bits.c_str());
  }
  return partial ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 7533;
  int i = 1;
  if (i + 1 < argc && std::strcmp(argv[i], "--port") == 0) {
    port = static_cast<std::uint16_t>(std::strtoul(argv[i + 1], nullptr, 10));
    i += 2;
  }
  if (i >= argc) return usage();
  const std::string cmd = argv[i++];
  const std::vector<std::string> args(argv + i, argv + argc);

  // Checked before connecting, so --help and typos need no daemon.
  if (cmd != "eval" && cmd != "opt" && cmd != "sweep" &&
      !(cmd == "stats" && args.empty()))
    return usage();

  try {
    serve::Client client(port);
    if (cmd == "eval") return cmd_eval(client, args);
    if (cmd == "opt") return cmd_opt(client, args);
    if (cmd == "sweep") return cmd_sweep(client, args);
    std::fputs(client.stats_text().c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psdacc-submit: %s\n", e.what());
    return 1;
  }
}
