// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Runs one workload (search_delta, search_full, montecarlo, serve_mix) for
// the given time, checks every result, and prints the machine facts, a
// human-readable metric table and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (0 where a layer is not on the workload's path). Exits 1 on any wrong
// result, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "dsp/kernels.hpp"
#include "summary.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py --self-test compares them).
constexpr MetricSpec kEndToEnd[] = {
    {"jobs_per_s", "1/s"},   {"job_p50_ms", "ms"},    {"job_p90_ms", "ms"},
    {"ok_ratio", "ratio"},   {"cpu_ms_per_job", "ms"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},   {"wl_cost_mean", "bits"}, {"ed_abs_max", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sfg.parse_ms", "ms"},
    {"opt.construct_ms", "ms"},
    {"opt.search_ms", "ms"},
    {"opt.evaluations", "count"},
    {"opt.ns_per_probe", "ns"},
    {"core.probes_full", "count"},
    {"core.probes_delta", "count"},
    {"core.probes_cached", "count"},
    {"core.delta_share", "ratio"},
    {"core.tau_pp_psd_ms", "ms"},
    {"core.tau_pp_flat_ms", "ms"},
    {"core.tau_pp_moment_ms", "ms"},
    {"core.tau_eval_psd_ms", "ms"},
    {"runtime.speedup_vs_1", "ratio"},
    {"runtime.cpu_per_wall", "ratio"},
    {"sim.tau_eval_ms", "ms"},
    {"sim.samples_per_s", "1/s"},
    {"dsp.fir_macs", "count"},
    {"dsp.quantize_ops", "count"},
    {"dsp.macs_per_s", "1/s"},
    {"serve.eval_hit_ms", "ms"},
    {"serve.eval_miss_ms", "ms"},
    {"serve.opt_ms", "ms"},
    {"serve.sweep_ms", "ms"},
    {"serve.refusal_ms", "ms"},
    {"serve.server_p50_ms", "ms"},
    {"serve.server_p95_ms", "ms"},
    {"serve.transport_eval_hit_ms", "ms"},
    {"serve.transport_eval_miss_ms", "ms"},
    {"serve.transport_opt_ms", "ms"},
    {"serve.transport_sweep_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.prog_frames_per_opt", "count"},
    {"bench.self_ms", "ms"},
    {"sfg.self_ms", "ms"},
    {"opt.self_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0, b = 0, c = 0, d = 0;
  __get_cpuid(0x80000000u, &max_leaf, &b, &c, &d);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.c_str();
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

std::string isa_flags() {
  std::string out;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const auto add = [&out](bool has, const char* name) {
    if (!has) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(__builtin_cpu_supports("sse2"), "sse2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
#endif
  return out;
}

std::string machine_json(const RunOptions& opts) {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(opts.workers);
  out += ", \"cpu\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"isa_flags\": \"" + isa_flags() + "\"";
  out += ", \"kernel_isa\": \"" +
         json_escape(psdacc::dsp::kernels::active_isa()) + "\"";
  out += ", \"kernel_width\": " +
         std::to_string(psdacc::dsp::kernels::width());
#if defined(__VERSION__)
  out += ", \"compiler\": \"" + json_escape(__VERSION__) + "\"";
#endif
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"workload\": \"" + json_escape(opts.workload) + "\"";
  out += ", \"seed\": " + std::to_string(opts.seed);
  out += ", \"seconds\": " + format_number(opts.seconds);
  out += ", \"trace\": " + std::string(opts.trace ? "1" : "0");
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<search_delta|search_full|montecarlo|serve_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n"
               "       perfbench --list-metrics\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string trace_file;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      for (const auto& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const auto& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      return usage(("bad argument " + key).c_str());
    args[key.substr(2)] = argv[++i];
  }
  try {
    opts.workload = args.at("workload");
    opts.seed = std::stoull(args.at("seed"));
    opts.seconds = std::stod(args.at("seconds"));
    opts.trace = std::stoi(args.at("trace")) != 0;
  } catch (const std::exception&) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (args.count("trace-file") != 0) trace_file = args["trace-file"];
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  opts.workers = std::max(1u, std::thread::hardware_concurrency());

  std::printf("machine %s\n", machine_json(opts).c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    if (opts.workload == "search_delta") {
      out = run_search(opts, false);
    } else if (opts.workload == "search_full") {
      out = run_search(opts, true);
    } else if (opts.workload == "montecarlo") {
      out = run_montecarlo(opts);
    } else if (opts.workload == "serve_mix") {
      out = run_serve(opts);
    } else {
      return usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload aborted: %s\n", e.what());
    return 1;
  }

  std::map<std::string, Metric> emitted;
  for (const Metric& m : out.metrics()) {
    emitted[m.name] = m;
    std::printf("  %-30s %16s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& e : out.errors())
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());

  bool complete = true;
  std::string metrics;
  const auto add = [&](const MetricSpec& spec, double value) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", spec.name);
      complete = false;
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(spec.name).append("\": {\"value\": ");
    metrics.append(format_number(value)).append(", \"unit\": \"");
    metrics.append(spec.unit).append("\"}");
  };
  if (opts.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = emitted.find(spec.name);
      add(spec, it == emitted.end() ? 0.0 : it->second.value);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = emitted.find(spec.name);
      if (it == emitted.end()) {
        std::fprintf(stderr, "perfbench: missing metric %s\n", spec.name);
        complete = false;
        continue;
      }
      add(spec, it->second.value);
    }
  }
  if (opts.trace && !trace_file.empty()) {
    std::ofstream f(trace_file);
    f << out.trace_json;
    if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
  }
  const bool correct = complete && out.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted()),
              static_cast<unsigned long long>(out.failed()), metrics.c_str());
  return correct ? 0 : 1;
}
