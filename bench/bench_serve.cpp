// Serving-layer latency benchmarks: the full client->server->client
// round-trip over a loopback socket for (a) a stats query (pure protocol
// overhead), (b) a cache-hit evaluation (content hash + LRU replay, no
// engine), (c) a cache-miss evaluation (hash + admission + the PSD
// engine itself), and the two multi-frame replies: (d) a greedy OPTJ that
// streams one PROG frame per descent step and (e) a PARJ sweep that
// streams one per budget point. The hit/miss gap is the serving tier's
// reason to exist; the stats round-trip is its floor. Real time is the
// quantity of interest — the path crosses threads (connection handler,
// job executor), so cpu_time of the benchmark thread alone undercounts
// the work.
//
// Beyond the timings, main() runs a hard gate and exits nonzero when it
// fails: the OPTJ client round trip may exceed the same job's in-process
// optimizer wall time by less than 20 ms. A reply of many small frames
// that waits on the peer's delayed ACK (Nagle's algorithm) costs 40 ms
// per job on Linux; the gate compares two timings of one run, so it holds
// on any host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "filters/transfer_function.hpp"
#include "opt/search/strategies.hpp"
#include "opt/wordlength_optimizer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sfg/graph.hpp"
#include "sfg/serialize.hpp"
#include "sim/error_measurement.hpp"

namespace {

using namespace psdacc;

// A small but non-trivial document: a quantized 15-tap filter chain, PSD
// engine only, n_psd 256 — enough work that the miss path measures the
// engine, not just the parser. @p salt perturbs a gain so each salted
// document gets its own content hash (a guaranteed miss).
std::string document_with_salt(std::size_t salt) {
  sfg::Graph g;
  const auto in = g.add_input("in");
  const auto q = g.add_quantizer(in, fxp::q_format(4, 12), "q");
  const auto gain =
      g.add_gain(q, 0.5 + 1e-9 * static_cast<double>(salt), "g");
  g.add_output(gain);
  sim::EvaluationConfig cfg;
  cfg.n_psd = 256;
  cfg.engines = {core::EngineKind::kPsd};
  return sfg::serialize(sfg::Scenario{std::move(g), std::move(cfg), {}, {}});
}

void BM_ServeStatsRoundTrip(benchmark::State& state) {
  serve::Server server;
  server.start();
  serve::Client client(server.port());
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.stats_text());
  }
  server.stop();
}
BENCHMARK(BM_ServeStatsRoundTrip)->UseRealTime();

void BM_ServeEvalCacheHit(benchmark::State& state) {
  serve::Server server;
  server.start();
  serve::Client client(server.port());
  const std::string doc = document_with_salt(0);
  (void)client.submit_eval(doc);  // warm the cache
  for (auto _ : state) {
    const auto r = client.submit_eval(doc);
    if (!r.ok || !r.cache_hit) state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(r.raw.data());
  }
  server.stop();
}
BENCHMARK(BM_ServeEvalCacheHit)->UseRealTime();

void BM_ServeEvalCacheMiss(benchmark::State& state) {
  serve::ServerConfig cfg;
  // Capacity 0 keeps every submission on the miss path without salting
  // interference from the LRU (inserts are skipped entirely).
  cfg.cache_capacity = 0;
  serve::Server server(cfg);
  server.start();
  serve::Client client(server.port());
  std::size_t salt = 0;
  for (auto _ : state) {
    const auto r = client.submit_eval(document_with_salt(salt++));
    if (!r.ok || r.cache_hit) state.SkipWithError("expected a cache miss");
    benchmark::DoNotOptimize(r.raw.data());
  }
  server.stop();
}
BENCHMARK(BM_ServeEvalCacheMiss)->UseRealTime();

// An input quantizer feeding a chain of quantized 3-tap smoothing stages:
// seven noise sources, so a greedy descent from 24 bits takes about 95
// steps, one PROG frame each.
constexpr int kOptStages = 6;
constexpr std::size_t kMinProgressFrames = 50;

std::string multi_source_document() {
  sfg::Graph g;
  auto node = g.add_quantizer(g.add_input("in"), fxp::q_format(4, 12), "q");
  const filt::TransferFunction smooth({0.25, 0.5, 0.25}, {1.0});
  for (int i = 0; i < kOptStages; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    node = g.add_block(node, smooth, fxp::q_format(4, 12), name);
  }
  g.add_output(node);
  sim::EvaluationConfig cfg;
  cfg.n_psd = 256;
  cfg.engines = {core::EngineKind::kPsd};
  return sfg::serialize(sfg::Scenario{std::move(g), std::move(cfg), {}, {}});
}

serve::OptimizerSpec opt_spec() {
  serve::OptimizerSpec spec;
  spec.strategy = "greedy";
  spec.noise_budget = 1e-7;
  spec.min_bits = 2;
  spec.max_bits = 24;
  return spec;
}

void BM_ServeOptRoundTrip(benchmark::State& state) {
  serve::Server server;
  server.start();
  serve::Client client(server.port());
  const std::string doc = multi_source_document();
  const serve::OptimizerSpec spec = opt_spec();
  std::size_t frames = 0;
  for (auto _ : state) {
    const auto r = client.submit_opt(doc, spec);
    if (!r.ok || r.progress.size() < kMinProgressFrames)
      state.SkipWithError("expected a multi-frame OPTJ reply");
    frames = r.progress.size();
  }
  state.counters["prog_frames"] = static_cast<double>(frames);
  server.stop();
}
BENCHMARK(BM_ServeOptRoundTrip)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ServeSweepRoundTrip(benchmark::State& state) {
  serve::ServerConfig cfg;
  cfg.cache_capacity = 0;  // every sweep computes and streams its points
  serve::Server server(cfg);
  server.start();
  serve::Client client(server.port());
  const std::string doc = multi_source_document();
  serve::SweepSpec spec;
  spec.budgets = {1e-9, 1e-8, 1e-7, 1e-6};
  for (auto _ : state) {
    const auto r = client.submit_sweep(doc, spec);
    if (!r.ok || r.progress.size() != spec.budgets.size())
      state.SkipWithError("expected one PROG frame per budget point");
    benchmark::DoNotOptimize(r.raw.data());
  }
  server.stop();
}
BENCHMARK(BM_ServeSweepRoundTrip)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- hard gate -------------------------------------------------------------

constexpr int kGateWarmup = 4;
constexpr int kGateReps = 9;
constexpr double kGateMaxGapMs = 20.0;

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// The OPTJ job run in this process, configured as the server configures
// it (minus the progress stream): parse, construct, search.
double in_process_opt_ms(const std::string& doc,
                         const serve::OptimizerSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  sfg::Scenario sc = sfg::parse_scenario(doc);
  opt::OptimizerConfig cfg;
  cfg.noise_budget = spec.noise_budget;
  cfg.min_bits = spec.min_bits;
  cfg.max_bits = spec.max_bits;
  cfg.n_psd = sc.config.n_psd;
  cfg.engine_opts = sim::engine_options_for(sc.config);
  opt::WordlengthOptimizer optimizer(sc.graph, sc.graph.noise_sources(),
                                     cfg);
  opt::search::StrategySpec strategy;
  strategy.name = spec.strategy;
  benchmark::DoNotOptimize(opt::search::run_strategy(optimizer, strategy));
  return elapsed_ms(t0);
}

// Medians after a warm-up: a fresh TCP connection ACKs at once for its
// first segments (Linux quick-ACK mode), so only the later replies of a
// connection show a delayed-ACK stall.
bool run_serve_gate() {
  const std::string doc = multi_source_document();
  const serve::OptimizerSpec spec = opt_spec();
  std::vector<double> local_ms, served_ms;
  for (int i = 0; i < kGateReps; ++i)
    local_ms.push_back(in_process_opt_ms(doc, spec));

  serve::Server server;
  server.start();
  serve::Client client(server.port());
  std::size_t frames = 0;
  bool ok = true;
  for (int i = 0; i < kGateWarmup + kGateReps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = client.submit_opt(doc, spec);
    if (i >= kGateWarmup) served_ms.push_back(elapsed_ms(t0));
    ok = ok && r.ok;
    frames = r.progress.size();
  }
  server.stop();

  const double local = median(local_ms);
  const double served = median(served_ms);
  const double gap = served - local;
  std::printf(
      "[gate] OPTJ: %zu PROG frames, client round trip %.2f ms vs "
      "in-process %.2f ms (gap %.2f ms, limit %.0f ms)\n",
      frames, served, local, gap, kGateMaxGapMs);
  if (!ok || frames < kMinProgressFrames) {
    std::printf("[gate] FAIL: expected a successful OPTJ reply with >= %zu "
                "PROG frames\n",
                kMinProgressFrames);
    return false;
  }
  if (gap >= kGateMaxGapMs) {
    std::printf("[gate] FAIL: the served reply waits outside the job "
                "(a stalled multi-frame reply)\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_serve_gate() ? 0 : 1;
}
