// google-benchmark microbenchmarks of the kernels whose costs set the
// paper's complexity story: FFT preprocessing (tau_pp, O(N log N)), one
// PSD propagation sweep (tau_eval, O(N) per node), the flat analyzer
// (O(sources x nodes x N)), and the fixed-point simulation (O(taps x
// samples)).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "dsp/kernels.hpp"
#include "core/accuracy_engine.hpp"
#include "core/flat_analyzer.hpp"
#include "core/moment_analyzer.hpp"
#include "core/psd_analyzer.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/spectral.hpp"
#include "filters/iir_design.hpp"
#include "sim/error_measurement.hpp"
#include "sim/execution_plan.hpp"
#include "sim/executor.hpp"
#include "support/random.hpp"

namespace {

using namespace psdacc;

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(1);
  std::vector<dsp::cplx> data(n);
  for (auto& v : data) v = dsp::cplx(rng.gaussian(), rng.gaussian());
  for (auto _ : state) {
    auto copy = data;
    dsp::fft(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

// Real-input transform through a cached plan (reused output buffer), the
// primitive under every Welch segment.
void BM_Rfft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(2);
  const auto x = gaussian_signal(n, rng);
  const dsp::FftPlan& plan = dsp::plan_for(n);
  std::vector<dsp::cplx> spectrum;
  for (auto _ : state) {
    plan.rfft(x, spectrum);
    benchmark::DoNotOptimize(spectrum);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Rfft)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

// The acceptance workload: Welch PSD of 2^14 samples over 1024 bins.
void BM_WelchPsd(benchmark::State& state) {
  Xoshiro256 rng(3);
  const auto x = gaussian_signal(1u << 14, rng);
  for (auto _ : state) {
    auto psd = dsp::welch_psd(x, 1024);
    benchmark::DoNotOptimize(psd);
  }
}
BENCHMARK(BM_WelchPsd);

// execute_sisos over the Table-1 filter banks (one fixed-point + one
// reference sweep per filter, fresh plan per call, as the Table-1 harness
// does). bank: 0 = FIR population, 1 = IIR population.
void BM_ExecuteSisosTable1(benchmark::State& state) {
  const auto bank = state.range(0) == 0 ? bench::fir_bank()
                                        : bench::iir_bank();
  std::vector<sfg::Graph> graphs;
  graphs.reserve(bank.size());
  for (const auto& spec : bank)
    graphs.push_back(bench::quantized_filter_graph(spec.tf, 12));
  Xoshiro256 rng(4);
  const auto x = uniform_signal(1u << 12, 0.9, rng);
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& g : graphs) {
      acc += sim::execute_sisos(g, x, sim::Mode::kReference)[5];
      acc += sim::execute_sisos(g, x, sim::Mode::kFixedPoint)[5];
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ExecuteSisosTable1)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"bank"})
    ->Unit(benchmark::kMillisecond);

sfg::Graph chain_graph(int blocks, int d) {
  sfg::Graph g;
  auto head = g.add_input();
  head = g.add_quantizer(head, fxp::q_format(4, d));
  for (int b = 0; b < blocks; ++b) {
    const auto tf = filt::iir_lowpass(filt::IirFamily::kButterworth, 3,
                                      0.1 + 0.03 * (b % 10));
    head = g.add_block(head, tf, fxp::q_format(4, d));
  }
  g.add_output(head);
  return g;
}

// Repeated simulation through one long-lived ExecutionPlan: what a
// Monte-Carlo loop pays per sweep once plan setup and buffers are amortized.
void BM_ExecutionPlanReuse(benchmark::State& state) {
  const auto g = chain_graph(4, 12);
  Xoshiro256 rng(5);
  const auto x = uniform_signal(1u << 12, 0.9, rng);
  sim::ExecutionPlan plan(g);
  for (auto _ : state) {
    const auto y = plan.run_sisos(x, sim::Mode::kFixedPoint);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ExecutionPlanReuse)->Unit(benchmark::kMicrosecond);

// One optimizer-style probe: PsdAnalyzer::output_noise_power() into the
// analyzer's reused workspace (allocation-free after the first call).
void BM_PsdProbe(benchmark::State& state) {
  const auto g = chain_graph(16, 12);
  core::PsdAnalyzer analyzer(g, {.n_psd = 512});
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.output_noise_power());
  }
}
BENCHMARK(BM_PsdProbe)->Unit(benchmark::kMicrosecond);

// tau_pp: constructing the analyzer samples all block responses.
void BM_PsdPreprocess(benchmark::State& state) {
  const auto g = chain_graph(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    core::PsdAnalyzer analyzer(g, {.n_psd = 1024});
    benchmark::DoNotOptimize(&analyzer);
  }
}
BENCHMARK(BM_PsdPreprocess)->Arg(4)->Arg(16)->Arg(64);

// A probe context's engine: binding a graph clone to the prototype's
// compiled model. Compare with BM_PsdPreprocess — a clone does no grid
// work, so its cost stays flat in the block count.
void BM_PsdCloneForWorker(benchmark::State& state) {
  const auto g = chain_graph(static_cast<int>(state.range(0)), 12);
  const auto prototype =
      core::make_engine(core::EngineKind::kPsd, g, {.n_psd = 1024});
  const sfg::Graph worker_graph = g;
  for (auto _ : state) {
    auto clone = prototype->clone_for_worker(worker_graph);
    benchmark::DoNotOptimize(clone.get());
  }
}
BENCHMARK(BM_PsdCloneForWorker)->Arg(4)->Arg(16)->Arg(64);

// tau_eval: one propagation sweep; linear in both nodes and N_PSD.
void BM_PsdEvaluate(benchmark::State& state) {
  const auto g = chain_graph(16, 12);
  core::PsdAnalyzer analyzer(
      g, {.n_psd = static_cast<std::size_t>(state.range(0))});
  for (auto _ : state) {
    auto spectra = analyzer.evaluate();
    benchmark::DoNotOptimize(spectra);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PsdEvaluate)
    ->RangeMultiplier(2)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_MomentEvaluate(benchmark::State& state) {
  const auto g = chain_graph(static_cast<int>(state.range(0)), 12);
  core::MomentAnalyzer analyzer(g);
  for (auto _ : state) {
    auto moments = analyzer.evaluate();
    benchmark::DoNotOptimize(moments);
  }
}
BENCHMARK(BM_MomentEvaluate)->Arg(4)->Arg(16)->Arg(64);

// One moment-backed optimizer probe: output_noise_power() into the
// analyzer's reused workspace — parity with BM_PsdProbe so the
// allocation-free path of both engine backends is tracked.
void BM_MomentProbe(benchmark::State& state) {
  const auto g = chain_graph(16, 12);
  core::MomentAnalyzer analyzer(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.output_noise_power());
  }
}
BENCHMARK(BM_MomentProbe)->Unit(benchmark::kMicrosecond);

// One incremental optimizer probe (AccuracyEngine::evaluate_delta):
// re-derives a single source's noise contribution and combines the other
// sources' contributions from the engine's cache — O(sources) scalar work
// instead of a full O(nodes x N) propagation sweep. Counterpart to
// BM_PsdProbe / BM_MomentProbe on the same 16-block chain; the gap between
// them is the per-probe win the incremental optimizer path banks.
// engine: 0 = psd, 1 = moment, 2 = flat.
void BM_DeltaProbe(benchmark::State& state) {
  const auto g = chain_graph(16, 12);
  const auto kind = state.range(0) == 0   ? core::EngineKind::kPsd
                    : state.range(0) == 1 ? core::EngineKind::kMoment
                                          : core::EngineKind::kFlat;
  const auto engine = core::make_engine(kind, g, {.n_psd = 512});
  const auto v = g.noise_sources().front();
  const auto coarse = fxp::q_format(4, 11);
  const auto fine = fxp::q_format(4, 13);
  // Warm the lazily built per-source unit responses (one-time cost, the
  // delta analog of analyzer construction).
  engine->evaluate_delta(v, coarse);
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    benchmark::DoNotOptimize(engine->evaluate_delta(v, flip ? fine : coarse));
  }
}
BENCHMARK(BM_DeltaProbe)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"engine"})
    ->Unit(benchmark::kNanosecond);

// Flat method: per-source full-graph sweeps — the scalability wall.
void BM_FlatEvaluate(benchmark::State& state) {
  const auto g = chain_graph(static_cast<int>(state.range(0)), 12);
  core::FlatAnalyzer analyzer(g, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.output_noise_power());
  }
}
BENCHMARK(BM_FlatEvaluate)->Arg(4)->Arg(16);

void BM_FixedPointSimulation(benchmark::State& state) {
  const auto g = chain_graph(4, 12);
  Xoshiro256 rng(2);
  const auto x =
      uniform_signal(static_cast<std::size_t>(state.range(0)), 0.9, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::measure_output_error(g, x, 0).power);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FixedPointSimulation)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Complexity(benchmark::oN);

// ---------------------------------------------------------------------------
// dsp::kernels primitives (the SIMD layer). Each has a kernels::scalar
// twin, so a regression here localizes to the vector path itself rather
// than the call sites above.
// ---------------------------------------------------------------------------

void BM_FirKernel(benchmark::State& state) {
  Xoshiro256 rng(6);
  const auto x = gaussian_signal(1u << 14, rng);
  const auto b = gaussian_signal(24, rng);
  std::vector<double> out;
  for (auto _ : state) {
    dsp::kernels::fir_apply(b, x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(std::string(dsp::kernels::active_isa()));
}
BENCHMARK(BM_FirKernel)->Unit(benchmark::kMicrosecond);

void BM_QuantizeSpan(benchmark::State& state) {
  Xoshiro256 rng(7);
  const auto x = uniform_signal(1u << 14, 0.9, rng);
  std::vector<double> out(x.size());
  const fxp::QuantizerKernel q(fxp::q_format(4, 12));
  for (auto _ : state) {
    dsp::kernels::quantize_span(q, x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(std::string(dsp::kernels::active_isa()));
}
BENCHMARK(BM_QuantizeSpan)->Unit(benchmark::kMicrosecond);

void BM_WelchAccumulate(benchmark::State& state) {
  Xoshiro256 rng(8);
  const std::size_t n = 1024;
  std::vector<dsp::cplx> spectrum(n);
  for (auto& v : spectrum) v = dsp::cplx(rng.gaussian(), rng.gaussian());
  std::vector<double> acc(n, 0.0);
  for (auto _ : state) {
    dsp::kernels::window_accumulate(acc, spectrum, 1.0 / 64.0);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_WelchAccumulate);

// One radix-2 stage worth of butterflies at FFT-typical group sizes.
void BM_Butterfly(benchmark::State& state) {
  const auto half = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(9);
  auto re = gaussian_signal(2 * half, rng);
  auto im = gaussian_signal(2 * half, rng);
  std::vector<double> wr(half), wi(half);
  for (std::size_t k = 0; k < half; ++k) {
    const double ang =
        -3.14159265358979323846 * static_cast<double>(k) /
        static_cast<double>(half);
    wr[k] = std::cos(ang);
    wi[k] = std::sin(ang);
  }
  for (auto _ : state) {
    dsp::kernels::butterfly(re.data(), im.data(), half, wr.data(),
                            wi.data(), false);
    benchmark::DoNotOptimize(re.data());
  }
}
BENCHMARK(BM_Butterfly)->Arg(8)->Arg(512);

// ---------------------------------------------------------------------------
// Acceptance floor: the SIMD build must beat the always-compiled scalar
// references by >= 1.5x on the FIR and quantizer kernels, measured
// in-process on this machine. Scalar builds (width() == 1) skip the check
// — there the public entry points *are* the references.
// ---------------------------------------------------------------------------

template <typename F>
double seconds_per_call(F&& fn, int iters) {
  fn();  // warm up caches and the page tables backing the buffers
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / iters;
}

int check_simd_floor() {
  if (dsp::kernels::width() <= 1) {
    std::printf("kernel floor: scalar build (%s), skipping speedup gate\n",
                std::string(dsp::kernels::active_isa()).c_str());
    return 0;
  }
  Xoshiro256 rng(10);
  const auto x = uniform_signal(1u << 14, 0.9, rng);
  const auto b = gaussian_signal(24, rng);
  std::vector<double> out(x.size());
  const fxp::QuantizerKernel q(fxp::q_format(4, 12));
  constexpr int kIters = 200;
  constexpr double kFloor = 1.5;

  const double fir_simd = seconds_per_call(
      [&] { dsp::kernels::fir_apply(b, x, out); }, kIters);
  const double fir_scalar = seconds_per_call(
      [&] { dsp::kernels::scalar::fir_apply(b, x, out); }, kIters);
  const double q_simd = seconds_per_call(
      [&] { dsp::kernels::quantize_span(q, x, out); }, kIters);
  const double q_scalar = seconds_per_call(
      [&] { dsp::kernels::scalar::quantize_span(q, x, out); }, kIters);

  const double fir_speedup = fir_scalar / fir_simd;
  const double q_speedup = q_scalar / q_simd;
  std::printf(
      "kernel floor (%s, width %zu): fir %.2fx, quantize %.2fx "
      "(floor %.1fx)\n",
      std::string(dsp::kernels::active_isa()).c_str(),
      dsp::kernels::width(), fir_speedup, q_speedup, kFloor);
  int failures = 0;
  if (fir_speedup < kFloor) {
    std::fprintf(stderr, "FAIL: fir_apply speedup %.2fx < %.1fx\n",
                 fir_speedup, kFloor);
    ++failures;
  }
  if (q_speedup < kFloor) {
    std::fprintf(stderr, "FAIL: quantize_span speedup %.2fx < %.1fx\n",
                 q_speedup, kFloor);
    ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return check_simd_floor();
}
