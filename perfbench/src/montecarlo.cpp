// montecarlo: a closed loop of sim::evaluate_accuracy (every engine,
// Monte-Carlo reference in nproc shards), one job at a time. The timed
// loop runs the shards on a 1-worker pool, for the reason given in
// search.cpp's set_up(); the traced run's runtime.speedup_vs_1 times them
// on an nproc-worker pool. Results do not depend on the worker count.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "jobs.hpp"
#include "runtime/thread_pool.hpp"
#include "sfg/serialize.hpp"
#include "sim/error_measurement.hpp"
#include "summary.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace psdacc;

namespace {

// Largest |E_d| of the psd estimate the check accepts. The Table-I
// filters and DWT codecs measure a few percent; the frequency-filtering
// SFG measures |E_d| ~ 0.34 against its simulation at every word-length
// tried, so the tolerance sits above that.
constexpr double kEdTolerance = 0.5;

struct Setup {
  std::vector<EvalJob> jobs;
  std::unique_ptr<runtime::ThreadPool> pool;
  std::vector<sim::AccuracyReport> refs;
};

sim::AccuracyReport run_job(const EvalJob& job, runtime::ThreadPool* pool,
                            Trace& trace, std::uint64_t job_id) {
  ScopedSpan root(trace, "bench.job", job_id);
  sfg::Scenario sc;
  {
    ScopedSpan span(trace, "sfg.parse_scenario", job_id);
    sc = sfg::parse_scenario(job.document);
  }
  fill_lazy_caches(sc.graph);
  ScopedSpan span(trace, "sim.evaluate_accuracy", job_id);
  return sim::evaluate_accuracy(sc.graph, sc.config, pool);
}

// Powers and E_d bit for bit; the timings naturally differ.
bool same_report(const sim::AccuracyReport& a, const sim::AccuracyReport& b) {
  if (a.estimates.size() != b.estimates.size() ||
      !same_bits(a.reference_power, b.reference_power))
    return false;
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    const auto& x = a.estimates[i];
    const auto& y = b.estimates[i];
    if (x.kind != y.kind || !same_bits(x.power, y.power) ||
        !same_bits(x.ed, y.ed))
      return false;
  }
  return true;
}

// Operation counts of one simulation, computed from the graph (not
// counted by the library): multiply-accumulates of every block at its
// sample rate, for the double reference and the fixed-point pass, and the
// roundings of the fixed-point pass.
struct OpCounts {
  double fir_macs = 0.0;
  double quantize_ops = 0.0;
};

OpCounts op_counts(const sfg::Graph& g, const sim::EvaluationConfig& cfg) {
  const double samples = static_cast<double>(
      cfg.sim_samples + cfg.shards * cfg.discard);
  std::vector<double> rate(g.node_count(), 1.0);
  OpCounts c;
  for (const sfg::NodeId id : g.topological_order()) {
    const sfg::NodeView n = g.node(id);
    double r = n.inputs.empty() ? 1.0 : rate[n.inputs.front()];
    if (const auto* d = std::get_if<sfg::DownsampleNode>(&n.payload))
      r /= static_cast<double>(d->factor);
    if (const auto* u = std::get_if<sfg::UpsampleNode>(&n.payload))
      r *= static_cast<double>(u->factor);
    rate[id] = r;
    if (const auto* b = std::get_if<sfg::BlockNode>(&n.payload)) {
      const double taps =
          static_cast<double>(b->tf.numerator().size() +
                              b->tf.denominator().size() - 1);
      c.fir_macs += 2.0 * taps * r * samples;
      if (b->output_format) c.quantize_ops += r * samples;
    }
    if (std::holds_alternative<sfg::QuantizerNode>(n.payload))
      c.quantize_ops += r * samples;
  }
  return c;
}

// Fractional bits summed over the noise sources: the design's cost.
double design_cost(const sfg::Graph& g) {
  double bits = 0.0;
  for (const sfg::NodeId id : g.noise_sources()) {
    const auto& p = g.node(id).payload;
    if (const auto* q = std::get_if<sfg::QuantizerNode>(&p))
      bits += q->format.fractional_bits;
    else if (const auto* b = std::get_if<sfg::BlockNode>(&p))
      bits += b->output_format->fractional_bits;
  }
  return bits;
}

double engine_ms(const sim::AccuracyReport& r, core::EngineKind kind,
                 bool preprocessing) {
  const auto* e = r.find(kind);
  if (e == nullptr) return -1.0;
  return 1000.0 * (preprocessing ? e->tau_pp : e->tau_eval);
}

// Medians over the jobs where the engine ran (flat skips multirate).
double median_engine_ms(const std::vector<sim::AccuracyReport>& reports,
                        core::EngineKind kind, bool preprocessing) {
  std::vector<double> v;
  for (const auto& r : reports) {
    const double ms = engine_ms(r, kind, preprocessing);
    if (ms >= 0.0) v.push_back(ms);
  }
  return percentile(v, 0.5);
}

}  // namespace

Outcome run_montecarlo(const RunOptions& opts) {
  Outcome out;
  std::vector<double> setup_s;
  Setup s;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    Setup next;
    next.jobs = make_montecarlo_jobs(opts.seed, opts.workers);
    next.pool = std::make_unique<runtime::ThreadPool>(1);
    Trace off(false, t0);
    for (std::size_t j = 0; j < next.jobs.size(); ++j)
      next.refs.push_back(run_job(next.jobs[j], next.pool.get(), off, j));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    for (std::size_t j = 0; round > 0 && j < next.jobs.size(); ++j)
      out.check(next.jobs[j].document == s.jobs[j].document &&
                    same_report(next.refs[j], s.refs[j]),
                "set-up rounds disagree on " + next.jobs[j].name);
    s = std::move(next);
  }
  double ed_abs_max = 0.0;
  double cost_sum = 0.0;
  double variables = 0.0;
  for (std::size_t j = 0; j < s.jobs.size(); ++j) {
    const double ed = std::abs(s.refs[j].ed(core::EngineKind::kPsd));
    out.check(std::isfinite(ed) && ed <= kEdTolerance,
              s.jobs[j].name + ": |E_d| " + std::to_string(ed) +
                  " beyond tolerance");
    ed_abs_max = std::max(ed_abs_max, ed);
    const sfg::Graph g = sfg::parse_scenario(s.jobs[j].document).graph;
    cost_sum += design_cost(g);
    variables += static_cast<double>(g.noise_sources().size());
  }

  const auto origin = Clock::now();
  Trace traced(true, origin);
  std::vector<WindowLog> logs;
  logs.reserve(kTraceWindows);
  std::vector<sim::AccuracyReport> traced_reports;
  std::vector<std::size_t> traced_jobs;
  std::size_t next_job = 0;
  const int windows = window_count(opts);
  for (int w = 0; w < windows; ++w) {
    Trace off(false, origin);
    const bool is_traced = window_traced(w);
    Trace& trace = is_traced ? traced : off;
    const auto start = Clock::now();
    WindowLog& log = logs.emplace_back(start);
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opts.seconds / windows));
    while (Clock::now() < deadline) {
      const std::size_t j = next_job++ % s.jobs.size();
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      try {
        sim::AccuracyReport r = run_job(s.jobs[j], s.pool.get(), trace, j);
        const auto t1 = Clock::now();
        log.job(j, t0, t1, cpu0);
        out.check(same_report(r, s.refs[j]),
                  s.jobs[j].name + ": repeat differs from first execution");
        if (is_traced) {
          traced_reports.push_back(std::move(r));
          traced_jobs.push_back(j);
        }
      } catch (const std::exception& e) {
        out.attempt();
        out.fail(s.jobs[j].name + ": " + e.what());
      }
    }
    log.finish(Clock::now());
  }

  const BestTimes best = logs[0].best();
  out.metric("jobs_per_s", best.jobs_per_s, "1/s");
  out.metric("job_p50_ms", best.p50_ms, "ms");
  out.metric("job_p90_ms", best.p90_ms, "ms");
  out.metric("ok_ratio",
             static_cast<double>(out.attempted() - out.failed()) /
                 static_cast<double>(std::max<std::uint64_t>(
                     out.attempted(), 1)),
             "ratio");
  out.metric("cpu_ms_per_job", best.cpu_ms_per_job, "ms");
  out.metric("setup_s", percentile(setup_s, 0.5), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("wl_cost_mean", cost_sum / variables, "bits");
  out.metric("ed_abs_max", ed_abs_max, "ratio");
  out.metric("samples", static_cast<double>(best.runs), "count");
  out.metric("jobs", static_cast<double>(best.jobs), "count");
  if (!opts.trace) return out;

  // --- per-layer metrics (traced run) ----------------------------------
  using core::EngineKind;
  const auto& spans = traced.spans();
  std::vector<double> parse_ms;
  for (const Span& sp : spans)
    if (sp.name == "sfg.parse_scenario")
      parse_ms.push_back((sp.end_us - sp.start_us) / 1000.0);
  out.metric("sfg.parse_ms", percentile(parse_ms, 0.5), "ms");
  out.metric("core.tau_pp_psd_ms",
             median_engine_ms(traced_reports, EngineKind::kPsd, true), "ms");
  out.metric("core.tau_pp_flat_ms",
             median_engine_ms(traced_reports, EngineKind::kFlat, true), "ms");
  out.metric("core.tau_pp_moment_ms",
             median_engine_ms(traced_reports, EngineKind::kMoment, true),
             "ms");
  out.metric("core.tau_eval_psd_ms",
             median_engine_ms(traced_reports, EngineKind::kPsd, false), "ms");
  out.metric("sim.tau_eval_ms",
             median_engine_ms(traced_reports, EngineKind::kSimulation, false),
             "ms");
  double sim_s = 0.0, samples = 0.0, macs = 0.0, quant = 0.0;
  std::vector<OpCounts> counts;
  for (const EvalJob& job : s.jobs) {
    const sfg::Scenario sc = sfg::parse_scenario(job.document);
    counts.push_back(op_counts(sc.graph, sc.config));
  }
  for (std::size_t i = 0; i < traced_reports.size(); ++i) {
    const std::size_t j = traced_jobs[i];
    sim_s += traced_reports[i].at(EngineKind::kSimulation).tau_eval;
    samples += static_cast<double>(
        sfg::parse_scenario(s.jobs[j].document).config.sim_samples);
    macs += counts[j].fir_macs;
    quant += counts[j].quantize_ops;
  }
  const double traced_n = static_cast<double>(traced_reports.size());
  out.metric("sim.samples_per_s", samples / sim_s, "1/s");
  out.metric("dsp.fir_macs", macs / traced_n, "count");
  out.metric("dsp.quantize_ops", quant / traced_n, "count");
  out.metric("dsp.macs_per_s", macs / sim_s, "1/s");

  // The job set with the shards on an nproc-worker pool and serially:
  // speed-up of the pool, and the worker-count determinism check.
  runtime::ThreadPool wide(opts.workers);
  double parallel_ms = 0.0, serial_ms = 0.0;
  Trace off(false, origin);
  for (std::size_t j = 0; j < s.jobs.size(); ++j) {
    auto t0 = Clock::now();
    out.check(same_report(run_job(s.jobs[j], &wide, off, j), s.refs[j]),
              s.jobs[j].name + ": nproc shards differ from the reference");
    parallel_ms += ms_between(t0, Clock::now());
    t0 = Clock::now();
    const sim::AccuracyReport r = run_job(s.jobs[j], nullptr, off, j);
    serial_ms += ms_between(t0, Clock::now());
    out.check(same_report(r, s.refs[j]),
              s.jobs[j].name + ": serial shards differ from the reference");
  }
  out.metric("runtime.speedup_vs_1", serial_ms / parallel_ms, "ratio");
  out.metric("runtime.cpu_per_wall", cpu_per_wall(logs), "ratio");

  for (const auto& [layer, ms] : layer_self_ms(spans))
    out.metric(layer + ".self_ms", ms / traced_n, "ms");
  out.metric("bench.trace_overhead", trace_overhead(logs), "ratio");
  out.trace_json = spans_to_json(spans);
  return out;
}

}  // namespace perfbench
