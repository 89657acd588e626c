// search_delta and search_full: a closed loop of single word-length
// searches driven through parse_scenario -> WordlengthOptimizer ->
// run_strategy, one job at a time on a 1-worker pool (see set_up()).
//
// The loop walks the job set in order and wraps around. A job's first
// execution is its reference; every repeat must match it bit for bit. When
// the window ends before one full pass, the rest of the pass runs untimed,
// so the cost and probe totals always cover the whole set.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "opt/search/strategies.hpp"
#include "opt/wordlength_optimizer.hpp"
#include "runtime/thread_pool.hpp"
#include "sfg/serialize.hpp"
#include "sfg/verify.hpp"
#include "sim/error_measurement.hpp"
#include "summary.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace psdacc;

namespace {

// Annealing rounds per job: enough to move past the greedy seed while
// keeping an anneal job comparable in length to a greedy one.
constexpr std::size_t kAnnealRounds = 60;
// Monte-Carlo plan of the E_d check of each optimized paper-system design.
// The simulation seed is fixed, so the check depends only on the design.
constexpr std::size_t kEdSamples = 1u << 18;
constexpr std::uint64_t kEdSimSeed = 42;
// Jobs re-run at workers=1 in the traced run (a prefix of the set, which
// mixes every size).
constexpr std::size_t kSerialJobs = 16;

struct SearchOutcome {
  opt::OptimizerResult result;
  core::AccuracyEngine::EvalCounters counters;
  double search_ms = 0.0;
};

SearchOutcome run_job(const SearchJob& job, runtime::ThreadPool* pool,
                      Trace& trace, std::uint64_t job_id,
                      sfg::Graph* optimized = nullptr) {
  ScopedSpan root(trace, "bench.job", job_id);
  sfg::Scenario sc;
  {
    ScopedSpan span(trace, "sfg.parse_scenario", job_id);
    sc = sfg::parse_scenario(job.document);
  }
  opt::OptimizerConfig cfg;
  cfg.noise_budget = job.budget;
  cfg.min_bits = kMinBits;
  cfg.max_bits = kMaxBits;
  cfg.n_psd = sc.config.n_psd;
  cfg.engine = core::EngineKind::kPsd;
  cfg.engine_opts = sfg::engine_options_for(sc.config);
  cfg.workers = pool != nullptr ? pool->workers() : 1;
  cfg.pool = pool;
  std::optional<opt::WordlengthOptimizer> optimizer;
  {
    ScopedSpan span(trace, "opt.construct", job_id);
    optimizer.emplace(sc.graph, sc.graph.noise_sources(), cfg);
  }
  opt::search::StrategySpec spec;
  spec.name = job.strategy;
  spec.anneal.seed = job.anneal_seed;
  spec.anneal.rounds = kAnnealRounds;
  SearchOutcome out;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(trace, "opt.run_strategy", job_id);
    out.result = opt::search::run_strategy(*optimizer, spec);
  }
  out.search_ms = ms_between(t0, Clock::now());
  out.counters = optimizer->probe_counters();
  if (optimized != nullptr) *optimized = sc.graph;
  return out;
}

bool same_result(const opt::OptimizerResult& a,
                 const opt::OptimizerResult& b) {
  return a.bits == b.bits && same_bits(a.cost, b.cost) &&
         same_bits(a.noise, b.noise) && a.feasible == b.feasible;
}

struct Setup {
  std::vector<SearchJob> jobs;
  std::unique_ptr<runtime::ThreadPool> pool;
};

// Set-up: generate the job set, start the pool, and warm it (and the
// workers' FFT plan caches) with one search.
//
// The timed loop runs on a 1-worker pool. At nproc workers every probe
// round forks and joins the pool, and on a host that takes CPU time from
// the machine in bursts, the wall-clock figures grew by up to 2x (for
// unchanged CPU time per job) in up to 4 of 10 runs, beyond what any
// statistic within a run can steady. The nproc searches are measured
// against 1 worker by the traced run's runtime.speedup_vs_1.
Setup set_up(const RunOptions& opts, bool full_probes) {
  Setup s;
  s.jobs = full_probes ? make_search_full_jobs(opts.seed)
                       : make_search_delta_jobs(opts.seed);
  s.pool = std::make_unique<runtime::ThreadPool>(1);
  Trace off(false, Clock::now());
  run_job(s.jobs.front(), s.pool.get(), off, 0);
  return s;
}

}  // namespace

Outcome run_search(const RunOptions& opts, bool full_probes) {
  Outcome out;
  std::vector<double> setup_s;
  Setup s;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    Setup next = set_up(opts, full_probes);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    bool same = round == 0 || next.jobs.size() == s.jobs.size();
    for (std::size_t j = 0; same && round > 0 && j < s.jobs.size(); ++j)
      same = next.jobs[j].document == s.jobs[j].document &&
             same_bits(next.jobs[j].budget, s.jobs[j].budget);
    out.check(same, "set-up rounds generated different jobs");
    s = std::move(next);
  }

  std::vector<std::optional<SearchOutcome>> refs(s.jobs.size());
  // First execution: becomes the reference; later ones must match it.
  const auto record = [&](std::size_t j, const SearchOutcome& r) {
    if (!refs[j]) {
      refs[j] = r;
      out.check(r.result.feasible && !r.result.cancelled,
                s.jobs[j].name + ": search did not reach its budget");
    } else {
      out.check(same_result(r.result, refs[j]->result),
                s.jobs[j].name + ": repeat differs from first execution");
    }
  };

  // Closed loop over the timed windows (see window_count()).
  const auto origin = Clock::now();
  Trace traced(true, origin);
  std::vector<WindowLog> logs;
  logs.reserve(kTraceWindows);
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
        const SearchOutcome r = run_job(s.jobs[j], s.pool.get(), trace, j);
        const auto t1 = Clock::now();
        log.job(j, t0, t1, cpu0);
        record(j, r);
        if (is_traced) traced_jobs.push_back(j);
      } catch (const std::exception& e) {
        out.attempt();
        out.fail(s.jobs[j].name + ": " + e.what());
      }
    }
    log.finish(Clock::now());
  }
  Trace off(false, origin);
  for (std::size_t j = 0; j < s.jobs.size(); ++j)
    if (!refs[j]) record(j, run_job(s.jobs[j], s.pool.get(), off, j));

  // The optimized word-length per variable over the set, and the accuracy
  // of the optimized paper-system designs against bit-true simulation.
  double cost_sum = 0.0;
  double variables = 0.0;
  double ed_abs_max = 0.0;
  std::set<std::string> ed_checked;  // copies of a paper job share a name
  for (std::size_t j = 0; j < s.jobs.size(); ++j) {
    cost_sum += refs[j]->result.cost;
    variables += static_cast<double>(refs[j]->result.bits.size());
    if (!s.jobs[j].paper || !ed_checked.insert(s.jobs[j].name).second)
      continue;
    sfg::Graph optimized;
    record(j, run_job(s.jobs[j], s.pool.get(), off, j, &optimized));
    sim::EvaluationConfig cfg;
    cfg.n_psd = kNpsd;
    cfg.sim_samples = kEdSamples;
    cfg.shards = opts.workers;
    cfg.seed = kEdSimSeed;
    cfg.engines = {core::EngineKind::kSimulation, core::EngineKind::kPsd};
    const double ed = std::abs(
        sim::evaluate_accuracy(optimized, cfg, s.pool.get())
            .ed(core::EngineKind::kPsd));
    out.check(std::isfinite(ed), s.jobs[j].name + ": E_d not finite");
    ed_abs_max = std::max(ed_abs_max, ed);
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
  const auto& spans = traced.spans();
  std::vector<double> parse_ms, construct_ms, search_ms;
  double search_total_ms = 0.0;
  for (const Span& sp : spans) {
    const double ms = (sp.end_us - sp.start_us) / 1000.0;
    if (sp.name == "sfg.parse_scenario") parse_ms.push_back(ms);
    if (sp.name == "opt.construct") construct_ms.push_back(ms);
    if (sp.name == "opt.run_strategy") {
      search_ms.push_back(ms);
      search_total_ms += ms;
    }
  }
  const double traced_n = static_cast<double>(traced_jobs.size());
  double evals = 0.0;
  for (const std::size_t j : traced_jobs)
    evals += static_cast<double>(refs[j]->result.evaluations);
  out.metric("sfg.parse_ms", percentile(parse_ms, 0.5), "ms");
  out.metric("opt.construct_ms", percentile(construct_ms, 0.5), "ms");
  out.metric("opt.search_ms", percentile(search_ms, 0.5), "ms");
  out.metric("opt.evaluations", evals / traced_n, "count");
  out.metric("opt.ns_per_probe", 1e6 * search_total_ms / evals, "ns");

  // Probe counters summed over one pass of the set: exact, and fixed by
  // the seed.
  double full = 0.0, delta = 0.0, cached = 0.0;
  for (const auto& r : refs) {
    full += static_cast<double>(r->counters.full);
    delta += static_cast<double>(r->counters.delta);
    cached += static_cast<double>(r->counters.cached);
  }
  out.metric("core.probes_full", full, "count");
  out.metric("core.probes_delta", delta, "count");
  out.metric("core.probes_cached", cached, "count");
  out.metric("core.delta_share", delta / std::max(full + delta + cached, 1.0),
             "ratio");

  // A prefix of the set again at nproc and at 1 worker: serial / parallel
  // search time, and the worker-count determinism check.
  runtime::ThreadPool wide(opts.workers);
  double parallel_ms = 0.0, serial_ms = 0.0;
  for (std::size_t j = 0; j < std::min(kSerialJobs, s.jobs.size()); ++j) {
    const SearchOutcome p = run_job(s.jobs[j], &wide, off, j);
    parallel_ms += p.search_ms;
    record(j, p);
    const SearchOutcome r = run_job(s.jobs[j], nullptr, off, j);
    serial_ms += r.search_ms;
    out.check(same_result(r.result, refs[j]->result),
              s.jobs[j].name + ": workers=1 differs from workers=nproc");
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
