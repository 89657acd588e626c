// serve_mix: a closed loop of 2 client connections against an in-process
// serve::Server on loopback (job_workers=2, pool_workers=1). Each client
// sends its next request only when the previous reply's terminal frame
// has arrived; latency runs from the send to that frame.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "jobs.hpp"
#include "opt/search/strategies.hpp"
#include "opt/wordlength_optimizer.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sfg/serialize.hpp"
#include "sfg/verify.hpp"
#include "sim/error_measurement.hpp"
#include "summary.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace psdacc;

namespace {

constexpr std::size_t kClients = 2;
// Requests per class in the traced run's transport calibration.
constexpr std::size_t kCalibrationRequests = 16;
// Served evaluations must match in-process evaluation this closely (the
// corpus contract).
constexpr double kEvalTolerance = 1e-9;

const char* const kClassNames[kServeClasses] = {"eval_hit", "eval_miss",
                                                "opt", "sweep", "refusal"};

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.job_workers = 2;
  cfg.pool_workers = 1;
  return cfg;
}

serve::OptimizerSpec opt_spec(const SearchJob& job) {
  serve::OptimizerSpec spec;
  spec.strategy = job.strategy;
  spec.noise_budget = job.budget;
  spec.min_bits = kMinBits;
  spec.max_bits = kMaxBits;
  return spec;
}

serve::SweepSpec sweep_spec(const SearchJob& job, std::size_t variant) {
  serve::SweepSpec spec;
  spec.strategy = job.strategy;
  spec.budgets = sweep_budgets(job, variant);
  spec.min_bits = kMinBits;
  spec.max_bits = kMaxBits;
  return spec;
}

// The evaluation result lines after the `hash=` line: what the cache
// stores and replays.
std::string eval_body(const std::string& raw) {
  const std::size_t h = raw.find("\nhash=");
  if (h == std::string::npos) return {};
  const std::size_t eol = raw.find('\n', h + 1);
  return eol == std::string::npos ? std::string() : raw.substr(eol + 1);
}

// In-process reference for one optimizer run, configured as the server
// configures its OPTJ and PARJ runs.
opt::OptimizerResult optimize_in_process(const std::string& document,
                                         const std::string& strategy,
                                         double budget) {
  sfg::Scenario sc = sfg::parse_scenario(document);
  opt::OptimizerConfig cfg;
  cfg.noise_budget = budget;
  cfg.min_bits = kMinBits;
  cfg.max_bits = kMaxBits;
  cfg.n_psd = sc.config.n_psd;
  cfg.engine_opts = sfg::engine_options_for(sc.config);
  opt::WordlengthOptimizer optimizer(sc.graph, sc.graph.noise_sources(),
                                     cfg);
  opt::search::StrategySpec spec;
  spec.name = strategy;
  return opt::search::run_strategy(optimizer, spec);
}

struct Setup {
  ServeInputs in;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;
  std::vector<std::string> hot_body;          // first (miss) reply bodies
  std::vector<opt::OptimizerResult> opt_refs;  // in-process OPTJ results
};

// One client's view of the run, kept across the traced run's windows.
struct ClientLog {
  explicit ClientLog(Clock::time_point origin) : trace(true, origin) {}
  std::vector<double> class_latency[kServeClasses];  // untraced windows
  std::size_t requests[2] = {0, 0};  // untraced, traced
  std::size_t slot = 0;
  std::size_t picks[kServeClasses] = {};
  std::map<std::size_t, std::vector<serve::EngineResult>> misses;
  std::map<std::size_t, std::vector<serve::SweepPoint>> sweeps;
  std::size_t opt_replies = 0;
  std::size_t prog_frames = 0;
  Outcome checks;
  Trace trace;
};

void check_reply(const Setup& s, int cls, std::size_t doc,
                 const serve::Response& r, ClientLog& log) {
  Outcome& c = log.checks;
  switch (cls) {
    case kEvalHit:
      c.check(r.ok && r.cache_hit && eval_body(r.raw) == s.hot_body[doc],
              "EVAL hit " + std::to_string(doc) + " not replayed: " + r.error);
      break;
    case kEvalMiss:
      c.check(r.ok && !r.cache_hit,
              "EVAL miss " + std::to_string(doc) + " failed: " + r.error);
      log.misses[doc] = r.engines;
      break;
    case kOpt: {
      const opt::OptimizerResult& ref = s.opt_refs[doc];
      c.check(r.ok && !r.cancelled && r.bits == ref.bits &&
                  same_bits(r.cost, ref.cost) && same_bits(r.noise, ref.noise),
              "OPTJ " + std::to_string(doc) + " differs: " + r.error);
      ++log.opt_replies;
      log.prog_frames += r.progress.size();
      break;
    }
    case kSweep:
      c.check(r.ok && r.sweep_points.size() == 3 && !r.cache_hit,
              "PARJ " + std::to_string(doc) + " failed: " + r.error);
      log.sweeps[doc] = r.sweep_points;
      break;
    default:
      c.check(!r.ok && r.error == "PARSE",
              "malformed document answered " + r.error);
  }
}

// Closed loop of one client until @p deadline. Client t starts half a
// schedule period after client t-1 and takes every kClients-th unique
// document, so the two never send the same miss or sweep.
void client_loop(const Setup& s, std::size_t t, Clock::time_point deadline,
                 bool traced, ClientLog& log, WindowLog& window_log) {
  serve::Client& client = *s.clients[t];
  Trace off(false, Clock::now());
  Trace& trace = traced ? log.trace : off;
  const std::size_t period = s.in.schedule.size();
  while (Clock::now() < deadline) {
    const int cls =
        s.in.schedule[(log.slot++ + t * period / kClients) % period];
    const std::size_t pick = log.picks[cls]++;
    const std::uint64_t job_id =
        (static_cast<std::uint64_t>(t) << 32) | (log.requests[0] + log.requests[1]);
    ScopedSpan root(trace, "bench.job", job_id);
    std::size_t doc = 0;
    serve::Response r;
    const auto t0 = Clock::now();
    try {
      ScopedSpan span(trace, std::string("serve.") + kClassNames[cls],
                      job_id);
      switch (cls) {
        case kEvalHit:
          doc = pick % s.in.hot_eval.size();
          r = client.submit_eval(s.in.hot_eval[doc]);
          break;
        case kEvalMiss:
          doc = (t + kClients * pick) % s.in.unique_eval.size();
          r = client.submit_eval(s.in.unique_eval[doc]);
          break;
        case kOpt:
          doc = pick % s.in.opt.size();
          r = client.submit_opt(s.in.opt[doc].document,
                                opt_spec(s.in.opt[doc]));
          break;
        case kSweep:
          doc = t + kClients * pick;  // the sweep variant
          r = client.submit_sweep(
              s.in.sweep[doc % s.in.sweep.size()].document,
              sweep_spec(s.in.sweep[doc % s.in.sweep.size()], doc));
          break;
        default:
          doc = pick % s.in.malformed.size();
          r = client.submit_eval(s.in.malformed[doc]);
      }
    } catch (const std::exception& e) {
      log.checks.attempt();
      log.checks.fail(std::string(kClassNames[cls]) + ": " + e.what());
      continue;
    }
    const auto t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    window_log.job(t0, t1);
    if (!traced) log.class_latency[cls].push_back(ms);
    ++log.requests[traced];
    check_reply(s, cls, doc, r, log);
  }
}

Setup set_up(const RunOptions& opts) {
  Setup s;
  s.in = make_serve_inputs(opts.seed);
  s.server = std::make_unique<serve::Server>(server_config());
  s.server->start();
  for (std::size_t t = 0; t < kClients; ++t)
    s.clients.push_back(std::make_unique<serve::Client>(s.server->port()));
  // Warm-up: the first submission of each repeated document is the miss
  // that fills the cache; later ones must replay these bytes.
  for (const std::string& doc : s.in.hot_eval) {
    const serve::Response r = s.clients[0]->submit_eval(doc);
    s.hot_body.push_back(r.ok && !r.cache_hit ? eval_body(r.raw)
                                              : std::string());
  }
  for (const SearchJob& job : s.in.opt)
    s.opt_refs.push_back(
        optimize_in_process(job.document, job.strategy, job.budget));
  s.clients[1]->submit_opt(s.in.opt[0].document, opt_spec(s.in.opt[0]));
  return s;
}

double stat_value(const std::vector<std::pair<std::string, std::string>>& kv,
                  std::string_view key) {
  const std::string_view v = serve::kv_get(kv, key, "0");
  double out = 0.0;
  std::from_chars(v.data(), v.data() + v.size(), out);
  return out;
}

// Client p50 and server p50 (STTS histogram bucket bound) of one request
// class, measured alone on a fresh server.
std::pair<double, double> calibrate(const Setup& s, int cls) {
  serve::Server server(server_config());
  server.start();
  serve::Client client(server.port());
  if (cls == kEvalHit)
    for (const std::string& doc : s.in.hot_eval) client.submit_eval(doc);
  std::vector<double> ms;
  for (std::size_t i = 0; i < kCalibrationRequests; ++i) {
    const auto t0 = Clock::now();
    switch (cls) {
      case kEvalHit:
        client.submit_eval(s.in.hot_eval[i % s.in.hot_eval.size()]);
        break;
      case kEvalMiss:
        client.submit_eval(s.in.unique_eval[i]);
        break;
      case kOpt:
        client.submit_opt(s.in.opt[i % s.in.opt.size()].document,
                          opt_spec(s.in.opt[i % s.in.opt.size()]));
        break;
      default:
        client.submit_sweep(s.in.sweep[i % s.in.sweep.size()].document,
                            sweep_spec(s.in.sweep[i % s.in.sweep.size()],
                                       i));
    }
    ms.push_back(ms_between(t0, Clock::now()));
  }
  const double server_ms = stat_value(client.stats(), "latency_p50_us") / 1000.0;
  server.stop();
  return {percentile(ms, 0.5), server_ms};
}

}  // namespace

Outcome run_serve(const RunOptions& opts) {
  Outcome out;
  std::vector<double> setup_s;
  Setup s;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    Setup next = set_up(opts);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    for (std::size_t i = 0; i < next.hot_body.size(); ++i)
      out.check(!next.hot_body[i].empty() &&
                    (round == 0 || next.hot_body[i] == s.hot_body[i]),
                "warm-up EVAL " + std::to_string(i) + " failed");
    s = std::move(next);
  }

  const auto origin = Clock::now();
  std::vector<std::unique_ptr<ClientLog>> logs;
  for (std::size_t t = 0; t < kClients; ++t)
    logs.push_back(std::make_unique<ClientLog>(origin));
  std::vector<WindowLog> windows_log;
  const int windows = window_count(opts);
  for (int w = 0; w < windows; ++w) {
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opts.seconds / windows));
    std::vector<WindowLog> per_client(kClients, WindowLog(start));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kClients; ++t)
      threads.emplace_back(client_loop, std::cref(s), t, deadline,
                           window_traced(w), std::ref(*logs[t]),
                           std::ref(per_client[t]));
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 1; t < kClients; ++t)
      per_client[0].merge(per_client[t]);
    per_client[0].finish(Clock::now());
    windows_log.push_back(std::move(per_client[0]));
  }
  const auto server_stats = s.clients[0]->stats();

  // Post-window checks against in-process evaluation and optimization.
  std::size_t requests[2] = {0, 0};  // untraced, traced
  std::size_t opt_replies = 0, prog_frames = 0;
  for (const auto& log : logs) {
    for (int w = 0; w < 2; ++w) requests[w] += log->requests[w];
    opt_replies += log->opt_replies;
    prog_frames += log->prog_frames;
    out.absorb(log->checks);
    for (const auto& [doc, engines] : log->misses) {
      const sfg::Scenario sc = sfg::parse_scenario(s.in.unique_eval[doc]);
      const sim::AccuracyReport ref = sim::evaluate_accuracy(sc.graph, sc.config);
      bool ok = engines.size() == ref.estimates.size();
      for (std::size_t i = 0; ok && i < engines.size(); ++i) {
        const double want = ref.estimates[i].power;
        ok = engines[i].kind == ref.estimates[i].kind &&
             std::abs(engines[i].power - want) <=
                 kEvalTolerance * std::abs(want);
      }
      out.check(ok, "EVAL miss " + std::to_string(doc) +
                        " differs from in-process evaluation");
    }
    for (const auto& [variant, points] : log->sweeps) {
      const SearchJob& job = s.in.sweep[variant % s.in.sweep.size()];
      const std::vector<double> budgets = sweep_budgets(job, variant);
      bool ok = true;
      for (std::size_t i = 0; ok && i < points.size(); ++i) {
        const opt::OptimizerResult ref =
            optimize_in_process(job.document, job.strategy, budgets[i]);
        ok = points[i].bits == ref.bits && same_bits(points[i].cost, ref.cost) &&
             same_bits(points[i].noise, ref.noise);
      }
      out.check(ok, "PARJ " + std::to_string(variant) +
                        " differs from in-process optimization");
    }
  }

  // Accuracy of the repeated documents' psd estimate against simulation.
  double ed_abs_max = 0.0;
  {
    runtime::ThreadPool pool(opts.workers);
    for (std::size_t i = 0; i < s.in.hot_eval.size(); ++i) {
      sfg::Scenario sc = sfg::parse_scenario(s.in.hot_eval[i]);
      sc.config.engines = {core::EngineKind::kSimulation,
                           core::EngineKind::kPsd};
      sc.config.sim_samples = 1u << 18;
      sc.config.shards = opts.workers;
      fill_lazy_caches(sc.graph);
      const double ed = std::abs(
          sim::evaluate_accuracy(sc.graph, sc.config, &pool)
              .ed(core::EngineKind::kPsd));
      out.check(std::isfinite(ed), "EVAL " + std::to_string(i) +
                                       ": E_d not finite");
      ed_abs_max = std::max(ed_abs_max, ed);
    }
  }
  double cost_sum = 0.0;
  double variables = 0.0;
  for (const auto& r : s.opt_refs) {
    cost_sum += r.cost;
    variables += static_cast<double>(r.bits.size());
  }

  const LatencySummary lat = windows_log[0].latency();
  const SliceRates rates = windows_log[0].rates();
  out.metric("jobs_per_s", rates.jobs_per_s, "1/s");
  out.metric("job_p50_ms", lat.p50_ms, "ms");
  out.metric("job_p90_ms", lat.p90_ms, "ms");
  out.metric("ok_ratio",
             static_cast<double>(out.attempted() - out.failed()) /
                 static_cast<double>(std::max<std::uint64_t>(
                     out.attempted(), 1)),
             "ratio");
  out.metric("cpu_ms_per_job", rates.cpu_ms_per_job, "ms");
  out.metric("setup_s", percentile(setup_s, 0.5), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("wl_cost_mean", cost_sum / variables, "bits");
  out.metric("ed_abs_max", ed_abs_max, "ratio");
  out.metric("samples", static_cast<double>(lat.count), "count");
  if (!opts.trace) return out;

  // --- per-layer metrics (traced run) ----------------------------------
  std::vector<double> per_class[kServeClasses];
  for (const auto& log : logs)
    for (int c = 0; c < kServeClasses; ++c)
      per_class[c].insert(per_class[c].end(), log->class_latency[c].begin(),
                          log->class_latency[c].end());
  for (int c = 0; c < kServeClasses; ++c)
    out.metric(std::string("serve.") + kClassNames[c] + "_ms",
               percentile(per_class[c], 0.5), "ms");
  out.metric("serve.server_p50_ms",
             stat_value(server_stats, "latency_p50_us") / 1000.0, "ms");
  out.metric("serve.server_p95_ms",
             stat_value(server_stats, "latency_p95_us") / 1000.0, "ms");
  for (const int cls : {kEvalHit, kEvalMiss, kOpt, kSweep}) {
    const auto [client_ms, server_ms] = calibrate(s, cls);
    out.metric(std::string("serve.transport_") + kClassNames[cls] + "_ms",
               client_ms - server_ms, "ms");
  }
  const double hits = stat_value(server_stats, "cache_hits");
  const double misses = stat_value(server_stats, "cache_misses");
  out.metric("serve.cache_hit_ratio", hits / std::max(hits + misses, 1.0),
             "ratio");
  out.metric("serve.rejected", stat_value(server_stats, "jobs_rejected"),
             "count");
  out.metric("serve.prog_frames_per_opt",
             static_cast<double>(prog_frames) /
                 static_cast<double>(std::max<std::size_t>(opt_replies, 1)),
             "count");
  out.metric("runtime.cpu_per_wall", cpu_per_wall(windows_log), "ratio");

  Trace merged(true, origin);
  for (const auto& log : logs) merged.merge(log->trace);
  const double traced_n = static_cast<double>(requests[1]);
  for (const auto& [layer, ms] : layer_self_ms(merged.spans()))
    out.metric(layer + ".self_ms", ms / traced_n, "ms");
  out.metric("bench.trace_overhead", trace_overhead(windows_log), "ratio");
  out.trace_json = spans_to_json(merged.spans());
  return out;
}

}  // namespace perfbench
