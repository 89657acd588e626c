#include "serve/server.hpp"

#include <charconv>
#include <cmath>
#include <exception>
#include <future>
#include <utility>

#include "opt/search/pareto.hpp"
#include "opt/search/strategies.hpp"
#include "opt/wordlength_optimizer.hpp"
#include "sim/error_measurement.hpp"
#include "support/assert.hpp"

namespace psdacc::serve {
namespace {

/// ERRF message values must stay one kv line.
std::string sanitize_message(std::string_view message) {
  std::string out(message);
  for (char& c : out)
    if (c == '\n' || c == '\r') c = ' ';
  return out;
}

std::string format_bits(const std::vector<int>& bits) {
  std::string out = "[";
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(bits[i]);
  }
  out += ']';
  return out;
}

/// One sweep point as a CSV row matching opt::search::points_to_csv —
/// `budget,cost,noise,feasible,evaluations,bits` with shortest round-trip
/// doubles and pipe-joined bits — so a RSLT body line concatenates
/// directly under the canonical CSV header.
std::string format_point(const opt::search::ParetoPoint& p) {
  std::string row;
  const auto num = [&row](double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    row.append(buf, r.ptr);
  };
  num(p.budget);
  row += ',';
  num(p.cost);
  row += ',';
  num(p.noise);
  row += ',';
  row += p.feasible ? '1' : '0';
  row += ',';
  row += std::to_string(p.evaluations);
  row += ',';
  for (std::size_t i = 0; i < p.bits.size(); ++i) {
    if (i > 0) row += '|';
    row += std::to_string(p.bits[i]);
  }
  return row;
}

/// A `status=OK` RSLT payload: cache state, hash, then @p body.
std::string ok_response(std::string_view cache, const ContentHash& hash,
                        std::string_view body) {
  std::string response = "status=OK\n";
  append_kv(response, "cache", cache);
  append_kv(response, "hash", hash.to_string());
  response += body;
  return response;
}

bool expired(const Deadline& deadline) {
  return deadline.has_value() && std::chrono::steady_clock::now() >= *deadline;
}

/// The search settings OPTJ and PARJ share: bit range, probe engine and
/// resolution (0 = the scenario's n_psd), the scenario's engine options,
/// the server's probe pool, and the strategy with its annealer seed.
/// parse_envelope validated the strategy token against the vocabulary
/// run_strategy dispatches on, so running it cannot throw on the name.
template <class Spec>
std::pair<opt::OptimizerConfig, opt::search::StrategySpec> search_settings(
    const Spec& spec, const sfg::Scenario& scenario,
    runtime::ThreadPool* pool) {
  opt::OptimizerConfig cfg;
  cfg.min_bits = spec.min_bits;
  cfg.max_bits = spec.max_bits;
  cfg.n_psd = spec.n_psd != 0 ? spec.n_psd : scenario.config.n_psd;
  cfg.engine = spec.engine;
  cfg.engine_opts = sim::engine_options_for(scenario.config);
  cfg.pool = pool;
  opt::search::StrategySpec strategy;
  strategy.name = spec.strategy;
  strategy.anneal.seed = spec.seed;
  return {std::move(cfg), std::move(strategy)};
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(cfg), cache_(cfg.cache_capacity) {}

Server::~Server() { stop(); }

void Server::start() {
  PSDACC_EXPECTS(!started_);
  listener_ = std::make_unique<ListenSocket>(cfg_.port);
  pool_ = std::make_unique<runtime::ThreadPool>(
      cfg_.pool_workers >= 1 ? cfg_.pool_workers : 1);
  queue_ = std::make_unique<JobQueue>(
      cfg_.job_workers >= 1 ? cfg_.job_workers : 1, cfg_.max_queue_depth);
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

std::uint16_t Server::port() const {
  return listener_ ? listener_->port() : 0;
}

void Server::stop() {
  if (!started_) return;
  if (stopping_.exchange(true)) return;
  // Ordering matters: close the front door, then drain admitted jobs (the
  // executors deliver their responses while connection threads wait on
  // them), then unblock any connection thread still parked in read_frame.
  listener_->shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_->drain_and_stop();
  {
    std::lock_guard lock(conns_mutex_);
    for (const auto& conn : conns_) conn->sock.shutdown();
  }
  reap_connections(/*all=*/true);
}

ServerStats Server::stats() const {
  ServerStats out;
  {
    std::lock_guard lock(stats_mutex_);
    out.connections = connections_;
    out.frames = frames_;
    out.jobs_accepted = jobs_accepted_;
    out.jobs_rejected = jobs_rejected_;
    out.jobs_completed = jobs_completed_;
    out.jobs_failed = jobs_failed_;
    out.jobs_timeout = jobs_timeout_;
    out.opt_probes_full = opt_probes_full_;
    out.opt_probes_cached = opt_probes_cached_;
    out.opt_probes_delta = opt_probes_delta_;
    out.latency_count = latency_.count();
    out.latency_p50_us = latency_.quantile_us(0.50);
    out.latency_p95_us = latency_.quantile_us(0.95);
  }
  out.jobs_running = queue_ ? queue_->running() : 0;
  out.cache_hits = cache_.hits();
  out.cache_misses = cache_.misses();
  out.cache_size = cache_.size();
  return out;
}

void Server::accept_loop() {
  for (;;) {
    Socket sock = listener_->accept_connection();
    if (!sock.valid() || stopping_.load()) break;
    count(connections_);
    reap_connections(/*all=*/false);
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(sock);
    Connection* raw = conn.get();
    {
      std::lock_guard lock(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { serve_connection(*raw); });
  }
}

void Server::reap_connections(bool all) {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || (*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : finished)
    if (conn->thread.joinable()) conn->thread.join();
}

void Server::serve_connection(Connection& conn) {
  for (;;) {
    Frame frame;
    const ReadStatus status = read_frame(conn.sock, frame);
    if (status == ReadStatus::kClosed || status == ReadStatus::kTruncated)
      break;  // peer gone (possibly mid-frame) — nothing to answer
    if (status != ReadStatus::kOk) {  // kBadTag / kOversized
      send_error(conn.sock, error_code::kProtocol, to_string(status));
      break;  // framing is lost; the connection cannot be resynchronized
    }
    count(frames_);
    bool keep = true;
    switch (frame.type) {
      case FrameType::kStatsQuery:
        keep = write_frame(conn.sock, FrameType::kStatsReply,
                           stats().to_text());
        break;
      case FrameType::kSubmitEval:
        handle_eval(conn.sock, frame.payload);
        break;
      case FrameType::kSubmitOpt:
        handle_opt(conn.sock, frame.payload);
        break;
      case FrameType::kSubmitSweep:
        handle_sweep(conn.sock, frame.payload);
        break;
      default:
        send_error(conn.sock, error_code::kProtocol,
                   "server-to-client frame type in a request");
        keep = false;
        break;
    }
    if (!keep) break;
  }
  // Half-close only: stop() may call shutdown() on this socket from
  // another thread at any moment, so the fd must stay allocated (close()
  // writes fd_ and would race). The peer still sees an immediate FIN; the
  // fd is released when the reaped Connection is destroyed.
  conn.sock.shutdown();
  conn.done.store(true);
}

bool Server::parse_job(const Socket& sock, const std::string& payload,
                       JobEnvelope& env, sfg::Scenario& scenario) {
  try {
    env = parse_envelope(payload);
  } catch (const EnvelopeError& e) {
    send_error(sock, error_code::kBadRequest, e.what());
    return false;
  }
  try {
    scenario = sfg::parse_scenario(env.document);
  } catch (const sfg::ParseError& e) {
    std::string extra;
    append_kv(extra, "line", static_cast<std::uint64_t>(e.line()));
    append_kv(extra, "column", static_cast<std::uint64_t>(e.column()));
    send_error(sock, error_code::kParse, e.message(), extra);
    return false;
  }
  if (const std::string why = core::unstable_block(scenario.graph);
      !why.empty()) {
    send_error(sock, error_code::kInvalid, why);
    return false;
  }
  return true;
}

void Server::handle_eval(const Socket& sock, const std::string& payload) {
  const auto submitted = std::chrono::steady_clock::now();
  JobEnvelope env;
  sfg::Scenario scenario;
  if (!parse_job(sock, payload, env, scenario)) return;
  // The key hashes the *canonical* form, so submissions differing only in
  // formatting (or carrying stale `expect` sections) still collide.
  const ContentHash hash =
      sfg::content_hash(scenario.graph, scenario.config);
  if (replay_cached(sock, hash, submitted)) return;
  admit(sock, env.timeout, [&](const Deadline& deadline) {
    run_eval_job(sock, scenario, hash, deadline, submitted);
  });
}

void Server::run_eval_job(const Socket& sock, const sfg::Scenario& scenario,
                          const ContentHash& hash, const Deadline& deadline,
                          std::chrono::steady_clock::time_point submitted) {
  if (expired_in_queue(sock, deadline, "evaluation")) return;
  std::string body;
  try {
    // The engine loop sfg::evaluate_expected projects — the reason a
    // served response matches the golden corpus to the same bits — with
    // the deadline polled between engines.
    const sim::AccuracyReport report =
        sim::evaluate_accuracy(scenario.graph, scenario.config, nullptr,
                               [&deadline] { return expired(deadline); });
    const auto engines_run =
        static_cast<std::uint64_t>(report.estimates.size());
    if (report.cancelled) {
      count(jobs_timeout_);
      std::string extra;
      append_kv(extra, "engines_completed", engines_run);
      send_error(sock, error_code::kTimeout,
                 "deadline expired between engines", extra);
      return;
    }
    append_kv(body, "engines", engines_run);
    for (const sim::EngineEstimate& e : report.estimates)
      append_kv(body, core::to_string(e.kind), e.power);
  } catch (const std::exception& e) {
    count(jobs_failed_);
    send_error(sock, error_code::kInternal, e.what());
    return;
  }
  // Cache the payload *bytes*: a later hit replays them verbatim, making
  // resubmission responses bit-identical by construction.
  cache_.insert(hash, body);
  count(jobs_completed_);
  record_latency(submitted);
  write_frame(sock, FrameType::kResult, ok_response("miss", hash, body));
}

void Server::handle_opt(const Socket& sock, const std::string& payload) {
  const auto submitted = std::chrono::steady_clock::now();
  JobEnvelope env;
  sfg::Scenario scenario;
  if (!parse_job(sock, payload, env, scenario) ||
      !searchable(sock, scenario, env.optimizer.engine))
    return;
  admit(sock, env.timeout, [&](const Deadline& deadline) {
    run_opt_job(sock, scenario, env.optimizer, deadline, submitted);
  });
}

void Server::run_opt_job(const Socket& sock, sfg::Scenario& scenario,
                         const OptimizerSpec& spec, const Deadline& deadline,
                         std::chrono::steady_clock::time_point submitted) {
  if (expired_in_queue(sock, deadline, "optimization")) return;
  try {
    auto [cfg, strategy] = search_settings(spec, scenario, pool_.get());
    cfg.noise_budget = spec.noise_budget;
    // The deadline check doubles as the progress stream: it is polled
    // exactly once per accepted probe round, between rounds, so reading
    // probe_counters() here is race-free and one PROG frame goes out per
    // descent step. The optimizer pointer is filled in after construction;
    // the first poll only happens inside a strategy run.
    struct ProgressState {
      opt::WordlengthOptimizer* optimizer = nullptr;
      std::uint64_t steps = 0;
    };
    auto progress = std::make_shared<ProgressState>();
    cfg.cancel_check = [&sock, progress, deadline] {
      ++progress->steps;
      if (progress->optimizer != nullptr) {
        const auto counters = progress->optimizer->probe_counters();
        std::string text;
        append_kv(text, "step", progress->steps);
        append_kv(text, "probes_full",
                  static_cast<std::uint64_t>(counters.full));
        append_kv(text, "probes_cached",
                  static_cast<std::uint64_t>(counters.cached));
        append_kv(text, "probes_delta",
                  static_cast<std::uint64_t>(counters.delta));
        // Best effort: a vanished client fails the write; the job still
        // runs to completion (its result is cheap to discard).
        write_frame(sock, FrameType::kProgress, text);
      }
      return expired(deadline);
    };
    opt::WordlengthOptimizer optimizer(
        scenario.graph, scenario.graph.noise_sources(), cfg);
    progress->optimizer = &optimizer;
    const opt::OptimizerResult result =
        opt::search::run_strategy(optimizer, strategy);
    record_probe_counters(optimizer.probe_counters());
    std::string kv;
    append_kv(kv, "strategy", spec.strategy);
    append_kv(kv, "feasible", std::uint64_t{result.feasible ? 1u : 0u});
    append_kv(kv, "cancelled", std::uint64_t{result.cancelled ? 1u : 0u});
    append_kv(kv, "cost", result.cost);
    append_kv(kv, "noise", result.noise);
    append_kv(kv, "evaluations",
              static_cast<std::uint64_t>(result.evaluations));
    append_kv(kv, "steps", progress->steps);
    append_kv(kv, "bits", format_bits(result.bits));
    if (result.cancelled) {
      count(jobs_timeout_);
      record_latency(submitted);
      send_error(sock, error_code::kTimeout,
                 "deadline expired; best partial assignment attached", kv);
      return;
    }
    count(jobs_completed_);
    record_latency(submitted);
    write_frame(sock, FrameType::kResult, "status=OK\n" + kv);
  } catch (const std::exception& e) {
    count(jobs_failed_);
    send_error(sock, error_code::kInternal, e.what());
  }
}

void Server::handle_sweep(const Socket& sock, const std::string& payload) {
  const auto submitted = std::chrono::steady_clock::now();
  JobEnvelope env;
  sfg::Scenario scenario;
  if (!parse_job(sock, payload, env, scenario) ||
      !searchable(sock, scenario, env.sweep.engine))
    return;
  // Resolve the ladder up front: a bad ladder is the client's mistake
  // (BAD_REQUEST), not an execution failure.
  std::vector<double> budgets = env.sweep.budgets;
  if (budgets.empty()) {
    try {
      budgets = opt::search::log_spaced_budgets(
          env.sweep.budget_lo, env.sweep.budget_hi, env.sweep.points);
    } catch (const std::invalid_argument& e) {
      send_error(sock, error_code::kBadRequest, e.what());
      return;
    }
  }
  for (const double b : budgets) {
    if (std::isfinite(b) && b > 0.0) continue;
    send_error(sock, error_code::kBadRequest,
               "sweep budgets must be finite and positive");
    return;
  }
  // Sweep cache key: the canonical sweep section bytes + the scenario's
  // own content hash — two PARJ submissions collide exactly when both the
  // sweep parameters and the evaluation are interchangeable. The key
  // space is disjoint from EVAL's ("sweep {" is not a scenario document).
  const ContentHash hash = sfg::content_hash_bytes(
      encode_sweep_section(env.sweep) +
      sfg::content_hash(scenario.graph, scenario.config).to_string());
  // A cache hit replays the terminal frame only — per-point PROG frames
  // stream on computation, not on replay.
  if (replay_cached(sock, hash, submitted)) return;
  admit(sock, env.timeout, [&](const Deadline& deadline) {
    run_sweep_job(sock, scenario, env.sweep, budgets, hash, deadline,
                  submitted);
  });
}

void Server::run_sweep_job(const Socket& sock, sfg::Scenario& scenario,
                           const SweepSpec& spec,
                           const std::vector<double>& budgets,
                           const ContentHash& hash, const Deadline& deadline,
                           std::chrono::steady_clock::time_point submitted) {
  if (expired_in_queue(sock, deadline, "sweep")) return;
  try {
    auto [base, strategy] = search_settings(spec, scenario, pool_.get());
    opt::search::SweepConfig cfg;
    cfg.budgets = budgets;
    cfg.base = std::move(base);
    cfg.base.cancel_check = [deadline] { return expired(deadline); };
    cfg.strategy = std::move(strategy);
    // Serial fan-out: points run in ladder order (one PROG each, in
    // order) and the server pool accelerates each point's probe rounds
    // instead — per-point results are bit-identical either way.
    cfg.workers = 1;
    cfg.on_point = [&sock](std::size_t index,
                           const opt::search::ParetoPoint& p) {
      if (p.cancelled) return;  // completed points only
      std::string text;
      append_kv(text, "point", static_cast<std::uint64_t>(index));
      append_kv(text, "budget", p.budget);
      append_kv(text, "cost", p.cost);
      append_kv(text, "noise", p.noise);
      append_kv(text, "feasible", std::uint64_t{p.feasible ? 1u : 0u});
      // Best effort, like optimizer PROG frames: a vanished client fails
      // the write and the sweep still runs to completion.
      write_frame(sock, FrameType::kProgress, text);
    };
    opt::search::ParetoSweep sweep(
        scenario.graph, scenario.graph.noise_sources(), cfg);
    const std::vector<opt::search::ParetoPoint> points =
        sweep.run_points();
    const auto front = opt::search::ParetoFront::from_points(points);
    const auto counters = sweep.probe_counters();
    record_probe_counters(counters);
    std::uint64_t completed = 0;
    bool cancelled = false;
    for (const auto& p : points) {
      if (p.cancelled) cancelled = true;
      else ++completed;
    }
    std::string kv;
    append_kv(kv, "strategy", spec.strategy);
    append_kv(kv, "points", static_cast<std::uint64_t>(points.size()));
    append_kv(kv, "completed", completed);
    append_kv(kv, "front", static_cast<std::uint64_t>(
                               front.points().size()));
    append_kv(kv, "probes_full", static_cast<std::uint64_t>(counters.full));
    append_kv(kv, "probes_cached",
              static_cast<std::uint64_t>(counters.cached));
    append_kv(kv, "probes_delta",
              static_cast<std::uint64_t>(counters.delta));
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].cancelled) continue;
      append_kv(kv, "point_" + std::to_string(i),
                format_point(points[i]));
    }
    for (std::size_t i = 0; i < front.points().size(); ++i)
      append_kv(kv, "front_" + std::to_string(i),
                format_point(front.points()[i]));
    if (cancelled) {
      count(jobs_timeout_);
      record_latency(submitted);
      send_error(sock, error_code::kTimeout,
                 "deadline expired; completed points attached", kv);
      return;
    }
    // Cache the body bytes (completed sweeps only): a later hit replays
    // them verbatim, the same bit-identity contract as EVAL.
    cache_.insert(hash, kv);
    count(jobs_completed_);
    record_latency(submitted);
    write_frame(sock, FrameType::kResult, ok_response("miss", hash, kv));
  } catch (const std::exception& e) {
    count(jobs_failed_);
    send_error(sock, error_code::kInternal, e.what());
  }
}

bool Server::searchable(const Socket& sock, const sfg::Scenario& scenario,
                        core::EngineKind engine) {
  if (scenario.graph.noise_sources().empty()) {
    send_error(sock, error_code::kBadRequest,
               "graph has no quantization noise sources to optimize");
    return false;
  }
  if (!core::engine_supports(engine, scenario.graph)) {
    send_error(sock, error_code::kUnsupported,
               "requested probe engine cannot evaluate this graph");
    return false;
  }
  return true;
}

void Server::admit(const Socket& sock, std::chrono::milliseconds timeout,
                   const std::function<void(const Deadline&)>& job) {
  const Deadline deadline = deadline_for(timeout);
  // The connection thread blocks on the job, so the executor may write to
  // the socket and capture the caller's locals by reference without a race.
  std::promise<void> done;
  auto finished = done.get_future();
  const bool admitted = queue_->try_submit([&] {
    try {
      job(deadline);
    } catch (...) {  // NOLINT(bugprone-empty-catch) — reported inside
    }
    done.set_value();
  });
  if (!admitted) {
    count(jobs_rejected_);
    send_error(sock, error_code::kRejectedBusy,
               "job queue is at capacity; resubmit later");
    return;
  }
  count(jobs_accepted_);
  finished.wait();
}

bool Server::expired_in_queue(const Socket& sock, const Deadline& deadline,
                              std::string_view what) {
  if (!expired(deadline)) return false;
  count(jobs_timeout_);
  send_error(sock, error_code::kTimeout,
             "deadline expired before " + std::string(what) + " started");
  return true;
}

bool Server::replay_cached(const Socket& sock, const ContentHash& hash,
                           std::chrono::steady_clock::time_point submitted) {
  const auto cached = cache_.lookup(hash);
  if (!cached) return false;
  record_latency(submitted);
  write_frame(sock, FrameType::kResult, ok_response("hit", hash, *cached));
  return true;
}

void Server::count(std::uint64_t& counter) {
  std::lock_guard lock(stats_mutex_);
  ++counter;
}

void Server::record_probe_counters(
    const core::AccuracyEngine::EvalCounters& c) {
  std::lock_guard lock(stats_mutex_);
  opt_probes_full_ += c.full;
  opt_probes_cached_ += c.cached;
  opt_probes_delta_ += c.delta;
}

bool Server::send_error(const Socket& sock, std::string_view code,
                        std::string_view message, std::string_view extra) {
  std::string payload = "status=ERROR\n";
  append_kv(payload, "code", code);
  append_kv(payload, "message", sanitize_message(message));
  payload += extra;
  return write_frame(sock, FrameType::kError, payload);
}

Deadline Server::deadline_for(std::chrono::milliseconds requested) const {
  auto effective =
      requested.count() > 0 ? requested : cfg_.default_timeout;
  if (cfg_.max_timeout.count() > 0 &&
      (effective.count() <= 0 || effective > cfg_.max_timeout))
    effective = cfg_.max_timeout;
  if (effective.count() <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() + effective;
}

void Server::record_latency(
    std::chrono::steady_clock::time_point submitted) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - submitted;
  std::lock_guard lock(stats_mutex_);
  latency_.record_seconds(elapsed.count());
}

}  // namespace psdacc::serve
