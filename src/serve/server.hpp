/// @file server.hpp
/// The psdacc-serve daemon core: a loopback TCP server that accepts
/// evaluation, word-length-optimization, and Pareto-sweep jobs as
/// serialized scenario documents (the `psdacc-sfg v1` format — the golden
/// corpus is literally a request corpus) and answers with `expect`-style
/// per-engine results, optimizer assignments, or dominance-filtered
/// fronts (one PROG frame per completed budget point).
///
/// Request path, outermost tier first (after parse_job, which answers
/// BAD_REQUEST, PARSE or INVALID — an unstable block — before any tier):
///  1. **ResultCache** — a content-hash lookup over the canonical
///     (graph + config) document. A hit replays the stored payload bytes:
///     no parse-again, no engine, bit-identical response.
///  2. **JobQueue admission** — a bounded backlog; a full queue answers
///     REJECTED_BUSY immediately (load shedding, not latency hiding).
///  3. **Execution** — sim::evaluate_accuracy, the engine loop
///     sfg::evaluate_expected projects (so responses match the golden
///     corpus to the same bits), or a WordlengthOptimizer whose
///     cancel_check enforces the job deadline and streams one PROG frame
///     per accepted descent step.
///
/// Per-job wall-clock timeouts are cooperative: checked before a job
/// starts, between engines of an evaluation, and between optimizer probe
/// rounds — an expired job answers TIMEOUT (with partial state for
/// optimizer jobs) and the queue moves on. See docs/SERVING.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "serve/job_queue.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/stats.hpp"
#include "sfg/serialize.hpp"

namespace psdacc::serve {

/// A job's wall-clock deadline; empty = unlimited.
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

struct ServerConfig {
  /// Bind port on 127.0.0.1; 0 picks an ephemeral port (see
  /// Server::port()).
  std::uint16_t port = 0;
  /// Concurrent job executors. 1 keeps every result trivially ordered;
  /// results are deterministic for any value (jobs are independent).
  std::size_t job_workers = 1;
  /// Max jobs *waiting* beyond the executors; 0 = admit only what can
  /// start immediately. Full queue => REJECTED_BUSY.
  std::size_t max_queue_depth = 64;
  /// runtime::ThreadPool workers shared by optimizer jobs' probe rounds.
  std::size_t pool_workers = 1;
  /// ResultCache entries (evaluation jobs only); 0 disables caching.
  std::size_t cache_capacity = 256;
  /// Deadline applied when a job requests none; zero = unlimited.
  std::chrono::milliseconds default_timeout{0};
  /// Upper clamp on any job's requested timeout; zero = no clamp.
  std::chrono::milliseconds max_timeout{0};
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  /// Stops (drain semantics, see stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts accepting. Throws std::runtime_error on bind
  /// failure.
  void start();
  /// The bound port (valid after start()).
  std::uint16_t port() const;

  /// Graceful shutdown: stop accepting connections, run every admitted
  /// job to completion and deliver its response (in-flight-job drain),
  /// then close remaining connections. Idempotent.
  void stop();

  /// Snapshot of the lifetime counters (also served as the STTS frame).
  ServerStats stats() const;

 private:
  struct Connection {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection& conn);
  /// Splits @p payload into @p env and @p scenario and refuses a scenario
  /// no engine can evaluate. False after an ERRF reply (BAD_REQUEST,
  /// PARSE or INVALID).
  bool parse_job(const Socket& sock, const std::string& payload,
                 JobEnvelope& env, sfg::Scenario& scenario);
  void handle_eval(const Socket& sock, const std::string& payload);
  void handle_opt(const Socket& sock, const std::string& payload);
  void handle_sweep(const Socket& sock, const std::string& payload);
  void run_eval_job(const Socket& sock, const sfg::Scenario& scenario,
                    const ContentHash& hash, const Deadline& deadline,
                    std::chrono::steady_clock::time_point submitted);
  void run_opt_job(const Socket& sock, sfg::Scenario& scenario,
                   const OptimizerSpec& spec, const Deadline& deadline,
                   std::chrono::steady_clock::time_point submitted);
  void run_sweep_job(const Socket& sock, sfg::Scenario& scenario,
                     const SweepSpec& spec,
                     const std::vector<double>& budgets,
                     const ContentHash& hash, const Deadline& deadline,
                     std::chrono::steady_clock::time_point submitted);
  /// Refuses (false, after an ERRF reply) an OPTJ/PARJ scenario with no
  /// noise source or one the probe @p engine cannot evaluate.
  bool searchable(const Socket& sock, const sfg::Scenario& scenario,
                  core::EngineKind engine);
  /// Queue admission shared by every job type: resolves the deadline for
  /// the requested @p timeout, submits @p job and blocks until it ran, or
  /// answers REJECTED_BUSY when the queue is full.
  void admit(const Socket& sock, std::chrono::milliseconds timeout,
             const std::function<void(const Deadline&)>& job);
  /// True after a TIMEOUT reply ("deadline expired before @p what
  /// started") when the job spent its whole budget waiting in the queue.
  bool expired_in_queue(const Socket& sock, const Deadline& deadline,
                        std::string_view what);
  /// Replays the cached body for @p hash as a `cache=hit` RSLT; false on a
  /// miss.
  bool replay_cached(const Socket& sock, const ContentHash& hash,
                     std::chrono::steady_clock::time_point submitted);
  /// Increments one lifetime counter under stats_mutex_.
  void count(std::uint64_t& counter);
  /// Folds one job's optimizer probe counters into the lifetime totals.
  void record_probe_counters(const core::AccuracyEngine::EvalCounters& c);
  bool send_error(const Socket& sock, std::string_view code,
                  std::string_view message, std::string_view extra = {});
  Deadline deadline_for(std::chrono::milliseconds requested) const;
  void record_latency(std::chrono::steady_clock::time_point submitted);
  /// Joins finished connection threads; with @p all, joins every one.
  void reap_connections(bool all);

  ServerConfig cfg_;
  std::unique_ptr<ListenSocket> listener_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<JobQueue> queue_;
  ResultCache cache_;
  std::thread accept_thread_;
  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex stats_mutex_;
  std::uint64_t connections_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t jobs_accepted_ = 0;
  std::uint64_t jobs_rejected_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_failed_ = 0;
  std::uint64_t jobs_timeout_ = 0;
  std::uint64_t opt_probes_full_ = 0;
  std::uint64_t opt_probes_cached_ = 0;
  std::uint64_t opt_probes_delta_ = 0;
  LatencyHistogram latency_;
};

}  // namespace psdacc::serve
