// What every workload shares: run options, the outcome it reports, and
// the process-level measurements (CPU time, peak RSS).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sfg/graph.hpp"
#include "summary.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 1;  ///< nproc: optimizer workers, Monte-Carlo shards
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Result of one workload run. Every checked job execution counts in
/// `attempted`; every wrong, refused-when-valid or crashed one in `failed`.
class Outcome {
 public:
  void attempt() { ++attempted_; }
  /// Records a failed check; keeps the first few messages for the log.
  void fail(const std::string& what);
  /// attempt() plus fail() when @p ok is false.
  void check(bool ok, const std::string& what) {
    attempt();
    if (!ok) fail(what);
  }
  /// Adds another outcome's attempts and failures.
  void absorb(const Outcome& other);
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }

  /// Spans of the traced window, written out by main().
  std::string trace_json;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

Outcome run_search(const RunOptions& opts, bool full_probes);
Outcome run_montecarlo(const RunOptions& opts);
Outcome run_serve(const RunOptions& opts);

/// Process user + system CPU seconds so far.
double cpu_seconds();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Slice lengths for the medians of jobs_per_s and cpu_ms_per_job, and of
/// the latency percentiles (long enough for ~100 jobs on every workload).
inline constexpr double kSliceSeconds = 1.0;
inline constexpr double kLatencySliceSeconds = 3.0;

/// One timed window: every job's span and a CPU sample at each job's end,
/// relative to the window's start. One log per client thread; merge()
/// before reading the rates.
class WindowLog {
 public:
  explicit WindowLog(Clock::time_point start)
      : start_(start), cpu_{{0.0, cpu_seconds()}} {}

  void job(Clock::time_point begin, Clock::time_point end) {
    jobs_.push_back({seconds(begin), seconds(end)});
    cpu_.push_back({seconds(end), cpu_seconds()});
  }
  /// job() for an execution of job @p id of a fixed set that started at
  /// process CPU time @p cpu_begin_s.
  void job(std::size_t id, Clock::time_point begin, Clock::time_point end,
           double cpu_begin_s) {
    job(begin, end);
    runs_.push_back({id, ms_between(begin, end),
                     1000.0 * (cpu_.back().cpu_s - cpu_begin_s)});
  }
  /// Closes the window; returns its length in seconds.
  double finish(Clock::time_point end);
  void merge(const WindowLog& other);

  double window_s() const { return window_s_; }
  /// Process CPU seconds spent in the window.
  double cpu_s() const { return cpu_.back().cpu_s - cpu_.front().cpu_s; }
  SliceRates rates() const {
    return slice_rates(jobs_, cpu_, window_s_, kSliceSeconds);
  }
  LatencySummary latency() const {
    return slice_latency(jobs_, window_s_, kLatencySliceSeconds);
  }
  BestTimes best() const { return best_times(runs_); }
  const std::vector<JobRun>& runs() const { return runs_; }

 private:
  double seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - start_).count();
  }
  Clock::time_point start_;
  std::vector<JobSpan> jobs_;
  std::vector<CpuSample> cpu_;
  std::vector<JobRun> runs_;
  double window_s_ = 0.0;
};

/// Timed windows of a run: one untraced window, or in a traced run
/// kTraceWindows of equal length alternating untraced (even) and traced
/// (odd), so that a drift in the machine's speed cancels out of the
/// tracing-overhead estimate.
inline constexpr int kTraceWindows = 10;
inline int window_count(const RunOptions& opts) {
  return opts.trace ? kTraceWindows : 1;
}
inline bool window_traced(int w) { return w % 2 == 1; }

/// 1 - traced / untraced throughput. On a fixed job set: from the best
/// times of the jobs that both kinds of window executed (the windows are too
/// short for slices to hold alike mixes of large and small jobs); otherwise
/// medians of the windows' slice rates over the windows of each kind.
double trace_overhead(const std::vector<WindowLog>& windows);
/// Process CPU over wall time, summed over the untraced windows.
double cpu_per_wall(const std::vector<WindowLog>& windows);

/// Bitwise equality (NaN == NaN with the same payload, -0 != +0).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Fills a freshly parsed graph's lazy caches (role lists, reverse edges)
/// on the calling thread. sfg::Graph fills them on first const use without
/// synchronization, so evaluate_accuracy on a fresh graph with simulation
/// as its first engine and a pool races: the shards' execution plans call
/// outputs() concurrently (seen as heap corruption and a failed
/// `output_ids_.size() == 1` precondition). A library defect, left for a
/// fix of its own; the benchmark steps around it here.
void fill_lazy_caches(const psdacc::sfg::Graph& g);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRounds = 3;

}  // namespace perfbench
