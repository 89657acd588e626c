// Summary statistics for latency samples and the result line's number
// formatting.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile @p q in [0, 1] by linear interpolation between order
/// statistics (the "type 7" rule: rank q * (n - 1)). 0 for no samples.
double percentile(std::vector<double> values, double q);

/// One job of a timed window, in seconds from the window's start.
struct JobSpan {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Process CPU seconds sampled at a time in the window.
struct CpuSample {
  double t_s = 0.0;
  double cpu_s = 0.0;
};

struct SliceRates {
  double jobs_per_s = 0.0;
  double cpu_ms_per_job = 0.0;
};

/// Throughput and CPU per job as medians over equal slices of the window
/// (as many as whole @p slice_s fit, at least one), so that a short
/// disturbance from outside moves one slice rather than the run's figure.
/// A job counts in each slice by the share of its duration inside it;
/// CPU time is interpolated linearly between @p cpu samples (which must
/// cover the window and be ordered by time).
SliceRates slice_rates(const std::vector<JobSpan>& jobs,
                       const std::vector<CpuSample>& cpu, double window_s,
                       double slice_s);

struct LatencySummary {
  std::size_t count = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

/// Job latency p50 and p90 as medians over equal slices of the window (as
/// many as whole @p slice_s fit, at least one; a job belongs to the slice
/// its end falls in), for the same reason as slice_rates(). @p count is
/// every job of the window.
LatencySummary slice_latency(const std::vector<JobSpan>& jobs,
                             double window_s, double slice_s);

/// One execution of job @p job of a fixed job set.
struct JobRun {
  std::size_t job = 0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

struct BestTimes {
  std::size_t jobs = 0;  ///< distinct jobs executed
  std::size_t runs = 0;  ///< executions
  double jobs_per_s = 0.0;
  double cpu_ms_per_job = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

/// Each executed job's best (shortest) wall and CPU time, by job.
std::map<std::size_t, JobRun> best_per_job(const std::vector<JobRun>& runs);

/// Figures of a closed loop that cycles through a fixed job set, taken
/// from each job's best (shortest) wall and CPU time over its executions:
/// jobs per second over one pass of the executed jobs at their best wall
/// times, their mean best CPU time, and p50 and p90 of the best wall times
/// across the jobs. The host slows a one-stream loop in bursts, from
/// milliseconds to whole runs; a job's best of executions spread over the
/// window is what the job costs when the host is not in its way.
BestTimes best_times(const std::vector<JobRun>& runs);

/// Shortest round-trip decimal form of @p v (std::to_chars), so printed
/// measurements keep all their digits.
std::string format_number(double v);

}  // namespace perfbench
