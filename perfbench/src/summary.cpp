#include "summary.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

double cpu_at(const std::vector<CpuSample>& cpu, double t) {
  if (cpu.empty()) return 0.0;
  if (t <= cpu.front().t_s) return cpu.front().cpu_s;
  for (std::size_t i = 1; i < cpu.size(); ++i) {
    if (t > cpu[i].t_s) continue;
    const CpuSample& a = cpu[i - 1];
    const CpuSample& b = cpu[i];
    const double span = b.t_s - a.t_s;
    return span > 0.0 ? a.cpu_s + (b.cpu_s - a.cpu_s) * (t - a.t_s) / span
                      : b.cpu_s;
  }
  return cpu.back().cpu_s;
}

}  // namespace

SliceRates slice_rates(const std::vector<JobSpan>& jobs,
                       const std::vector<CpuSample>& cpu, double window_s,
                       double slice_s) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::floor(window_s / slice_s)));
  const double len = window_s / static_cast<double>(n);
  std::vector<double> count(n, 0.0);
  for (const JobSpan& j : jobs) {
    const double d = j.end_s - j.start_s;
    for (std::size_t k = 0; k < n; ++k) {
      const double lo = static_cast<double>(k) * len;
      const double hi = lo + len;
      if (d <= 0.0) {
        if (j.end_s >= lo && (j.end_s < hi || k + 1 == n)) count[k] += 1.0;
        continue;
      }
      const double overlap = std::min(j.end_s, hi) - std::max(j.start_s, lo);
      if (overlap > 0.0) count[k] += overlap / d;
    }
  }
  std::vector<double> rate, cpu_ms;
  for (std::size_t k = 0; k < n; ++k) {
    const double lo = static_cast<double>(k) * len;
    rate.push_back(count[k] / len);
    if (count[k] > 0.0)
      cpu_ms.push_back(1000.0 * (cpu_at(cpu, lo + len) - cpu_at(cpu, lo)) /
                       count[k]);
  }
  return {percentile(rate, 0.5), percentile(cpu_ms, 0.5)};
}

LatencySummary slice_latency(const std::vector<JobSpan>& jobs,
                             double window_s, double slice_s) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::floor(window_s / slice_s)));
  const double len = window_s / static_cast<double>(n);
  std::vector<std::vector<double>> ms(n);
  for (const JobSpan& j : jobs) {
    const auto k = std::min(n - 1, static_cast<std::size_t>(
                                       std::max(0.0, j.end_s / len)));
    ms[k].push_back(1000.0 * (j.end_s - j.start_s));
  }
  std::vector<double> p50, p90;
  for (const auto& slice : ms) {
    if (slice.empty()) continue;
    p50.push_back(percentile(slice, 0.5));
    p90.push_back(percentile(slice, 0.9));
  }
  return {jobs.size(), percentile(p50, 0.5), percentile(p90, 0.5)};
}

std::map<std::size_t, JobRun> best_per_job(const std::vector<JobRun>& runs) {
  std::map<std::size_t, JobRun> best;
  for (const JobRun& r : runs) {
    const auto [it, fresh] = best.try_emplace(r.job, r);
    if (fresh) continue;
    it->second.wall_ms = std::min(it->second.wall_ms, r.wall_ms);
    it->second.cpu_ms = std::min(it->second.cpu_ms, r.cpu_ms);
  }
  return best;
}

BestTimes best_times(const std::vector<JobRun>& runs) {
  const std::map<std::size_t, JobRun> best = best_per_job(runs);
  BestTimes out;
  out.jobs = best.size();
  out.runs = runs.size();
  if (best.empty()) return out;
  std::vector<double> wall_ms;
  double wall_total_ms = 0.0, cpu_total_ms = 0.0;
  for (const auto& [job, r] : best) {
    wall_ms.push_back(r.wall_ms);
    wall_total_ms += r.wall_ms;
    cpu_total_ms += r.cpu_ms;
  }
  const auto n = static_cast<double>(best.size());
  out.jobs_per_s = 1000.0 * n / wall_total_ms;
  out.cpu_ms_per_job = cpu_total_ms / n;
  out.p50_ms = percentile(wall_ms, 0.5);
  out.p90_ms = percentile(wall_ms, 0.9);
  return out;
}

std::string format_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
