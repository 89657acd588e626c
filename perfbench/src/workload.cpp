#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>

namespace perfbench {

void Outcome::fail(const std::string& what) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(what);
}

void Outcome::absorb(const Outcome& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& e : other.errors_)
    if (errors_.size() < 8) errors_.push_back(e);
}

void fill_lazy_caches(const psdacc::sfg::Graph& g) {
  g.outputs();
  if (g.node_count() > 0) g.consumers(0);
}

double WindowLog::finish(Clock::time_point end) {
  window_s_ = seconds(end);
  cpu_.push_back({window_s_, cpu_seconds()});
  return window_s_;
}

void WindowLog::merge(const WindowLog& other) {
  jobs_.insert(jobs_.end(), other.jobs_.begin(), other.jobs_.end());
  cpu_.insert(cpu_.end(), other.cpu_.begin(), other.cpu_.end());
  runs_.insert(runs_.end(), other.runs_.begin(), other.runs_.end());
  std::sort(cpu_.begin(), cpu_.end(),
            [](const CpuSample& a, const CpuSample& b) { return a.t_s < b.t_s; });
  window_s_ = std::max(window_s_, other.window_s_);
}

double trace_overhead(const std::vector<WindowLog>& windows) {
  std::vector<JobRun> runs[2];
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::vector<JobRun>& r = windows[w].runs();
    auto& kind = runs[window_traced(static_cast<int>(w))];
    kind.insert(kind.end(), r.begin(), r.end());
  }
  if (!runs[0].empty() && !runs[1].empty()) {
    const auto untraced = best_per_job(runs[0]);
    double untraced_ms = 0.0, traced_ms = 0.0;
    for (const auto& [job, r] : best_per_job(runs[1])) {
      const auto it = untraced.find(job);
      if (it == untraced.end()) continue;
      untraced_ms += it->second.wall_ms;
      traced_ms += r.wall_ms;
    }
    return 1.0 - untraced_ms / traced_ms;
  }
  std::vector<double> rate[2];
  for (std::size_t w = 0; w < windows.size(); ++w)
    rate[window_traced(static_cast<int>(w))].push_back(
        windows[w].rates().jobs_per_s);
  return 1.0 - percentile(rate[1], 0.5) / percentile(rate[0], 0.5);
}

double cpu_per_wall(const std::vector<WindowLog>& windows) {
  double cpu = 0.0, wall = 0.0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (window_traced(static_cast<int>(w))) continue;
    cpu += windows[w].cpu_s();
    wall += windows[w].window_s();
  }
  return cpu / wall;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
