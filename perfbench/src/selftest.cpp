// Self-tests of the benchmark's own machinery: deterministic job
// generation, the percentile/summary math, and span self time. Run with
// `python3 perfbench/run.py --self-test` (which also checks BENCHMARK.json
// against the metric list of the perfbench program). Exits 1 when a check fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "summary.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(b)); }

template <class Jobs>
std::vector<std::string> documents(const Jobs& jobs) {
  std::vector<std::string> out;
  for (const auto& j : jobs) out.push_back(j.document);
  return out;
}

std::vector<std::string> serve_documents(std::uint64_t seed) {
  const ServeInputs in = make_serve_inputs(seed);
  std::vector<std::string> out = in.hot_eval;
  out.insert(out.end(), in.unique_eval.begin(), in.unique_eval.end());
  out.insert(out.end(), in.malformed.begin(), in.malformed.end());
  for (const auto& docs : {documents(in.opt), documents(in.sweep)})
    out.insert(out.end(), docs.begin(), docs.end());
  return out;
}

void test_generation_is_deterministic() {
  const auto check = [](const char* name, auto make) {
    const auto a = make(7);
    expect(!a.empty(), std::string(name) + ": no documents");
    expect(a == make(7), std::string(name) + ": same seed, different bytes");
    expect(a != make(8), std::string(name) + ": seed has no effect");
  };
  check("search_delta",
        [](std::uint64_t s) { return documents(make_search_delta_jobs(s)); });
  check("search_full",
        [](std::uint64_t s) { return documents(make_search_full_jobs(s)); });
  check("montecarlo", [](std::uint64_t s) {
    return documents(make_montecarlo_jobs(s, 4));
  });
  check("serve_mix", serve_documents);

  // Budgets are the graph's own noise at the reference word-length, so a
  // job is feasible (positive, finite budget) and the budgets repeat.
  const auto a = make_search_delta_jobs(7);
  const auto b = make_search_delta_jobs(7);
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect(a[i].budget > 0.0 && std::isfinite(a[i].budget),
           a[i].name + ": budget not positive");
    expect(a[i].budget == b[i].budget, a[i].name + ": budget not repeatable");
  }
}

void test_percentiles() {
  expect(percentile({}, 0.5) == 0.0, "empty percentile");
  expect(percentile({3.0}, 0.99) == 3.0, "single-sample percentile");
  expect(near(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5), "median of 4");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(near(percentile(v, 0.99), 99.01), "p99 of 1..100");
  expect(near(percentile(v, 0.0), 1.0) && near(percentile(v, 1.0), 100.0),
         "percentile end points");
  expect(format_number(0.1) == "0.1" && format_number(1.0 / 3.0) ==
                                            "0.3333333333333333",
         "shortest round-trip formatting");
}

void test_slice_rates() {
  // 10 s of back-to-back 0.1 s jobs and 0.2 CPU-s per second: 10 jobs/s
  // and 20 ms per job in every slice.
  std::vector<JobSpan> jobs;
  std::vector<CpuSample> cpu = {{0.0, 0.0}};
  for (int i = 0; i < 100; ++i) {
    jobs.push_back({0.1 * i, 0.1 * (i + 1)});
    cpu.push_back({0.1 * (i + 1), 0.02 * (i + 1)});
  }
  SliceRates r = slice_rates(jobs, cpu, 10.0, 1.0);
  expect(near(r.jobs_per_s, 10.0) && near(r.cpu_ms_per_job, 20.0),
         "steady slice rates");
  // A stall: one 2 s job in slices 3-4. Two slices of ten move; the
  // medians do not.
  jobs.erase(jobs.begin() + 30, jobs.begin() + 50);
  jobs.push_back({3.0, 5.0});
  r = slice_rates(jobs, cpu, 10.0, 1.0);
  expect(near(r.jobs_per_s, 10.0) && near(r.cpu_ms_per_job, 20.0),
         "slice medians ignore a short stall");
  // A job across a slice boundary counts by its share in each slice.
  r = slice_rates({{0.5, 1.5}}, {{0.0, 0.0}, {2.0, 0.0}}, 2.0, 1.0);
  expect(near(r.jobs_per_s, 0.5), "job split across slices");

  // Latency: three 1 s slices of 1, 2, 3 ms jobs (by end time), and one
  // slice where a stall made every job 100 ms; the medians ignore it.
  std::vector<JobSpan> lat;
  for (int k = 0; k < 4; ++k)
    for (int i = 1; i <= 3; ++i) {
      const double end = k + 0.1 * i;
      const double ms = k == 2 ? 100.0 : i;
      lat.push_back({end - ms / 1000.0, end});
    }
  const LatencySummary l = slice_latency(lat, 4.0, 1.0);
  expect(l.count == 12 && near(l.p50_ms, 2.0) && near(l.p90_ms, 2.8),
         "slice latency medians");
}

void test_best_times() {
  // Job 0 best at 10 ms wall / 8 ms CPU, job 1 at 30 / 25; job 1's second
  // execution ran into a burst (90 ms) and its first one into a CPU spike.
  const std::vector<JobRun> runs = {{0, 12.0, 9.0},  {1, 30.0, 40.0},
                                    {0, 10.0, 8.0},  {1, 90.0, 25.0},
                                    {0, 11.0, 10.0}};
  const BestTimes b = best_times(runs);
  expect(b.jobs == 2 && b.runs == 5, "best times count jobs and runs");
  expect(near(b.jobs_per_s, 2.0 / 0.040) && near(b.cpu_ms_per_job, 16.5),
         "best times rates");
  expect(near(b.p50_ms, 20.0) && near(b.p90_ms, 28.0),
         "best times percentiles");
  expect(best_times({}).jobs == 0, "best times of no runs");
}

void test_self_time() {
  // root [0,100] > a [10,40] > a1 [15,20]; root > b [30,60] overlapping a;
  // root > c [90,120] running past its parent's end.
  const std::vector<Span> spans = {
      {"bench.job", 1, -1, 0, 100},  {"opt.construct", 1, 0, 10, 40},
      {"sfg.parse", 1, 1, 15, 20},   {"opt.run_strategy", 1, 0, 30, 60},
      {"sim.evaluate", 1, 0, 90, 120},
  };
  const std::vector<double> self = self_times_us(spans);
  expect(near(self[0], 100.0 - 50.0 - 10.0), "root self time");
  expect(near(self[1], 25.0), "child self time minus grandchild");
  expect(near(self[2], 5.0) && near(self[3], 30.0) && near(self[4], 30.0),
         "leaf self times");
  const auto layers = layer_self_ms(spans);
  expect(near(layers.at("bench"), 0.040) && near(layers.at("opt"), 0.055) &&
             near(layers.at("sfg"), 0.005) && near(layers.at("sim"), 0.030),
         "per-layer self time");
  expect(layer_of("serve.eval_hit") == "serve" && layer_of("bench") == "bench",
         "layer names");

  // Trace nesting: parents follow the open-span stack; a disabled trace
  // records nothing.
  Trace t(true, Clock::now());
  {
    ScopedSpan outer(t, "bench.job", 3);
    { ScopedSpan inner(t, "sfg.parse_scenario", 3); }
    { ScopedSpan inner(t, "opt.construct", 3); }
  }
  expect(t.spans().size() == 3 && t.spans()[0].parent == -1 &&
             t.spans()[1].parent == 0 && t.spans()[2].parent == 0,
         "span parents");
  Trace merged(true, Clock::now());
  merged.merge(t);
  merged.merge(t);
  expect(merged.spans().size() == 6 && merged.spans()[4].parent == 3,
         "merge re-bases parents");
  Trace off(false, Clock::now());
  { ScopedSpan s(off, "bench.job", 1); }
  expect(off.spans().empty(), "disabled trace records nothing");
}

}  // namespace

int main() {
  test_generation_is_deterministic();
  test_percentiles();
  test_slice_rates();
  test_best_times();
  test_self_time();
  std::printf("perfbench self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
