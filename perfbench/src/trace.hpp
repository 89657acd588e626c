// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into the library
// (parse_scenario, the WordlengthOptimizer constructor, run_strategy,
// evaluate_accuracy, one served request), never from inside the library.
// A span's layer is its name up to the first '.', so "sfg.parse_scenario"
// belongs to the `sfg` layer. Each Trace is owned by one thread; threads
// that trace concurrently keep one Trace each and merge() them at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t job = 0;  ///< Spans of one job share this id.
  int parent = -1;        ///< Index of the enclosing span, -1 at the root.
  double start_us = 0.0;  ///< Relative to the trace origin.
  double end_us = 0.0;
};

class Trace {
 public:
  Trace(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int begin(std::string_view name, std::uint64_t job);
  void end(int id);

  /// Appends @p other's spans, re-basing their parent indices.
  void merge(const Trace& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled trace.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, std::string_view name, std::uint64_t job)
      : trace_(trace), id_(trace.begin(name, job)) {}
  ~ScopedSpan() { trace_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace& trace_;
  int id_;
};

/// "sfg" for "sfg.parse_scenario"; the whole name when it has no '.'.
std::string layer_of(std::string_view span_name);

/// Per-span self time in microseconds: the span's duration minus the part
/// of its interval covered by its direct children (overlapping children
/// are counted once, and children are clipped to the parent).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Self time summed per layer, in milliseconds.
std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans);

/// The spans as a JSON array of objects (name, layer, job, parent,
/// start_us, end_us, self_us).
std::string spans_to_json(const std::vector<Span>& spans);

}  // namespace perfbench
