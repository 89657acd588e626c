#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int Trace::begin(std::string_view name, std::uint64_t job) {
  if (!enabled_) return -1;
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_)
                         .count();
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::string(name), job, parent, now, now});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Trace::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  // Spans close innermost first; tolerate an out-of-order end by
  // dropping everything opened after it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Trace::merge(const Trace& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::string layer_of(std::string_view span_name) {
  return std::string(span_name.substr(0, span_name.find('.')));
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return self;
}

std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[layer_of(spans[i].name)] += self[i] / 1000.0;
  return out;
}

std::string spans_to_json(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::string out = "[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"layer\": \"%s\", \"job\": %llu, "
                  "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"self_us\": %.3f}%s\n",
                  s.name.c_str(), layer_of(s.name).c_str(),
                  static_cast<unsigned long long>(s.job), s.parent,
                  s.start_us, s.end_us, self[i],
                  i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "]\n";
  return out;
}

}  // namespace perfbench
