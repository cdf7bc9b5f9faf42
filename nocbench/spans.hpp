#pragma once
// The benchmark's own span recorder: one span per call the benchmark makes
// into a layer (name, start, end, parent, run id), kept in memory and
// written once when the run ends. Disabled recorders cost one branch per
// span, so untraced runs time the program, not the recorder.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace nocbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Spans {
 public:
  static constexpr int kNone = -1;

  struct Span {
    const char* name = "";
    Clock::time_point start, end;
    int parent = kNone;
    std::uint64_t run = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_run(std::uint64_t run) { run_ = run; }

  /// Open a span under the innermost open one; returns its index.
  int open(const char* name) {
    if (!enabled_) return kNone;
    spans_.push_back({name, Clock::now(), {}, stack_.empty() ? kNone : stack_.back(), run_});
    stack_.push_back(int(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    if (id == kNone) return;
    spans_[std::size_t(id)].end = Clock::now();
    stack_.pop_back();
  }
  /// Record an already-measured interval as a child of the open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    spans_.push_back({name, start, end, stack_.empty() ? kNone : stack_.back(), run_});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the time its direct children cover.
  std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = seconds_between(spans_[i].start, spans_[i].end);
    for (const Span& s : spans_)
      if (s.parent != kNone) self[std::size_t(s.parent)] -= seconds_between(s.start, s.end);
    return self;
  }

  /// JSON: every span, then per-name totals of duration and self time.
  void write_json(std::ostream& os) const {
    const std::vector<double> self = self_seconds();
    struct Total {
      std::uint64_t count = 0;
      double total = 0.0, self = 0.0;
    };
    std::map<std::string, Total> by_name;
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double start = seconds_between(origin_, s.start);
      const double end = seconds_between(origin_, s.end);
      os << (i ? "," : "") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"run\":" << s.run << ",\"parent\":" << s.parent << ",\"start_s\":" << start
         << ",\"end_s\":" << end << ",\"self_s\":" << self[i] << "}";
      Total& t = by_name[s.name];
      ++t.count;
      t.total += end - start;
      t.self += self[i];
    }
    os << "],\n\"by_name\":{";
    bool first = true;
    for (const auto& [name, t] : by_name) {
      os << (first ? "" : ",") << "\n\"" << name << "\":{\"count\":" << t.count
         << ",\"total_s\":" << t.total << ",\"self_s\":" << t.self << "}";
      first = false;
    }
    os << "}}\n";
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::uint64_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& s, const char* name) : s_(&s), id_(s.open(name)) {}
  ~Scope() { s_->close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* s_;
  int id_;
};

} // namespace nocbench
