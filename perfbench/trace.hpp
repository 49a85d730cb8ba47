// Host-time spans recorded around the benchmark's calls into the
// simulator. Spans stay in memory; the traced run writes them once at
// exit as Chrome/Perfetto trace-event JSON (the viewer format of
// src/obs/trace.hpp, here in host microseconds) and prints a self-time
// table. Only the benchmark's main thread opens spans.
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// `s` as a JSON string literal (quotes and backslashes escaped).
std::string json_quote(const std::string& s);

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 at top level

  double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(std::string run_id);

  int open(std::string name);
  void close(int id);

  /// Summed duration of every closed span called `name`.
  double total_seconds(const std::string& name) const;

  void write_chrome_json(std::ostream& out, const std::string& meta_json) const;
  /// Per-name count, total and self time, largest total first.
  void print_self_time_table(std::ostream& out) const;

 private:
  double now_s() const;
  /// A span's duration minus the time its direct children cover.
  double self_seconds(const SpanRecord& span) const;

  std::chrono::steady_clock::time_point origin_;
  std::string run_id_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Times a scope with steady_clock. With a tracer it also records a
/// span; with none it is a plain stopwatch, which is how untraced runs
/// measure.
class Span {
 public:
  Span(Tracer* tracer, std::string name);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double stop();

 private:
  Tracer* tracer_;
  int id_ = -1;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1.0;
};

}  // namespace perfbench
