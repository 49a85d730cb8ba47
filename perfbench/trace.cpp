#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

Tracer::Tracer(std::string run_id)
    : origin_(Clock::now()), run_id_(std::move(run_id)) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int Tracer::open(std::string name) {
  SpanRecord span;
  span.name = std::move(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_s = now_s();
  span.end_s = span.start_s;
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Spans nest strictly (RAII on one thread), so `id` is the top.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) total += span.seconds();
  }
  return total;
}

double Tracer::self_seconds(const SpanRecord& span) const {
  double children = 0.0;
  for (const SpanRecord& other : spans_) {
    if (other.parent == span.id) children += other.seconds();
  }
  return span.seconds() - children;
}

void Tracer::write_chrome_json(std::ostream& out,
                               const std::string& meta_json) const {
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":"
      << json_quote("perfbench " + run_id_) << "}}";
  char buf[96];
  for (const SpanRecord& span : spans_) {
    out << ",\n{\"name\":" << json_quote(span.name);
    std::snprintf(buf, sizeof buf, ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,",
                  span.start_s * 1e6, span.seconds() * 1e6);
    out << buf << "\"pid\":1,\"tid\":1,\"args\":{\"span_id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"run_id\":" << json_quote(run_id_)
        << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << meta_json
      << "}\n";
}

void Tracer::print_self_time_table(std::ostream& out) const {
  struct Row {
    int count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& span : spans_) {
    Row& row = rows[span.name];
    ++row.count;
    row.total += span.seconds();
    row.self += self_seconds(span);
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::stable_sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.total > b.second.total;
  });
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-28s %6s %12s %12s\n", "span", "calls",
                "total_s", "self_s");
  out << buf;
  for (const auto& [name, row] : sorted) {
    std::snprintf(buf, sizeof buf, "%-28s %6d %12.6f %12.6f\n", name.c_str(),
                  row.count, row.total, row.self);
    out << buf;
  }
}

Span::Span(Tracer* tracer, std::string name)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ != nullptr) id_ = tracer_->open(std::move(name));
}

double Span::stop() {
  if (seconds_ < 0.0) {
    seconds_ = std::chrono::duration<double>(Clock::now() - start_).count();
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  return seconds_;
}

}  // namespace perfbench
