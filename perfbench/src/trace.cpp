#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last. One tracer is live per
// process, so the stack needs no tracer key.
thread_local std::vector<std::int64_t> t_open;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Scope Tracer::span(std::string name, std::uint64_t id) {
  if (!enabled_) return Scope(nullptr, -1);
  return Scope(this, open(std::move(name), id));
}

std::int64_t Tracer::since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

std::int64_t Tracer::open(std::string name, std::uint64_t id) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.start_ns = since_origin(Clock::now());
  std::int64_t index = 0;
  {
    std::lock_guard lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = since_origin(Clock::now());
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void Tracer::record(std::string name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t id, std::int64_t parent) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = parent;
  span.start_ns = since_origin(start);
  span.end_ns = since_origin(end);
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::int64_t Tracer::current() const { return t_open.empty() ? -1 : t_open.back(); }

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard lock(mutex_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_ns >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    SpanTotals& totals = out[span.name];
    totals.total_ms += ms;
    totals.self_ms += ms - child_ms[i];
    ++totals.count;
  }
  return out;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"id\":" << span.id << "}\n";
  }
}

}  // namespace perfbench
