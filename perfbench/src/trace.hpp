// Span recorder for the benchmark's traced run.
//
// Spans are recorded around the benchmark's own calls into each layer's
// public functions (tracing inside the program is not part of this
// package). Each span holds a name, start and end on the steady clock, the
// span that was open on the same thread when it began (its parent), and a
// request or phase id. Spans stay in memory and are written out once, when
// the run ends. A layer's self time is its span's duration minus the time
// its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // relative to the tracer's origin
  std::int64_t end_ns = -1;   // -1 while the span is open
  std::int64_t parent = -1;   // index of the parent span, -1 at the root
  std::uint64_t id = 0;       // request or phase id
};

struct SpanTotals {
  double total_ms = 0.0;  // summed durations
  double self_ms = 0.0;   // summed durations minus child coverage
  std::size_t count = 0;

  double self_mean_ms() const { return count > 0 ? self_ms / static_cast<double>(count) : 0.0; }
};

class Tracer {
 public:
  /// A disabled tracer records nothing; its scopes cost one branch.
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// RAII span: opened by Tracer::span, closed by the destructor. Spans
  /// opened while it is open on the same thread become its children.
  class Scope {
   public:
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::int64_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::int64_t index_;
  };

  [[nodiscard]] Scope span(std::string name, std::uint64_t id = 0);

  /// Records an already finished span measured elsewhere (a request's
  /// send -> reply interval timed by a client thread), under `parent`.
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id, std::int64_t parent);

  /// Index of the innermost span open on the calling thread (-1 if none).
  std::int64_t current() const;

  /// Per span name: durations, self times and counts.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as one JSON object per line.
  void write(const std::filesystem::path& path) const;

 private:
  std::int64_t open(std::string name, std::uint64_t id);
  void close(std::int64_t index);
  std::int64_t since_origin(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
