// The benchmark's workloads and what they share: run options, the result a
// run reports, the fhc_serve session the serving workloads drive, and the
// layer probes of the traced run.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/classifier.hpp"
#include "corpus/corpus.hpp"
#include "daemon.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kPipeline;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  InputPaths inputs;
  std::filesystem::path work_dir;  // sockets, daemon logs, traces
  std::string serve_bin;           // the fhc_serve executable
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<std::string> problems;  // failed correctness checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> info;  // "key=value" lines printed before the result

  void add_info(const std::string& key, double value);
  void add_info(const std::string& key, const std::string& value);
  void add_problems(const std::vector<std::string>& more);
};

RunResult run_pipeline(const RunOptions& options, Tracer& tracer);
RunResult run_serve(const RunOptions& options, Tracer& tracer);

// ---- serving session --------------------------------------------------

/// Nearest-rank percentile of `values` (reorders them); 0 when empty.
double percentile(std::vector<double>& values, double q);

struct ReplyRecord {
  std::uint32_t query = 0;
  std::int32_t label = 0;
  bool unknown = false;
  double confidence = 0.0;
};

/// What one drive() saw, summed over its connections.
struct DriveResult {
  std::uint64_t sent = 0;
  std::uint64_t predictions = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t deadline = 0;
  std::uint64_t transport = 0;  // requests left unanswered by a broken connection
  std::uint64_t bad_names = 0;  // PREDICTION class name not the label's name
  std::vector<double> latencies_ms;
  std::vector<ReplyRecord> replies;
  std::vector<std::string> problems;
  double elapsed_s = 0.0;

  std::uint64_t failed() const { return busy + errors + deadline + transport; }
};

/// Yields the next query index for one connection, or nothing when the
/// connection should stop sending.
using QuerySource = std::function<std::optional<std::uint32_t>()>;

struct DriveOptions {
  std::size_t window = 1;  // frames in flight per connection
  Clock::time_point deadline = Clock::time_point::max();  // stop issuing at
  bool record = false;           // keep every reply for verification
  Tracer* tracer = nullptr;      // with a live tracer, every span_every-th
  std::size_t span_every = 0;    // request becomes a span
};

/// fhc_serve started on a model and listening on a Unix socket, with one
/// control connection for PING / STATS / QUIT.
class ServeSession {
 public:
  ServeSession(const RunOptions& options, const std::filesystem::path& model);

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  pid_t pid() const noexcept { return daemon_->pid(); }
  StatsMap stats();

  /// Closed loop: one thread per source, each keeping up to
  /// `how.window` pre-encoded frames in flight on its own connection, until
  /// its source runs dry or the deadline passes; then it drains what is in
  /// flight. Reply class names are checked against `class_names`.
  DriveResult drive(const std::vector<std::string>& frames, std::vector<QuerySource> sources,
                    const DriveOptions& how, const std::vector<std::string>& class_names);

  /// Sends QUIT and returns the daemon's exit status (-1 on timeout).
  int quit();

 private:
  fhc::net::Endpoint endpoint_;
  std::unique_ptr<ChildProcess> daemon_;
  fhc::net::BlockingClient control_;
};

/// A cursor over a fixed order shared by several connections.
QuerySource shared_cursor(std::shared_ptr<std::atomic<std::size_t>> cursor,
                          std::shared_ptr<const std::vector<std::uint32_t>> order);

/// Per-layer metrics read off a daemon over a driven phase: STATS deltas,
/// /proc deltas, and the client's latencies.
void add_daemon_layer_metrics(RunResult& result, const StatsMap& before, const StatsMap& after,
                              const ProcSample& proc_before, const ProcSample& proc_after,
                              double client_p50_ms, std::uint64_t replies);

// ---- traced run: layer probes ------------------------------------------

struct ProbeInputs {
  const fhc::corpus::Corpus* corpus = nullptr;  // extraction probes draw from it
  const std::vector<fhc::core::FeatureHashes>* train = nullptr;
  const std::vector<int>* train_labels = nullptr;
  std::vector<std::string> class_names;
  fhc::core::ClassifierConfig config;
  std::filesystem::path model_file;  // a v2 model of the same training side
  std::vector<fhc::core::FeatureHashes> queries;  // the workload's own requests
  std::uint64_t seed = 1;
};

/// Times single calls into each layer's public functions under spans and
/// adds the fit-, row- and service-side per-layer metrics.
void run_layer_probes(const ProbeInputs& inputs, Tracer& tracer, RunResult& result);

/// The per-layer metric names every traced run reports.
const std::vector<std::string>& per_layer_names();

}  // namespace perfbench
