// Correctness checks of the benchmark: each compares what the program
// returned with a result the benchmark computes apart from it, and returns
// one line per problem found (empty = passed). They are pure functions so
// the benchmark's own tests can feed them broken inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/classifier.hpp"
#include "ml/matrix.hpp"
#include "ml/metrics.hpp"
#include "net/protocol.hpp"

namespace perfbench {

enum class Workload { kPipeline, kServeSaturated, kServeSingle, kServeRepeat };

struct F1Scores {
  double micro = 0.0;
  double macro = 0.0;
  double weighted = 0.0;
};

/// Micro, macro and support-weighted F1 from the confusion counts of
/// `truth` against `pred`, over every label either vector holds (-1, the
/// unknown label, included); a class with a zero denominator scores 0.
F1Scores recompute_f1(const std::vector<int>& truth, const std::vector<int>& pred);

/// Lowest macro F1 the pipeline may score: the paper's macro F1 (0.90;
/// micro and weighted 0.89 / 0.90) less 0.10. The untuned pipeline (fixed
/// 0.5 confidence threshold) scores 0.85-0.88 over forest seeds; a collapse
/// such as 0.95 -> 0.61 fails.
inline constexpr double kMacroF1Floor = 0.80;

/// Pipeline outputs: predictions of the test side against the program's
/// own report on them (F1 recomputed, macro floor, confusion counts).
std::vector<std::string> check_pipeline(const std::vector<int>& truth,
                                        const std::vector<int>& pred,
                                        const fhc::ml::ClassificationReport& report,
                                        double macro_floor = kMacroF1Floor);

struct RowSums {
  std::size_t off = 0;    // rows whose probabilities do not sum to 1 (+-1e-4)
  double lowest = 1.0;    // smallest row sum
  double highest = 1.0;   // largest row sum
};

/// How far the rows of a probability matrix are from summing to 1.
RowSums probability_row_sums(const fhc::ml::Matrix& proba);

/// One PREDICTION reply against in-process FuzzyHashClassifier::predict on
/// the same digests: label, unknown flag and class name must match, and
/// the confidence bit for bit. Returns "" when they match.
std::string check_reply(const fhc::net::Response& got, const fhc::core::Prediction& want,
                        const std::vector<std::string>& class_names);

/// The daemon's STATS line as key -> value.
using StatsMap = std::map<std::string, double>;
StatsMap parse_stats(std::string_view line);

/// What the client saw over the timed phase.
struct ClientCounts {
  std::uint64_t sent = 0;         // CLASSIFY_DIGESTS frames sent
  std::uint64_t predictions = 0;  // PREDICTION replies
  std::uint64_t deadline = 0;     // DEADLINE_EXCEEDED replies
};

/// The daemon's counter deltas over the timed phase against the client's
/// counts: completed == replies the service produced, requests == sent,
/// and per workload: saturated scores every request and never hits the
/// cache, repeat answers every request from the cache, single flushes one
/// batch per request.
std::vector<std::string> check_serve_stats(Workload workload, const StatsMap& before,
                                           const StatsMap& after,
                                           const ClientCounts& client);

}  // namespace perfbench
