// Each correctness check of the benchmark must be able to fail: a good
// input passes, and a reply with one label flipped, a shuffled truth
// vector, or a STATS counter off by one is reported as a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "checks.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using fhc::ml::classification_report;

struct PipelineCase {
  std::vector<int> truth;
  std::vector<int> pred;
  fhc::ml::Matrix proba;
  std::vector<std::string> names;
};

/// Eight classes plus unknowns, predicted right except for a few misses.
PipelineCase make_pipeline_case() {
  PipelineCase c;
  for (int k = 0; k < 8; ++k) c.names.push_back("class" + std::to_string(k));
  for (int i = 0; i < 400; ++i) {
    const int label = i % 10 < 8 ? i % 8 : -1;
    c.truth.push_back(label);
    c.pred.push_back(i % 97 == 0 ? (label + 1) % 8 : label);
  }
  c.proba = fhc::ml::Matrix(c.truth.size(), c.names.size(), 0.0f);
  for (std::size_t r = 0; r < c.truth.size(); ++r) {
    for (std::size_t k = 0; k < c.names.size(); ++k) c.proba.at(r, k) = 1.0f / 8.0f;
  }
  return c;
}

TEST(PipelineCheck, PassesOnConsistentOutputs) {
  const PipelineCase c = make_pipeline_case();
  const auto report = classification_report(c.truth, c.pred, c.names);
  EXPECT_TRUE(check_pipeline(c.truth, c.pred, report).empty());
}

TEST(PipelineCheck, RecomputedF1MatchesReport) {
  const PipelineCase c = make_pipeline_case();
  const auto report = classification_report(c.truth, c.pred, c.names);
  const F1Scores mine = recompute_f1(c.truth, c.pred);
  EXPECT_DOUBLE_EQ(mine.micro, report.micro.f1);
  EXPECT_DOUBLE_EQ(mine.macro, report.macro.f1);
  EXPECT_DOUBLE_EQ(mine.weighted, report.weighted.f1);
}

TEST(PipelineCheck, ShuffledTruthFails) {
  const PipelineCase c = make_pipeline_case();
  const auto report = classification_report(c.truth, c.pred, c.names);
  std::vector<int> shuffled = c.truth;
  fhc::util::Rng rng(7);
  rng.shuffle(shuffled);
  ASSERT_NE(shuffled, c.truth);
  EXPECT_FALSE(check_pipeline(shuffled, c.pred, report).empty());
}

TEST(PipelineCheck, MacroFloorFails) {
  PipelineCase c = make_pipeline_case();
  for (std::size_t i = 0; i < c.pred.size(); i += 2) c.pred[i] = (c.truth[i] + 3) % 8;
  const auto report = classification_report(c.truth, c.pred, c.names);
  const auto problems = check_pipeline(c.truth, c.pred, report);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("floor"), std::string::npos);
}

TEST(RowSums, CountsRowsNotSummingToOne) {
  PipelineCase c = make_pipeline_case();
  EXPECT_EQ(probability_row_sums(c.proba).off, 0u);
  c.proba.at(17, 3) += 0.01f;
  c.proba.at(40, 0) = 0.0f;
  const RowSums sums = probability_row_sums(c.proba);
  EXPECT_EQ(sums.off, 2u);
  EXPECT_NEAR(sums.lowest, 0.875, 1e-6);
  EXPECT_NEAR(sums.highest, 1.01, 1e-6);
}

TEST(PipelineCheck, MissingPredictionFails) {
  PipelineCase c = make_pipeline_case();
  const auto report = classification_report(c.truth, c.pred, c.names);
  c.pred.pop_back();
  EXPECT_FALSE(check_pipeline(c.truth, c.pred, report).empty());
}

fhc::net::Response reply_for(const fhc::core::Prediction& p,
                             const std::vector<std::string>& names) {
  fhc::net::Response r;
  r.op = fhc::net::Opcode::kPrediction;
  r.label = p.label;
  r.is_unknown = p.is_unknown;
  r.confidence = p.confidence;
  r.text = p.label >= 0 ? names[static_cast<std::size_t>(p.label)] : "";
  return r;
}

TEST(ReplyCheck, MatchingReplyPasses) {
  const std::vector<std::string> names = {"a", "b", "c"};
  fhc::core::Prediction p;
  p.label = 2;
  p.confidence = 0.8125;
  EXPECT_EQ(check_reply(reply_for(p, names), p, names), "");
}

TEST(ReplyCheck, FlippedLabelFails) {
  const std::vector<std::string> names = {"a", "b", "c"};
  fhc::core::Prediction p;
  p.label = 2;
  p.confidence = 0.8125;
  fhc::net::Response r = reply_for(p, names);
  r.label = 1;
  EXPECT_NE(check_reply(r, p, names), "");
}

TEST(ReplyCheck, ConfidenceOffByOneUlpFails) {
  const std::vector<std::string> names = {"a", "b", "c"};
  fhc::core::Prediction p;
  p.label = 0;
  p.confidence = 0.8125;
  fhc::net::Response r = reply_for(p, names);
  r.confidence = std::nextafter(r.confidence, 1.0);
  EXPECT_NE(check_reply(r, p, names), "");
}

TEST(ReplyCheck, WrongNameOrOpcodeFails) {
  const std::vector<std::string> names = {"a", "b", "c"};
  fhc::core::Prediction p;
  p.label = 1;
  fhc::net::Response r = reply_for(p, names);
  r.text = "c";
  EXPECT_NE(check_reply(r, p, names), "");
  r = reply_for(p, names);
  r.op = fhc::net::Opcode::kBusy;
  EXPECT_NE(check_reply(r, p, names), "");
}

StatsMap stats(double requests, double completed, double batches, double scored, double hits) {
  return parse_stats("requests=" + std::to_string(requests) + " completed=" +
                     std::to_string(completed) + " batches=" + std::to_string(batches) +
                     " scored=" + std::to_string(scored) + " cache_hits=" + std::to_string(hits) +
                     " p50_ms=1.5");
}

TEST(StatsCheck, ParsesKeyValues) {
  const StatsMap s = parse_stats("requests=12 completed=11 p50_ms=0.25 note=abc");
  EXPECT_EQ(s.at("requests"), 12.0);
  EXPECT_EQ(s.at("p50_ms"), 0.25);
  EXPECT_EQ(s.count("note"), 0u);
}

TEST(StatsCheck, ConsistentDeltasPass) {
  const StatsMap before = stats(100, 100, 10, 80, 20);
  ClientCounts client{50, 50, 0};
  EXPECT_TRUE(check_serve_stats(Workload::kServeSaturated, before, stats(150, 150, 12, 130, 20),
                                client).empty());
  EXPECT_TRUE(check_serve_stats(Workload::kServeRepeat, before, stats(150, 150, 10, 80, 70),
                                client).empty());
  EXPECT_TRUE(check_serve_stats(Workload::kServeSingle, before, stats(150, 150, 60, 130, 20),
                                client).empty());
}

TEST(StatsCheck, CompletedOffByOneFails) {
  const StatsMap before = stats(100, 100, 10, 80, 20);
  ClientCounts client{50, 50, 0};
  EXPECT_FALSE(check_serve_stats(Workload::kServeSaturated, before,
                                 stats(150, 151, 12, 130, 20), client).empty());
}

TEST(StatsCheck, PerWorkloadCountersOffByOneFail) {
  const StatsMap before = stats(100, 100, 10, 80, 20);
  ClientCounts client{50, 50, 0};
  // saturated: one request answered from the cache instead of scored
  EXPECT_FALSE(check_serve_stats(Workload::kServeSaturated, before,
                                 stats(150, 150, 12, 129, 21), client).empty());
  // repeat: one request missed the cache
  EXPECT_FALSE(check_serve_stats(Workload::kServeRepeat, before, stats(150, 150, 11, 81, 69),
                                 client).empty());
  // single: two requests shared a batch
  EXPECT_FALSE(check_serve_stats(Workload::kServeSingle, before, stats(150, 150, 59, 130, 20),
                                 client).empty());
  // requests off by one against what the client sent
  EXPECT_FALSE(check_serve_stats(Workload::kServeRepeat, before, stats(151, 150, 10, 80, 71),
                                 client).empty());
}

TEST(StatsCheck, MissingCounterFails) {
  ClientCounts client{1, 1, 0};
  EXPECT_FALSE(check_serve_stats(Workload::kServeSingle, parse_stats("requests=1"),
                                 parse_stats("requests=2"), client).empty());
}

}  // namespace
}  // namespace perfbench
