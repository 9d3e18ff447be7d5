#include "checks.hpp"

#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double harmonic(double p, double r) { return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0; }

bool close(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

std::string describe(const char* what, double got, double want) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": " << got << " != " << want;
  return out.str();
}

}  // namespace

F1Scores recompute_f1(const std::vector<int>& truth, const std::vector<int>& pred) {
  std::map<std::pair<int, int>, std::uint64_t> confusion;
  std::set<int> labels;
  const std::size_t n = std::min(truth.size(), pred.size());
  for (std::size_t i = 0; i < n; ++i) {
    ++confusion[{truth[i], pred[i]}];
    labels.insert(truth[i]);
    labels.insert(pred[i]);
  }
  double tp_all = 0.0;
  double fp_all = 0.0;
  double fn_all = 0.0;
  double macro = 0.0;
  double weighted = 0.0;
  double support_all = 0.0;
  for (const int label : labels) {
    double tp = 0.0;
    double fp = 0.0;
    double fn = 0.0;
    for (const auto& [cell, count] : confusion) {
      const auto c = static_cast<double>(count);
      if (cell.first == label && cell.second == label) tp += c;
      if (cell.first != label && cell.second == label) fp += c;
      if (cell.first == label && cell.second != label) fn += c;
    }
    const double f1 = harmonic(ratio(tp, tp + fp), ratio(tp, tp + fn));
    tp_all += tp;
    fp_all += fp;
    fn_all += fn;
    macro += f1;
    weighted += f1 * (tp + fn);
    support_all += tp + fn;
  }
  F1Scores out;
  out.micro = harmonic(ratio(tp_all, tp_all + fp_all), ratio(tp_all, tp_all + fn_all));
  out.macro = ratio(macro, static_cast<double>(labels.size()));
  out.weighted = ratio(weighted, support_all);
  return out;
}

std::vector<std::string> check_pipeline(const std::vector<int>& truth,
                                        const std::vector<int>& pred,
                                        const fhc::ml::ClassificationReport& report,
                                        double macro_floor) {
  std::vector<std::string> problems;
  if (pred.size() != truth.size()) {
    problems.push_back("pipeline: " + std::to_string(pred.size()) + " predictions for " +
                       std::to_string(truth.size()) + " test samples");
    return problems;
  }

  const F1Scores mine = recompute_f1(truth, pred);
  if (!close(mine.micro, report.micro.f1)) {
    problems.push_back(describe("micro F1 (recomputed vs report)", mine.micro, report.micro.f1));
  }
  if (!close(mine.macro, report.macro.f1)) {
    problems.push_back(describe("macro F1 (recomputed vs report)", mine.macro, report.macro.f1));
  }
  if (!close(mine.weighted, report.weighted.f1)) {
    problems.push_back(
        describe("weighted F1 (recomputed vs report)", mine.weighted, report.weighted.f1));
  }
  if (!(mine.macro >= macro_floor)) {
    problems.push_back(describe("macro F1 below the floor", mine.macro, macro_floor));
  }

  // Confusion counts: every test sample lands in exactly one cell, and the
  // report's per-class supports cover the test side exactly.
  std::map<std::pair<int, int>, std::uint64_t> confusion;
  for (std::size_t i = 0; i < truth.size(); ++i) ++confusion[{truth[i], pred[i]}];
  std::uint64_t cells = 0;
  for (const auto& [cell, count] : confusion) cells += count;
  std::uint64_t supports = 0;
  for (const fhc::ml::ClassMetrics& m : report.per_class) supports += m.support;
  if (cells != truth.size() || supports != truth.size() ||
      report.total_support != truth.size()) {
    problems.push_back("confusion counts " + std::to_string(cells) + ", report supports " +
                       std::to_string(supports) + " / " +
                       std::to_string(report.total_support) + " for " +
                       std::to_string(truth.size()) + " test samples");
  }

  return problems;
}

RowSums probability_row_sums(const fhc::ml::Matrix& proba) {
  RowSums out;
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double sum = 0.0;
    for (const float p : proba.row(r)) sum += p;
    if (!(std::fabs(sum - 1.0) <= 1e-4)) ++out.off;
    out.lowest = std::min(out.lowest, sum);
    out.highest = std::max(out.highest, sum);
  }
  return out;
}

std::string check_reply(const fhc::net::Response& got, const fhc::core::Prediction& want,
                        const std::vector<std::string>& class_names) {
  if (got.op != fhc::net::Opcode::kPrediction) return "reply is not a PREDICTION";
  if (got.label != want.label) {
    return "label " + std::to_string(got.label) + " != " + std::to_string(want.label);
  }
  if (got.is_unknown != want.is_unknown) return "unknown flag differs";
  if (std::bit_cast<std::uint64_t>(got.confidence) !=
      std::bit_cast<std::uint64_t>(want.confidence)) {
    return describe("confidence", got.confidence, want.confidence);
  }
  const std::string name =
      want.label >= 0 && static_cast<std::size_t>(want.label) < class_names.size()
          ? class_names[static_cast<std::size_t>(want.label)]
          : std::string();
  if (got.text != name) return "class name '" + got.text + "' != '" + name + "'";
  return {};
}

StatsMap parse_stats(std::string_view line) {
  StatsMap out;
  std::istringstream in{std::string(line)};
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    try {
      out[token.substr(0, eq)] = std::stod(token.substr(eq + 1));
    } catch (const std::exception&) {
      // non-numeric field: not a counter
    }
  }
  return out;
}

std::vector<std::string> check_serve_stats(Workload workload, const StatsMap& before,
                                           const StatsMap& after,
                                           const ClientCounts& client) {
  std::vector<std::string> problems;
  auto delta = [&](const char* key) -> double {
    const auto b = before.find(key);
    const auto a = after.find(key);
    if (b == before.end() || a == after.end()) {
      problems.push_back(std::string("STATS lacks ") + key);
      return -1.0;
    }
    return a->second - b->second;
  };
  auto expect = [&](const char* what, double got, double want) {
    if (got != want) problems.push_back(describe(what, got, want));
  };

  const double requests = delta("requests");
  const double completed = delta("completed");
  const double batches = delta("batches");
  const double scored = delta("scored");
  const double hits = delta("cache_hits");
  const auto sent = static_cast<double>(client.sent);

  expect("STATS completed delta vs client replies", completed,
         static_cast<double>(client.predictions + client.deadline));
  expect("STATS requests delta vs requests sent", requests, sent);
  switch (workload) {
    case Workload::kServeSaturated:
      expect("STATS scored delta vs requests", scored, requests);
      expect("STATS cache_hits delta", hits, 0.0);
      break;
    case Workload::kServeRepeat:
      expect("STATS cache_hits delta vs requests sent", hits, sent);
      break;
    case Workload::kServeSingle:
      expect("STATS batches delta vs requests", batches, requests);
      break;
    case Workload::kPipeline:
      break;
  }
  return problems;
}

}  // namespace perfbench
