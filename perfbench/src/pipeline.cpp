// The paper pipeline, in-process through the library's public entry
// points: prepare_experiment (corpus synthesis, ELF extraction, ssdeep
// hashing, the two-phase split) is the set-up; fit on the training side
// and predict_batch on the test side are the timed phase.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <numeric>

#include "ml/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using fhc::core::FeatureHashes;
using fhc::core::FuzzyHashClassifier;

namespace {

constexpr std::size_t kSinglePredictSamples = 128;
constexpr std::size_t kMinSinglePredictPasses = 2;
constexpr std::size_t kProbeQueries = 64;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

RunResult run_pipeline(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  // The paper experiment is a fixed input: corpus and forest take their
  // reference seeds, so every run fits the same model the serving
  // workloads serve. A corpus seed moves the per-row cost by +-10%
  // (candidates per row differ), more than the bounds allow. --seed orders
  // the test side and the single-predict samples.
  const fhc::core::ExperimentConfig config = paper_config(kModelSeed);

  fhc::core::ExperimentData data = [&] {
    const auto span = tracer.span("pipeline.prepare_experiment");
    return fhc::core::prepare_experiment(config);
  }();
  const double setup_s = since(options.process_start);
  const std::vector<FeatureHashes> train = data.gather_hashes(data.train_indices);

  fhc::util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 5);
  std::vector<std::size_t> test_order(data.test_indices.size());
  std::iota(test_order.begin(), test_order.end(), std::size_t{0});
  rng.shuffle(test_order);
  std::vector<FeatureHashes> test;
  std::vector<int> truth;
  std::vector<std::size_t> position(test_order.size());  // test side -> batch row
  for (const std::size_t i : test_order) {
    position[i] = test.size();
    test.push_back(data.hashes[data.test_indices[i]]);
    truth.push_back(data.test_truth[i]);
  }

  const double cpu_before = process_cpu_s();
  const HostCpu host_before = read_host_cpu();
  FuzzyHashClassifier model;
  const Clock::time_point fit_start = Clock::now();
  {
    const auto span = tracer.span("pipeline.fit");
    model.fit(train, data.train_labels, data.model_class_names, config.classifier);
  }
  const double fit_s = since(fit_start);
  fhc::ml::Matrix proba;
  std::vector<int> pred;
  const Clock::time_point predict_start = Clock::now();
  {
    const auto span = tracer.span("pipeline.predict_batch");
    pred = model.predict_batch(test, &proba);
  }
  const double predict_s = since(predict_start);
  const double cpu_s = process_cpu_s() - cpu_before;

  // A lone in-process classification: predict() one at a time on evenly
  // spaced samples of the test side, the same ones every run (per-sample
  // costs cluster near 1 ms and 13 ms, so a drawn subset would move the
  // median between the clusters), in the batch's order, in whole passes
  // until --seconds have passed since fit began.
  std::vector<std::size_t> samples;  // batch rows
  const std::size_t stride = std::max<std::size_t>(1, test.size() / kSinglePredictSamples);
  for (std::size_t i = 0; i < test.size() && samples.size() < kSinglePredictSamples;
       i += stride) {
    samples.push_back(position[i]);
  }
  std::sort(samples.begin(), samples.end());
  const Clock::time_point single_until =
      fit_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(options.seconds));
  std::vector<double> single_ms;
  std::size_t passes = 0;
  {
    const auto span = tracer.span("pipeline.single_predict");
    while (passes < kMinSinglePredictPasses || Clock::now() < single_until) {
      for (const std::size_t i : samples) {
        const Clock::time_point start = Clock::now();
        const fhc::core::Prediction p = model.predict(test[i]);
        single_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start).count());
        if (passes == 0 && p.label != pred[i]) {
          result.problems.push_back("predict and predict_batch disagree on test sample " +
                                    std::to_string(i));
        }
      }
      ++passes;
    }
  }
  result.add_info("host_steal_share", steal_share(host_before, read_host_cpu()));
  const ProcSample self = read_proc(::getpid());

  const fhc::ml::ClassificationReport report =
      fhc::ml::classification_report(truth, pred, data.model_class_names);
  result.add_problems(check_pipeline(truth, pred, report));
  if (proba.rows() != test.size()) {
    result.problems.push_back(std::to_string(proba.rows()) + " probability rows for " +
                              std::to_string(test.size()) + " test samples");
  }
  // An operation is one test sample through predict_batch. It fails when
  // its probability row does not sum to 1: forest leaves that hold only
  // out-of-bag samples carry an all-zero distribution, a fault of the
  // program (see CHANGES.md). With corpus and forest fixed, the same rows
  // fail in every run.
  const RowSums sums = probability_row_sums(proba);
  result.attempted = proba.rows();
  result.failed = sums.off;
  result.add_info("proba_rows_not_summing_to_1", static_cast<double>(sums.off));
  result.add_info("proba_row_sum_lowest", sums.lowest);

  const double n_samples = static_cast<double>(data.hashes.size());
  const double n_timed = static_cast<double>(train.size() + test.size());
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s", n_timed / (fit_s + predict_s), "1/s"},
      {"latency_ms", percentile(single_ms, 0.5), "ms"},
      {"cpu_ms_per_op", cpu_s * 1e3 / n_timed, "ms"},
      {"peak_rss_mb", self.hwm_mb, "MB"},
  };
  result.add_info("samples", n_samples);
  result.add_info("train_samples", static_cast<double>(train.size()));
  result.add_info("test_samples", static_cast<double>(test.size()));
  result.add_info("extract_per_s", n_samples / setup_s);
  result.add_info("train_s", fit_s);
  result.add_info("predict_per_s", static_cast<double>(test.size()) / predict_s);
  result.add_info("single_predict_samples", static_cast<double>(samples.size()));
  result.add_info("single_predict_passes", static_cast<double>(passes));
  result.add_info("latency_samples", static_cast<double>(single_ms.size()));
  result.add_info("latency_p90_ms", percentile(single_ms, 0.9));
  result.add_info("micro_f1", report.micro.f1);
  result.add_info("macro_f1", report.macro.f1);
  result.add_info("weighted_f1", report.weighted.f1);
  result.add_info("daemon_exit_status", "none (in-process workload)");

  if (tracer.enabled()) {
    // The fitted model, served briefly: the daemon-side layers measured on
    // the pipeline's own test side.
    const std::filesystem::path model_file = options.work_dir / "pipeline-model.fhcb";
    model.save_binary_file(model_file.string());
    {
      const auto span = tracer.span("pipeline.serve_probe");
      ServeSession session(options, model_file);
      std::vector<std::string> frames(test.size());
      for (std::size_t i = 0; i < test.size(); ++i) {
        fhc::net::encode_classify_digests(frames[i], digest_texts(test[i]));
      }
      std::vector<std::uint32_t> ids(test.size());
      for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<std::uint32_t>(i);
      auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
      auto shared = std::make_shared<const std::vector<std::uint32_t>>(std::move(ids));
      const StatsMap before = session.stats();
      const ProcSample proc_before = read_proc(session.pid());
      DriveOptions how;
      how.window = 64;
      how.tracer = &tracer;
      how.span_every = 16;
      DriveResult drove = session.drive(
          frames, {shared_cursor(cursor, shared), shared_cursor(cursor, shared)}, how,
          model.class_names());
      const ProcSample proc_after = read_proc(session.pid());
      const StatsMap after = session.stats();
      const int status = session.quit();
      result.add_problems(drove.problems);
      if (drove.failed() > 0) result.problems.push_back("failed replies in the serve probe");
      if (status != 0) {
        result.problems.push_back("fhc_serve exited with " + std::to_string(status) +
                                  " after QUIT");
      }
      result.add_info("probe_daemon_exit_status", static_cast<double>(status));
      add_daemon_layer_metrics(result, before, after, proc_before, proc_after,
                               percentile(drove.latencies_ms, 0.5), drove.predictions);
    }
    ProbeInputs probe;
    probe.corpus = &data.corpus;
    probe.train = &train;
    probe.train_labels = &data.train_labels;
    probe.class_names = data.model_class_names;
    probe.config = config.classifier;
    probe.model_file = model_file;
    probe.seed = options.seed;
    for (std::size_t i = 0; i < std::min(kProbeQueries, samples.size()); ++i) {
      probe.queries.push_back(test[samples[i]]);
    }
    run_layer_probes(probe, tracer, result);
  }
  return result;
}

}  // namespace perfbench
