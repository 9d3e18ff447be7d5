// Layer probes of the traced run: single calls into each layer's public
// functions, each under a span named after the layer metric it feeds.
// Extraction and row-fill probes run on this thread alone, so their self
// times are per-call costs; the fit-side probes are the same parallel calls
// FuzzyHashClassifier::fit makes, on the same training side.
#include <algorithm>
#include <numeric>

#include "core/feature_matrix.hpp"
#include "elf/strings_extract.hpp"
#include "elf/symbols_extract.hpp"
#include "ml/class_weight.hpp"
#include "ml/random_forest.hpp"
#include "service/service.hpp"
#include "ssdeep/fuzzy_hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using fhc::core::FeatureHashes;
using fhc::core::FuzzyHashClassifier;

namespace {

constexpr std::size_t kExtractProbes = 128;
constexpr int kAttachProbes = 5;
constexpr std::size_t kSingleQueryProbes = 16;
constexpr std::size_t kForestRows = 512;
constexpr std::size_t kCodecFrames = 20000;

}  // namespace

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "corpus.synth_ms",       "elf.strings_ms",         "elf.symbols_ms",
      "ssdeep.hash_ms",        "core.index_build_s",     "core.train_rows_s",
      "ml.forest_fit_s",       "core.row_fill_us",       "core.candidates_per_row",
      "core.index_skip_rate",  "ml.forest_predict_us",   "util.model_attach_ms",
      "service.batch_mean",    "service.latency_p50_ms", "service.single_query_ms",
      "service.cache_hit_rate", "net.wire_ms",           "net.codec_us",
      "serve.ctx_switches_per_req", "serve.threads"};
  return names;
}

void run_layer_probes(const ProbeInputs& in, Tracer& tracer, RunResult& result) {
  const auto probes = tracer.span("probes");
  fhc::util::Rng rng(in.seed * 0x9e3779b97f4a7c15ULL + 0x51);

  // ---- corpus, elf, ssdeep: one sample at a time
  const auto& samples = in.corpus->samples();
  for (std::size_t k = 0; k < kExtractProbes; ++k) {
    const auto sample = tracer.span("probe.extract", k);
    const fhc::corpus::SampleRef& ref = samples[rng.next_below(samples.size())];
    std::vector<std::uint8_t> image;
    {
      const auto span = tracer.span("corpus.synth", k);
      image = in.corpus->sample_bytes(ref);
    }
    std::string strings;
    {
      const auto span = tracer.span("elf.strings", k);
      strings = fhc::elf::strings_text(image);
    }
    std::string symbols;
    {
      const auto span = tracer.span("elf.symbols", k);
      symbols = fhc::elf::global_text_symbols_text(image);
    }
    {
      const auto span = tracer.span("ssdeep.hash", k);
      static_cast<void>(fhc::ssdeep::fuzzy_hash(std::span<const std::uint8_t>(image)));
      static_cast<void>(fhc::ssdeep::fuzzy_hash(std::string_view(strings)));
      static_cast<void>(fhc::ssdeep::fuzzy_hash(std::string_view(symbols)));
    }
  }

  // ---- fit side: the three stages of FuzzyHashClassifier::fit
  const std::vector<FeatureHashes>& train = *in.train;
  const std::vector<int>& labels = *in.train_labels;
  std::unique_ptr<fhc::core::TrainIndex> index;
  {
    const auto span = tracer.span("core.index_build");
    index = std::make_unique<fhc::core::TrainIndex>(train, labels, in.class_names,
                                                    in.config.channel_set);
  }
  fhc::ml::Matrix x;
  {
    const auto span = tracer.span("core.train_rows");
    std::vector<int> exclude(train.size());
    std::iota(exclude.begin(), exclude.end(), 0);
    x = fhc::core::build_feature_matrix(*index, train, in.config.metric, exclude,
                                        in.config.channels);
  }
  {
    const auto span = tracer.span("ml.forest_fit");
    fhc::ml::RandomForest forest;
    const std::vector<double> weights = in.config.balanced_class_weights
                                            ? fhc::ml::balanced_sample_weights(labels)
                                            : std::vector<double>{};
    forest.fit(x, labels, index->n_classes(), weights, in.config.forest);
  }
  index.reset();
  x = fhc::ml::Matrix();

  // ---- model attach, row fill and forest on the model file
  std::vector<FuzzyHashClassifier> attached;
  for (int k = 0; k < kAttachProbes; ++k) {
    const auto span = tracer.span("util.model_attach", static_cast<std::uint64_t>(k));
    attached.push_back(FuzzyHashClassifier::load_file(in.model_file.string()));
  }
  const FuzzyHashClassifier& model = attached.front();
  fhc::ml::Matrix rows(in.queries.size(), model.row_width());
  fhc::core::RowFillStats fill_stats;
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    const auto span = tracer.span("core.row_fill", q);
    fhc::core::fill_feature_row(model.index(), in.queries[q], model.config().metric, -1,
                                rows.row(q), model.config().channels, &fill_stats);
  }
  fhc::ml::Matrix forest_rows(kForestRows, model.row_width());
  for (std::size_t r = 0; r < kForestRows && rows.rows() > 0; ++r) {
    const auto src = rows.row(r % rows.rows());
    std::copy(src.begin(), src.end(), forest_rows.row(r).begin());
  }
  static_cast<void>(model.forest().predict_proba_matrix(forest_rows));  // pages in the plan
  {
    const auto span = tracer.span("ml.forest_predict");
    static_cast<void>(model.forest().predict_proba_matrix(forest_rows));
  }

  // ---- service: one query at a time through a cold in-process service
  {
    fhc::service::ClassificationService service(
        FuzzyHashClassifier::load_file(in.model_file.string()));
    // One untimed query pages the model in; the timed ones are distinct
    // queries, so each still misses the result cache.
    const std::size_t timed = std::min(kSingleQueryProbes, in.queries.size() - 1);
    static_cast<void>(service.classify_batch({in.queries[timed]}));
    for (std::size_t q = 0; q < timed; ++q) {
      const auto span = tracer.span("service.single_query", q);
      static_cast<void>(service.classify_batch({in.queries[q]}));
    }
  }

  // ---- net: encode and decode one PREDICTION frame
  {
    const auto span = tracer.span("net.codec");
    std::string frame;
    fhc::net::FrameReader reader;
    fhc::net::Response decoded;
    for (std::size_t i = 0; i < kCodecFrames; ++i) {
      frame.clear();
      fhc::net::encode_prediction(frame, static_cast<std::int32_t>(i % 73), false,
                                  0.5 + static_cast<double>(i % 7) / 16.0, i, "OpenMalaria");
      reader.feed(frame);
      const std::optional<std::vector<std::uint8_t>> payload = reader.next();
      if (!payload || fhc::net::decode_response(*payload, decoded) != fhc::net::DecodeStatus::kOk ||
          decoded.label != static_cast<std::int32_t>(i % 73)) {
        result.problems.push_back("PREDICTION frame did not survive encode -> decode");
        break;
      }
    }
  }

  const std::map<std::string, SpanTotals> totals = tracer.totals();
  auto self_mean = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it != totals.end() ? it->second.self_mean_ms() : 0.0;
  };
  const double queries = std::max<double>(1.0, static_cast<double>(in.queries.size()));
  const double visited =
      static_cast<double>(fill_stats.candidates_scored + fill_stats.index_skipped);
  const double codec_ms = self_mean("net.codec");
  result.per_layer.insert(
      result.per_layer.end(),
      {
          {"corpus.synth_ms", self_mean("corpus.synth"), "ms"},
          {"elf.strings_ms", self_mean("elf.strings"), "ms"},
          {"elf.symbols_ms", self_mean("elf.symbols"), "ms"},
          {"ssdeep.hash_ms", self_mean("ssdeep.hash"), "ms"},
          {"core.index_build_s", self_mean("core.index_build") / 1e3, "s"},
          {"core.train_rows_s", self_mean("core.train_rows") / 1e3, "s"},
          {"ml.forest_fit_s", self_mean("ml.forest_fit") / 1e3, "s"},
          {"core.row_fill_us", self_mean("core.row_fill") * 1e3, "us"},
          {"core.candidates_per_row",
           static_cast<double>(fill_stats.candidates_scored) / queries, "count"},
          {"core.index_skip_rate",
           visited > 0 ? static_cast<double>(fill_stats.index_skipped) / visited : 0.0, "ratio"},
          {"ml.forest_predict_us",
           self_mean("ml.forest_predict") * 1e3 / static_cast<double>(kForestRows), "us"},
          {"util.model_attach_ms", self_mean("util.model_attach"), "ms"},
          {"service.single_query_ms", self_mean("service.single_query"), "ms"},
          {"net.codec_us", codec_ms * 1e3 / static_cast<double>(kCodecFrames), "us"},
      });
}

}  // namespace perfbench
