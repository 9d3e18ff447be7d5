#include "inputs.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/classifier.hpp"
#include "corpus/app_spec.hpp"
#include "corpus/corpus.hpp"
#include "ssdeep/digest.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using fhc::core::FeatureHashes;

namespace {

constexpr const char* kInputsVersion = "perfbench-inputs 2 ";

std::string join(const std::vector<std::string>& texts) {
  std::string out;
  for (const std::string& text : texts) {
    out += text;
    out += '\t';
  }
  return out;
}

/// Writes rows to `path` through a sibling temp file and a rename.
void write_rows(const fs::path& path, const std::vector<std::vector<std::string>>& rows,
                const std::vector<int>& labels) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << labels[i];
      for (const std::string& text : rows[i]) out << '\t' << text;
      out << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
}

}  // namespace

fhc::core::ExperimentConfig paper_config(std::uint64_t seed) {
  fhc::core::ExperimentConfig config;
  config.seed = seed;
  config.scale = 1.0;
  config.pin_paper_unknowns = true;
  return config;
}

std::vector<std::string> digest_texts(const FeatureHashes& sample) {
  std::vector<std::string> texts;
  texts.reserve(sample.channel_count());
  for (std::size_t i = 0; i < sample.channel_count(); ++i) {
    texts.push_back(sample.channel(i).to_string());
  }
  return texts;
}

FeatureHashes hashes_from_texts(const std::vector<std::string>& texts) {
  FeatureHashes out;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    if (texts[i].empty()) continue;
    std::optional<fhc::ssdeep::FuzzyDigest> parsed = fhc::ssdeep::parse_digest(texts[i]);
    if (!parsed) throw std::runtime_error("malformed digest: " + texts[i]);
    out.set_channel(i, std::move(*parsed));
  }
  return out;
}

DigestRows read_digest_rows(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  DigestRows rows;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string field;
    if (!std::getline(fields, field, '\t')) continue;
    rows.labels.push_back(std::stoi(field));
    std::vector<std::string> texts;
    while (std::getline(fields, field, '\t')) texts.push_back(field);
    rows.texts.push_back(std::move(texts));
  }
  return rows;
}

void prepare_inputs(const InputPaths& paths, const std::string& key, std::ostream& log) {
  const std::string stamp = kInputsVersion + key;
  {
    std::ifstream ready(paths.ready());
    std::string found;
    if (ready && std::getline(ready, found) && found == stamp) return;
  }
  fs::create_directories(paths.dir);
  fs::remove(paths.ready());
  fhc::util::Stopwatch watch;

  // The served model: the paper experiment's training side at kModelSeed.
  const fhc::core::ExperimentConfig config = paper_config(kModelSeed);
  fhc::core::ExperimentData data = fhc::core::prepare_experiment(config);
  std::vector<FeatureHashes> train = data.gather_hashes(data.train_indices);
  fhc::core::FuzzyHashClassifier model;
  model.fit(train, data.train_labels, data.model_class_names, config.classifier);
  model.save_binary_file(paths.model().string());

  std::vector<std::vector<std::string>> train_rows;
  std::unordered_set<std::string> seen;
  for (const FeatureHashes& sample : train) {
    train_rows.push_back(digest_texts(sample));
    seen.insert(join(train_rows.back()));
  }
  write_rows(paths.train(), train_rows, data.train_labels);
  log << "perfbench: model fitted on " << train.size() << " samples in " << watch.seconds()
      << " s\n";

  // Never-seen queries: the same classes under other corpus seeds.
  std::vector<std::vector<std::string>> query_rows;
  for (int k = 0; k < kQueryCorpora; ++k) {
    const fhc::corpus::Corpus corp(fhc::corpus::scaled_app_classes(1.0),
                                   kQuerySeedBase + static_cast<std::uint64_t>(k));
    std::vector<FeatureHashes> hashes(corp.samples().size());
    fhc::util::parallel_for(corp.samples().size(), [&](std::size_t i) {
      hashes[i] = fhc::core::extract_feature_hashes(corp.sample_bytes(corp.samples()[i]));
    });
    for (const FeatureHashes& sample : hashes) {
      std::vector<std::string> texts = digest_texts(sample);
      if (seen.insert(join(texts)).second) query_rows.push_back(std::move(texts));
    }
  }
  write_rows(paths.queries(), query_rows, std::vector<int>(query_rows.size(), -1));
  log << "perfbench: " << query_rows.size() << " distinct queries ready after "
      << watch.seconds() << " s\n";

  std::ofstream ready(paths.ready());
  ready << stamp << '\n';
  if (!ready) throw std::runtime_error("cannot write " + paths.ready().string());
}

}  // namespace perfbench
