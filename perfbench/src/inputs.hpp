// Inputs of the serving workloads, made once per checkout and reused:
//
//   model.fhcb   the v2 model (the `fhc_train --binary` format) fitted on
//                the training side of the paper corpus at kModelSeed;
//   train.tsv    that training side's digests and labels;
//   queries.tsv  never-seen binaries: the same 92 classes synthesized
//                under kQueryCorpora other seeds, hashed, deduplicated and
//                stripped of anything the model was trained on.
//
// Every run draws its own requests from these by its --seed. None of this
// is timed; a run's set-up starts after it. The set is remade whenever the
// key it was made under differs: the key is a digest of the sources that
// make it (perfbench/run.py), so a change to the library or to this
// package never serves a model or queries another tree made.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/pipeline.hpp"

namespace perfbench {

inline constexpr std::uint64_t kModelSeed = 42;
inline constexpr std::uint64_t kQuerySeedBase = 7001;
// 16 corpora give 85,328 queries: a saturated run (1 s warm-up, up to 60 s
// timed) draws them without repeats at up to ~1,400 req/s, and a 15-s run
// at up to ~5,300 req/s, five times the fastest rate measured so far.
inline constexpr int kQueryCorpora = 16;

struct InputPaths {
  std::filesystem::path dir;

  std::filesystem::path model() const { return dir / "model.fhcb"; }
  std::filesystem::path train() const { return dir / "train.tsv"; }
  std::filesystem::path queries() const { return dir / "queries.tsv"; }
  std::filesystem::path ready() const { return dir / "ready"; }
};

/// The paper experiment at full scale (92 classes, 5333 samples, Table 3's
/// unknown classes pinned) for corpus seed `seed`.
fhc::core::ExperimentConfig paper_config(std::uint64_t seed);

/// Builds the inputs unless a complete set made under `key` is already there.
void prepare_inputs(const InputPaths& paths, const std::string& key, std::ostream& log);

/// Digest texts per channel, as a CLASSIFY_DIGESTS frame carries them.
std::vector<std::string> digest_texts(const fhc::core::FeatureHashes& sample);

/// The sample the daemon builds from those texts (an empty text is an
/// empty channel), so in-process predictions see exactly what it scores.
fhc::core::FeatureHashes hashes_from_texts(const std::vector<std::string>& texts);

struct DigestRows {
  std::vector<std::vector<std::string>> texts;  // per row, per channel
  std::vector<int> labels;                      // -1 for queries
};

/// Reads a `label \t digest \t digest \t digest` file.
DigestRows read_digest_rows(const std::filesystem::path& path);

}  // namespace perfbench
