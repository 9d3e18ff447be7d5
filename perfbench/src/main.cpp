// fhc_perfbench — the end-to-end benchmark's driver (run it through
// perfbench/run.py, which builds it first).
//
//   fhc_perfbench prepare --data DIR --key KEY
//       makes the serving workloads' inputs (model, training digests,
//       never-seen queries) unless DIR already holds them made under KEY,
//       a digest of the sources that make them.
//   fhc_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                     --data DIR --work DIR --serve FHC_SERVE
//       runs one workload and prints, as its last stdout line, one JSON
//       object: correct, attempted, failed and the metrics (end-to-end
//       with --trace 0, per-layer with --trace 1).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void RunResult::add_info(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(10);
  out << key << '=' << value;
  info.push_back(out.str());
}

void RunResult::add_info(const std::string& key, const std::string& value) {
  info.push_back(key + '=' + value);
}

void RunResult::add_problems(const std::vector<std::string>& more) {
  problems.insert(problems.end(), more.begin(), more.end());
}

}  // namespace perfbench

namespace {

using namespace perfbench;

// Taken before main runs anything else: set-up time starts here.
const Clock::time_point g_process_start = Clock::now();

int usage() {
  std::fprintf(stderr,
               "usage: fhc_perfbench prepare --data DIR --key KEY\n"
               "       fhc_perfbench run --workload pipeline|serve_saturated|serve_single|"
               "serve_repeat --seed N --seconds S --trace 0|1 --data DIR --work DIR "
               "--serve FHC_SERVE\n");
  return 2;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  auto flag = [&](const std::string& key) -> const std::string& {
    const auto it = flags.find(key);
    if (it == flags.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  };

  try {
    if (mode == "prepare") {
      prepare_inputs(InputPaths{flag("data")}, flag("key"), std::cerr);
      return 0;
    }
    if (mode != "run") return usage();

    RunOptions options;
    const std::string workload = flag("workload");
    if (workload == "pipeline") {
      options.workload = Workload::kPipeline;
    } else if (workload == "serve_saturated") {
      options.workload = Workload::kServeSaturated;
    } else if (workload == "serve_single") {
      options.workload = Workload::kServeSingle;
    } else if (workload == "serve_repeat") {
      options.workload = Workload::kServeRepeat;
    } else {
      return usage();
    }
    options.seed = std::stoull(flag("seed"));
    options.seconds = std::stod(flag("seconds"));
    options.trace = flag("trace") == "1";
    options.inputs = InputPaths{flag("data")};
    options.work_dir = flag("work");
    options.serve_bin = flag("serve");
    options.process_start = g_process_start;
    std::filesystem::create_directories(options.work_dir);
    if (!(options.seconds > 0.0)) return usage();

    Tracer tracer(options.trace);
    RunResult result = options.workload == Workload::kPipeline ? run_pipeline(options, tracer)
                                                               : run_serve(options, tracer);

    std::cout << "workload=" << workload << "\nseed=" << options.seed
              << "\nnproc=" << std::thread::hardware_concurrency()
              << "\nbuild_type=" << PERFBENCH_BUILD_TYPE << "\nattempted=" << result.attempted
              << "\nfailed=" << result.failed << '\n';
    for (const std::string& line : result.info) std::cout << line << '\n';
    for (const Metric& m : result.end_to_end) {
      std::cout << (options.trace ? "traced." : "") << m.name << '=' << json_number(m.value)
                << ' ' << m.unit << '\n';
    }
    if (options.trace) {
      for (const std::string& name : per_layer_names()) {
        const bool present = std::any_of(result.per_layer.begin(), result.per_layer.end(),
                                         [&](const Metric& m) { return m.name == name; });
        if (!present) result.problems.push_back("per-layer metric " + name + " not measured");
      }
      const std::filesystem::path trace_file =
          options.work_dir / ("trace-" + workload + "-" + std::to_string(options.seed) + ".jsonl");
      tracer.write(trace_file);
      std::cout << "trace_file=" << trace_file.string() << '\n';
    }
    for (const std::string& problem : result.problems) {
      std::cout << "CHECK FAILED: " << problem << '\n';
    }
    std::cout << "{\"correct\": " << (result.problems.empty() ? "true" : "false")
              << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
              << ", \"metrics\": "
              << json_metrics(options.trace ? result.per_layer : result.end_to_end) << "}"
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fhc_perfbench: " << e.what() << '\n';
    return 1;
  }
}
