// Serving workloads: fhc_serve as a child process, driven over its Unix
// socket with CLASSIFY_DIGESTS frames from this process.
//
//   serve_saturated  2 connections x 64 in flight (4x max_batch), every
//                    request a never-seen binary: batches flush on size,
//                    row fill and forest run at capacity, the cache is only
//                    written.
//   serve_single     1 connection, 1 request in flight, never-seen binaries,
//                    each sent on the previous one's reply: a lone
//                    request's latency, max_delay wait included.
//   serve_repeat     2 connections x 64 in flight over a Zipf-drawn popular
//                    set of training binaries, cache warmed first: every
//                    request is a cache hit, scoring is bypassed.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using fhc::core::FeatureHashes;
using fhc::core::FuzzyHashClassifier;
namespace net = fhc::net;

namespace {

constexpr std::size_t kSaturatedConnections = 2;
constexpr std::size_t kSaturatedWindow = 64;  // = fhc_serve's default --pipeline-depth
constexpr std::size_t kRepeatConnections = 2;
constexpr std::size_t kRepeatWindow = 64;
constexpr std::size_t kPopular = 256;  // popular binaries of serve_repeat
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kVerifySample = 256;  // replies re-predicted in-process
constexpr std::size_t kProbeQueries = 64;
// Every connection gives up on a reply after this long, so a daemon that
// stops answering shows as transport failures instead of a hung run.
constexpr int kReplyTimeoutMs = 30000;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed) : rng_(seed) {
    double sum = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t next() {
    const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  fhc::util::Rng rng_;
  std::vector<double> cdf_;
};

net::Response response_of(const ReplyRecord& record, const std::vector<std::string>& names) {
  net::Response r;
  r.op = net::Opcode::kPrediction;
  r.label = record.label;
  r.is_unknown = record.unknown;
  r.confidence = record.confidence;
  // drive() already compared the class name with the label's.
  if (record.label >= 0 && static_cast<std::size_t>(record.label) < names.size()) {
    r.text = names[static_cast<std::size_t>(record.label)];
  }
  return r;
}

}  // namespace

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

QuerySource shared_cursor(std::shared_ptr<std::atomic<std::size_t>> cursor,
                          std::shared_ptr<const std::vector<std::uint32_t>> order) {
  return [cursor, order]() -> std::optional<std::uint32_t> {
    const std::size_t at = cursor->fetch_add(1);
    if (at >= order->size()) return std::nullopt;
    return (*order)[at];
  };
}

ServeSession::ServeSession(const RunOptions& options, const fs::path& model) {
  // A relative socket path keeps sun_path short whatever the checkout's
  // location; the daemon and this process share the working directory.
  const fs::path socket = options.work_dir / ("serve-" + std::to_string(::getpid()) + ".sock");
  fs::remove(socket);
  endpoint_.unix_path = socket.string();
  daemon_ = std::make_unique<ChildProcess>(
      options.serve_bin, std::vector<std::string>{model.string(), "--unix", socket.string()},
      (options.work_dir / "fhc_serve.log").string());
  // Polled every 100 us (BlockingClient's retries sleep whole
  // milliseconds, which would add up to 1 ms of noise to set-up time).
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  control_.set_recv_timeout(kReplyTimeoutMs);
  for (std::string error;;) {
    error = control_.connect(endpoint_);
    if (error.empty()) break;
    if (Clock::now() >= give_up) throw std::runtime_error("connect to fhc_serve: " + error);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::string frame;
  net::encode_ping(frame);
  net::Response reply;
  if (!control_.send_bytes(frame) || !control_.read_response(reply) ||
      reply.op != net::Opcode::kOk) {
    throw std::runtime_error("fhc_serve did not answer PING");
  }
}

StatsMap ServeSession::stats() {
  std::string frame;
  net::encode_stats(frame);
  net::Response reply;
  if (!control_.send_bytes(frame) || !control_.read_response(reply) ||
      reply.op != net::Opcode::kStatsText) {
    throw std::runtime_error("fhc_serve did not answer STATS");
  }
  return parse_stats(reply.text);
}

int ServeSession::quit() {
  std::string frame;
  net::encode_quit(frame);
  net::Response reply;
  const bool acked = control_.send_bytes(frame) && control_.read_response(reply) &&
                     reply.op == net::Opcode::kOk;
  control_.close();
  const int status = daemon_->wait_exit(std::chrono::seconds(30));
  return acked ? status : (status == 0 ? -1 : status);
}

DriveResult ServeSession::drive(const std::vector<std::string>& frames,
                                std::vector<QuerySource> sources, const DriveOptions& how,
                                const std::vector<std::string>& class_names) {
  std::vector<DriveResult> parts(sources.size());
  Tracer* const tracer = how.tracer;
  const std::int64_t parent = tracer != nullptr ? tracer->current() : -1;
  const bool spans = tracer != nullptr && tracer->enabled() && how.span_every > 0;
  const std::size_t window = std::max<std::size_t>(1, how.window);
  const Clock::time_point start = Clock::now();

  auto run = [&](std::size_t c) {
    DriveResult& out = parts[c];
    net::BlockingClient client;
    client.set_recv_timeout(kReplyTimeoutMs);
    const std::string error = client.connect(endpoint_, 100, 1);
    if (!error.empty()) {
      out.problems.push_back("connect: " + error);
      return;
    }
    struct InFlight {
      std::uint32_t query;
      Clock::time_point sent;
    };
    std::deque<InFlight> inflight;
    std::string batch;
    bool open = true;  // still issuing new requests
    auto fill = [&] {
      if (!open || Clock::now() >= how.deadline) {
        open = false;
        return;
      }
      const std::size_t first = inflight.size();
      batch.clear();
      while (inflight.size() < window) {
        const std::optional<std::uint32_t> q = sources[c]();
        if (!q) {
          open = false;
          break;
        }
        batch += frames[*q];
        inflight.push_back({*q, {}});
      }
      if (batch.empty()) return;
      const Clock::time_point now = Clock::now();
      for (std::size_t i = first; i < inflight.size(); ++i) inflight[i].sent = now;
      out.sent += inflight.size() - first;
      if (!client.send_bytes(batch)) open = false;
    };

    const std::size_t refill_every = std::max<std::size_t>(1, window / 8);
    std::size_t since_fill = 0;
    std::uint64_t seq = 0;
    fill();
    while (!inflight.empty()) {
      net::Response reply;
      std::string error_text;
      if (client.read_response_status(reply, &error_text) !=
          net::BlockingClient::ReadStatus::kOk) {
        out.transport += inflight.size();
        out.problems.push_back("connection " + std::to_string(c) + ": " + error_text);
        break;
      }
      const Clock::time_point now = Clock::now();
      const InFlight done = inflight.front();
      inflight.pop_front();
      out.latencies_ms.push_back(std::chrono::duration<double, std::milli>(now - done.sent).count());
      if (spans && seq % how.span_every == 0) {
        tracer->record("net.request", done.sent, now, done.query, parent);
      }
      ++seq;
      switch (reply.op) {
        case net::Opcode::kPrediction: {
          ++out.predictions;
          const std::string expected =
              reply.label >= 0 && static_cast<std::size_t>(reply.label) < class_names.size()
                  ? class_names[static_cast<std::size_t>(reply.label)]
                  : std::string();
          if (reply.text != expected) ++out.bad_names;
          if (how.record) {
            out.replies.push_back({done.query, reply.label, reply.is_unknown, reply.confidence});
          }
          break;
        }
        case net::Opcode::kBusy: ++out.busy; break;
        case net::Opcode::kDeadlineExceeded: ++out.deadline; break;
        default: ++out.errors; break;
      }
      if (++since_fill >= refill_every || inflight.empty()) {
        since_fill = 0;
        fill();
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < sources.size(); ++c) threads.emplace_back(run, c);
  for (std::thread& t : threads) t.join();

  DriveResult total;
  total.elapsed_s = since(start);
  for (DriveResult& part : parts) {
    total.sent += part.sent;
    total.predictions += part.predictions;
    total.busy += part.busy;
    total.errors += part.errors;
    total.deadline += part.deadline;
    total.transport += part.transport;
    total.bad_names += part.bad_names;
    total.latencies_ms.insert(total.latencies_ms.end(), part.latencies_ms.begin(),
                              part.latencies_ms.end());
    total.replies.insert(total.replies.end(), part.replies.begin(), part.replies.end());
    total.problems.insert(total.problems.end(), part.problems.begin(), part.problems.end());
  }
  if (total.bad_names > 0) {
    total.problems.push_back(std::to_string(total.bad_names) +
                             " PREDICTION replies carry another class name than their label's");
  }
  return total;
}

void add_daemon_layer_metrics(RunResult& result, const StatsMap& before, const StatsMap& after,
                              const ProcSample& proc_before, const ProcSample& proc_after,
                              double client_p50_ms, std::uint64_t replies) {
  auto delta = [&](const char* key) {
    const auto a = after.find(key);
    const auto b = before.find(key);
    return a != after.end() && b != before.end() ? a->second - b->second : 0.0;
  };
  const double batches = delta("batches");
  const double requests = delta("requests");
  const double daemon_p50 = after.count("p50_ms") != 0 ? after.at("p50_ms") : 0.0;
  const double n = std::max<double>(1.0, static_cast<double>(replies));
  result.per_layer.push_back(
      {"service.batch_mean", batches > 0 ? delta("scored") / batches : 0.0, "count"});
  result.per_layer.push_back({"service.latency_p50_ms", daemon_p50, "ms"});
  result.per_layer.push_back(
      {"service.cache_hit_rate", requests > 0 ? delta("cache_hits") / requests : 0.0, "ratio"});
  result.per_layer.push_back({"net.wire_ms", client_p50_ms - daemon_p50, "ms"});
  result.per_layer.push_back(
      {"serve.ctx_switches_per_req",
       static_cast<double>(proc_after.ctx_switches - proc_before.ctx_switches) / n, "count"});
  result.per_layer.push_back({"serve.threads", static_cast<double>(proc_after.threads), "count"});
}

RunResult run_serve(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  const Workload workload = options.workload;
  const bool repeat = workload == Workload::kServeRepeat;

  // ---- set-up: fhc_serve launched on the model, up to its first reply
  std::unique_ptr<ServeSession> session;
  {
    const auto span = tracer.span("setup");
    session = std::make_unique<ServeSession>(options, options.inputs.model());
  }
  const double setup_s = since(options.process_start);

  // ---- the benchmark's own inputs: requests and the in-process oracle
  const DigestRows rows =
      read_digest_rows(repeat ? options.inputs.train() : options.inputs.queries());
  std::vector<std::string> frames(rows.texts.size());
  for (std::size_t i = 0; i < rows.texts.size(); ++i) {
    net::encode_classify_digests(frames[i], rows.texts[i]);
  }
  const FuzzyHashClassifier oracle =
      FuzzyHashClassifier::load_file(options.inputs.model().string());
  const std::vector<std::string>& names = oracle.class_names();

  // ---- the run's requests, drawn by --seed
  fhc::util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<std::uint32_t> order(rows.texts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(order);
  std::vector<std::uint32_t> popular;  // serve_repeat: rank -> training row
  if (repeat) popular.assign(order.begin(), order.begin() + std::min(kPopular, order.size()));
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  auto shared_order = std::make_shared<const std::vector<std::uint32_t>>(repeat ? popular : order);

  const std::size_t connections = workload == Workload::kServeSingle
                                      ? 1
                                      : (repeat ? kRepeatConnections : kSaturatedConnections);
  DriveOptions how;
  how.window = workload == Workload::kServeSingle ? 1
               : repeat                           ? kRepeatWindow
                                                  : kSaturatedWindow;
  auto seconds_from_now = [](double seconds) {
    return Clock::now() +
           std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  };
  auto make_sources = [&](std::uint64_t round) {
    std::vector<QuerySource> sources;
    for (std::size_t c = 0; c < connections; ++c) {
      if (repeat) {
        auto zipf = std::make_shared<ZipfSampler>(popular.size(), kZipfExponent,
                                                  options.seed * 1000003 + round * 101 + c);
        sources.push_back([zipf, &popular]() -> std::optional<std::uint32_t> {
          return popular[zipf->next()];
        });
      } else {
        sources.push_back(shared_cursor(cursor, shared_order));
      }
    }
    return sources;
  };

  // ---- warm-up (untimed)
  {
    const auto span = tracer.span("warmup");
    if (repeat) {
      // Every popular binary once: the cache holds them all before timing.
      DriveOptions fill_how;
      fill_how.window = kRepeatWindow;
      DriveResult fill =
          session->drive(frames, {shared_cursor(cursor, shared_order)}, fill_how, names);
      result.add_problems(fill.problems);
    }
    DriveOptions warm_how = how;
    warm_how.deadline =
        seconds_from_now(workload == Workload::kServeSaturated ? 1.0 : 0.5);
    DriveResult warm = session->drive(frames, make_sources(1), warm_how, names);
    result.add_problems(warm.problems);
    if (warm.failed() > 0) result.problems.push_back("failed replies during warm-up");
  }

  // ---- timed phase
  const StatsMap before = session->stats();
  const ProcSample proc_before = read_proc(session->pid());
  const HostCpu host_before = read_host_cpu();
  DriveResult timed;
  {
    const auto span = tracer.span("timed");
    DriveOptions timed_how = how;
    timed_how.deadline = seconds_from_now(options.seconds);
    timed_how.record = true;
    timed_how.tracer = &tracer;
    timed_how.span_every = repeat ? 256 : 16;
    timed = session->drive(frames, make_sources(2), timed_how, names);
  }
  const ProcSample proc_after = read_proc(session->pid());
  result.add_info("host_steal_share", steal_share(host_before, read_host_cpu()));
  const StatsMap after = session->stats();
  const int exit_status = session->quit();
  result.add_problems(timed.problems);
  // An empty pool ends the timed phase early: its figures would come from
  // a shorter run, and a never-seen request could only be had by repeats.
  if (!repeat && cursor->load() >= order.size()) {
    result.problems.push_back("the pool of " + std::to_string(order.size()) +
                              " never-seen queries ran out before the timed phase ended");
  }

  result.attempted = timed.sent;
  result.failed = timed.failed();
  result.add_info("busy", static_cast<double>(timed.busy));
  result.add_info("error", static_cast<double>(timed.errors));
  result.add_info("deadline_exceeded", static_cast<double>(timed.deadline));
  result.add_info("transport_failed", static_cast<double>(timed.transport));
  result.add_info("daemon_exit_status", static_cast<double>(exit_status));
  if (exit_status != 0) {
    result.problems.push_back("fhc_serve exited with " + std::to_string(exit_status) +
                              " after QUIT");
  }

  // ---- correctness: replies against in-process predict, STATS deltas
  {
    const auto span = tracer.span("verify");
    // serve_repeat: every reply, against one prediction per popular binary;
    // otherwise a seeded sample (each reply costs a full row fill here).
    std::vector<ReplyRecord> checked = timed.replies;
    if (!repeat) {
      fhc::util::Rng pick(options.seed + 99);
      pick.shuffle(checked);
      checked.resize(std::min(checked.size(), kVerifySample));
    }
    std::vector<std::uint32_t> distinct;
    for (const ReplyRecord& r : checked) distinct.push_back(r.query);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    std::vector<fhc::core::Prediction> want(distinct.size());
    fhc::util::parallel_for(distinct.size(), [&](std::size_t i) {
      want[i] = oracle.predict(hashes_from_texts(rows.texts[distinct[i]]));
    });
    std::size_t mismatches = 0;
    for (const ReplyRecord& r : checked) {
      const auto at = std::lower_bound(distinct.begin(), distinct.end(), r.query) - distinct.begin();
      const std::string why = check_reply(response_of(r, names), want[static_cast<std::size_t>(at)], names);
      if (!why.empty() && mismatches++ == 0) {
        result.problems.push_back("reply to query " + std::to_string(r.query) + ": " + why);
      }
    }
    if (mismatches > 1) {
      result.problems.push_back(std::to_string(mismatches) + " replies differ from predict");
    }
    result.add_info("replies_verified", static_cast<double>(checked.size()));
    result.add_problems(check_serve_stats(
        workload, before, after, {timed.sent, timed.predictions, timed.deadline}));
  }

  // ---- metrics
  std::vector<double> latencies = timed.latencies_ms;
  const double p50 = percentile(latencies, 0.50);
  const double p90 = percentile(latencies, 0.90);
  const double p99 = percentile(latencies, 0.99);
  const double replies = std::max<double>(1.0, static_cast<double>(timed.predictions));
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s", static_cast<double>(timed.predictions) / timed.elapsed_s, "1/s"},
      {"latency_ms", p50, "ms"},
      {"cpu_ms_per_op", (proc_after.cpu_s - proc_before.cpu_s) * 1e3 / replies, "ms"},
      {"peak_rss_mb", proc_after.hwm_mb, "MB"},
  };
  result.add_info("latency_samples", static_cast<double>(timed.latencies_ms.size()));
  // A tail percentile is printed only with ten samples beyond it.
  if (latencies.size() >= 100) result.add_info("latency_p90_ms", p90);
  if (latencies.size() >= 1000) result.add_info("latency_p99_ms", p99);
  result.add_info("timed_s", timed.elapsed_s);

  if (tracer.enabled()) {
    add_daemon_layer_metrics(result, before, after, proc_before, proc_after, p50,
                             timed.predictions);
    DigestRows train_rows = repeat ? rows : read_digest_rows(options.inputs.train());
    std::vector<FeatureHashes> train;
    for (const auto& texts : train_rows.texts) train.push_back(hashes_from_texts(texts));
    const fhc::corpus::Corpus corpus(fhc::corpus::scaled_app_classes(1.0), kQuerySeedBase);
    ProbeInputs probe;
    probe.corpus = &corpus;
    probe.train = &train;
    probe.train_labels = &train_rows.labels;
    probe.class_names = names;
    probe.config = paper_config(kModelSeed).classifier;
    probe.model_file = options.inputs.model();
    probe.seed = options.seed;
    const std::vector<std::uint32_t>& pool = repeat ? popular : order;
    for (std::size_t i = 0; i < std::min(kProbeQueries, pool.size()); ++i) {
      probe.queries.push_back(hashes_from_texts(rows.texts[pool[i]]));
    }
    run_layer_probes(probe, tracer, result);
  }
  return result;
}

}  // namespace perfbench
