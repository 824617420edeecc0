// serve and live_mixed: the HTTP daemon over the synthetic person
// corpus with the pinned rule, driven open-loop from one generator
// thread. serve runs no gp/eval work and no full join; live_mixed is
// the same read path with /upsert and /delete traffic beside it.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/matcher_index.h"
#include "datasets/synthetic.h"
#include "io/artifact.h"
#include "io/csv.h"
#include "io/link_io.h"
#include "live/live_corpus.h"
#include "loadgen.h"
#include "matcher/blocking.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/serving_state.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace genlink;

namespace {

/// Distinct query entities (drawn from the source side).
constexpr size_t kQueryPool = 2000;
/// Daemon connection handlers; the generator's one thread and its two
/// connections complete the 4-core budget.
constexpr size_t kWorkers = 2;
constexpr size_t kConnections = 2;
/// Offered /match rate of the reference windows, where p50_ms and the
/// window p95/p99 are measured: about a quarter of the daemon's
/// capacity on a 4-core x86 host, so latency is mostly service time.
constexpr double kReferenceRate = 1000.0;
/// The latency limit of the rate ladder: a rate is sustained when its
/// p99 stays at or below this with no growing backlog and no failure.
constexpr double kP99LimitMs = 10.0;
constexpr std::array<double, 8> kLadder = {500,  1000, 1500, 2000,
                                           2500, 3000, 3500, 4000};
/// Requests per ladder step: the fewest that support a p99.
constexpr size_t kLadderRequests = 1000;
/// Requests per reference window: the fewest that support a p99.
constexpr size_t kTailWindow = 1000;
/// One serve round: a reference window (~1 s) and a closed-loop batch.
constexpr double kServeRoundSeconds = 1.7;
constexpr int kSetupRepeats = 11;
/// Requests replayed through the handler layers in a traced run.
constexpr size_t kReplayRequests = 1000;
/// Warm-up reads before any measured phase.
constexpr size_t kWarmupRequests = 300;
/// Unanswered requests fail this long after their phase's last due
/// time.
constexpr double kDrainSeconds = 5.0;

// live_mixed: writes at a fixed share (about 11%) of the requests.
constexpr double kWriteRate = 120.0;  // requests per second beside reads
constexpr size_t kOpsPerWrite = 4;
/// Auto-compaction after this many delta log entries. A mixed window
/// (~120 writes, ~380 upserted entries) and a write batch each cross it
/// once, so every round compacts beside reads and inside the batch.
constexpr size_t kCompactThreshold = 300;
/// Write requests per closed-loop batch.
constexpr size_t kBatchWrites = 120;
/// One live_mixed round: a mixed window (~1 s) and a write batch.
constexpr double kLiveRoundSeconds = 1.3;
constexpr int kMinLiveRounds = 10;
/// ApplyBatch calls timed in-process in a traced run.
constexpr size_t kApplyReplay = 1000;
/// Queries checked against a fresh build at the end of live_mixed.
constexpr size_t kVerifySample = 500;

std::string LinksBody(const std::vector<GeneratedLink>& links) {
  std::string body(kGeneratedLinksCsvHeader);
  for (const GeneratedLink& link : links) body += GeneratedLinkCsvRow(link);
  return body;
}

ServeOptions DaemonOptions() {
  ServeOptions options;
  options.num_workers = kWorkers;
  options.csv.id_column = "id";
  return options;
}

/// The corpus, the query pool and its expected answers, shared by both
/// workloads.
struct ServeInputs {
  SyntheticConfig config;
  MatchingTask person;
  LinkageRule rule;
  /// Pool query i: its /match request bytes, the entity the daemon
  /// decodes from them, and the expected response body.
  std::vector<std::string> requests;
  std::vector<Entity> entities;
  Schema schema;
  std::vector<std::vector<GeneratedLink>> expected_links;
  std::vector<std::string> expected_bodies;
};

ServeInputs MakeInputs(uint64_t seed, WorkloadResult& result) {
  ServeInputs in;
  in.config.num_entities = kPersonEntities;
  in.config.num_threads = kThreads;
  in.config.seed = seed * 101 + 5;
  in.person = GenerateSynthetic(in.config);
  in.rule = PinnedRule();
  result.fingerprints.emplace_back("synthetic", FingerprintTask(in.person));

  std::vector<size_t> order(in.person.a.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed * 7919 + 1);
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(std::min(kQueryPool, order.size()));

  // Expected answers from an index of our own, built before the daemon
  // exists.
  MatchOptions options;
  options.num_threads = kThreads;
  const auto reference = MatcherIndex::Build(in.person.b, in.rule, options);
  const std::string header = CsvHeader(in.person.a.schema());
  CsvDatasetOptions csv;
  csv.id_column = "id";
  for (size_t index : order) {
    const std::string body =
        header + CsvRow(in.person.a.entity(index), in.person.a.schema());
    std::istringstream stream_in{body};
    CsvEntityStream stream(stream_in, csv);
    Entity entity;
    if (!stream.Next(&entity) || !stream.status().ok()) {
      result.Fail("query CSV does not decode: " + body);
      continue;
    }
    in.schema = stream.schema();
    std::vector<GeneratedLink> links =
        reference->MatchBatch(std::span<const Entity>(&entity, 1), in.schema);
    in.expected_bodies.push_back(LinksBody(links));
    in.expected_links.push_back(std::move(links));
    in.requests.push_back(HttpPost("/match", body));
    in.entities.push_back(std::move(entity));
  }
  return in;
}

/// A running daemon over its serving state.
struct Deployment {
  std::unique_ptr<ServingState> state;
  std::unique_ptr<ServeDaemon> daemon;

  void Stop() {
    if (daemon != nullptr) {
      daemon->RequestShutdown();
      daemon->WaitForDrain();
    }
    daemon.reset();
    state.reset();
  }
};

/// Medians of kSetupRepeats set-ups.
struct SetupTimes {
  double ready_s = 0.0;  // state + deploy + start until /healthz is 200
  double build_s = 0.0;  // state + deploy alone
};

/// Builds the serving state, deploys the rule, starts the daemon and
/// waits for the first 200 from /healthz: the time until a user can
/// send queries. Repeated kSetupRepeats times; keeps the last
/// deployment running in `out`.
SetupTimes SetUp(const ServeInputs& in, std::optional<LiveCorpusOptions> live,
                 Tracer& tracer, Deployment* out, WorkloadResult& result) {
  std::vector<double> seconds;
  std::vector<double> build_seconds;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    out->Stop();
    const int64_t start = NowNs();
    {
      ScopedSpan span(tracer, "api.build");
      out->state = std::make_unique<ServingState>(in.person.b, kWorkers, live);
      RuleArtifact artifact;
      artifact.name = "perfbench-pinned";
      artifact.rule = in.rule.Clone();
      if (const Status status = out->state->Deploy(artifact); !status.ok()) {
        result.Fail("deploy failed: " + status.ToString());
        return {};
      }
    }
    build_seconds.push_back(SecondsSince(start));
    {
      ScopedSpan span(tracer, "serve.start");
      out->daemon = std::make_unique<ServeDaemon>(*out->state, DaemonOptions());
      if (const Status status = out->daemon->Start(); !status.ok()) {
        result.Fail("daemon start failed: " + status.ToString());
        out->daemon.reset();
        return {};
      }
      bool healthy = false;
      for (int attempt = 0; attempt < 5000 && !healthy; ++attempt) {
        auto response = HttpCall(out->daemon->port(), "GET", "/healthz");
        healthy = response.ok() && response->status == 200;
        if (!healthy) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!healthy) {
        result.Fail("daemon never answered /healthz");
        return {};
      }
    }
    seconds.push_back(SecondsSince(start));
  }
  return {Median(seconds), Median(build_seconds)};
}

/// Counts of one open-loop phase, over the arrivals selected by `pick`.
struct PhaseCounts {
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;
  std::vector<double> latency_ms;  // answered correctly, in due order
  std::vector<double> late_ms;

  void Add(const PhaseCounts& other);
};

void PhaseCounts::Add(const PhaseCounts& other) {
  sent += other.sent;
  ok += other.ok;
  failed += other.failed;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
}

template <typename Pick>
PhaseCounts Count(const std::vector<Completion>& done, const Pick& pick) {
  PhaseCounts counts;
  for (size_t i = 0; i < done.size(); ++i) {
    if (!pick(i)) continue;
    ++counts.sent;
    counts.late_ms.push_back(done[i].late_ms);
    if (done[i].status == 200 && done[i].body_ok) {
      ++counts.ok;
      counts.latency_ms.push_back(done[i].latency_ms);
    } else {
      ++counts.failed;
    }
  }
  return counts;
}

void Tally(const PhaseCounts& counts, WorkloadResult& result) {
  result.attempted += counts.sent;
  result.failed += counts.failed;
}

/// Exactly `n` open-loop /match arrivals over the query pool at `rate`
/// (a Poisson schedule cut to length), so every window supports its
/// percentiles.
std::vector<Arrival> ReadWindow(double rate, size_t n, uint64_t seed,
                                size_t pool) {
  std::vector<Arrival> schedule =
      PoissonSchedule(rate, 2.0 * static_cast<double>(n) / rate, seed);
  schedule.resize(std::min(schedule.size(), n));
  std::mt19937_64 rng(seed ^ 0x5eed);
  for (Arrival& arrival : schedule) {
    arrival.payload = static_cast<uint32_t>(rng() % pool);
  }
  return schedule;
}

/// Rounds that fit `seconds` at `round_seconds` each, at least three so
/// a median over rounds can reject one bad round.
int RoundsFor(double seconds, double round_seconds) {
  return std::max(3, static_cast<int>(seconds / round_seconds));
}

/// Client-side spans for every answered request of a phase.
void TraceRequests(Tracer& tracer, const std::vector<Completion>& done,
                   uint64_t first_request_id) {
  if (!tracer.enabled()) return;
  for (size_t i = 0; i < done.size(); ++i) {
    tracer.Add("loadgen.request", done[i].due_abs_ns,
               done[i].due_abs_ns +
                   static_cast<int64_t>(done[i].latency_ms * 1e6),
               -1, first_request_id + i);
  }
}

double P(const std::vector<double>& samples, double p) {
  return Percentile(samples, p).value_or(0.0);
}

/// "a,b,c" of `values`, for report lines.
std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : ",") + Fmt(v);
  return out;
}

std::string CountsLine(const char* phase, double rate,
                       const PhaseCounts& counts) {
  return std::string(phase) + " rate=" + Fmt(rate) +
         " sent=" + std::to_string(counts.sent) +
         " ok=" + std::to_string(counts.ok) +
         " failed=" + std::to_string(counts.failed) +
         " p50_ms=" + Fmt(P(counts.latency_ms, 50)) +
         " p99_ms=" + Fmt(P(counts.latency_ms, 99)) +
         " late_p99_ms=" + Fmt(P(counts.late_ms, 99));
}

/// Per-stage timings of requests replayed through the handler layers
/// in-process: the same public calls ServeDaemon::HandleMatch makes,
/// each under its own span.
struct StageTimes {
  std::vector<double> parse_us;
  std::vector<double> decode_us;
  std::vector<double> snapshot_us;
  std::vector<double> match_us;
  std::vector<double> probe_us;
  std::vector<double> score_us;
  std::vector<double> encode_us;
  double candidates = 0.0;
  double links = 0.0;
  size_t requests = 0;

  double SumP50() const {
    return P(parse_us, 50) + P(decode_us, 50) + P(snapshot_us, 50) +
           P(match_us, 50) + P(encode_us, 50);
  }
};

/// Replays kReplayRequests pool queries. `live` selects the live corpus
/// as the matcher (else the state's immutable index). Returns false
/// when a serialized response does not carry its links body, or a
/// replayed answer differs from `expected` (when non-null).
bool Replay(const ServeInputs& in, const ServingState& state, bool live,
            const BlockingIndex& blocking, Tracer& tracer,
            uint64_t first_request_id, StageTimes* times,
            const std::vector<std::string>* expected) {
  bool all_equal = true;
  CsvDatasetOptions csv;
  csv.id_column = "id";
  const auto micros = [](int64_t from) {
    return static_cast<double>(NowNs() - from) * 1e-3;
  };
  for (size_t r = 0; r < kReplayRequests; ++r) {
    const size_t q = r % in.requests.size();
    const uint64_t id = first_request_id + r;
    const int64_t root = tracer.Begin("bench.request", -1, id);

    int64_t t = NowNs();
    int64_t span = tracer.Begin("serve.http_parse", root, id);
    HttpRequestParser parser(8192, 4 << 20);
    parser.Consume(in.requests[q]);
    tracer.End(span);
    times->parse_us.push_back(micros(t));

    t = NowNs();
    span = tracer.Begin("io.csv_decode", root, id);
    std::istringstream body{parser.request().body};
    CsvEntityStream stream(body, csv);
    std::vector<Entity> entities;
    Entity entity;
    while (stream.Next(&entity)) entities.push_back(std::move(entity));
    tracer.End(span);
    times->decode_us.push_back(micros(t));

    t = NowNs();
    span = tracer.Begin("serve.snapshot", root, id);
    const std::shared_ptr<LiveCorpus> corpus = live ? state.live() : nullptr;
    const std::shared_ptr<const MatcherIndex> index =
        live ? nullptr : state.index();
    tracer.End(span);
    times->snapshot_us.push_back(micros(t));

    t = NowNs();
    span = tracer.Begin(live ? "live.match" : "api.match", root, id);
    const std::vector<GeneratedLink> links =
        live ? corpus->MatchBatch(entities, stream.schema())
             : index->MatchBatch(entities, stream.schema());
    tracer.End(span);
    times->match_us.push_back(micros(t));

    t = NowNs();
    span = tracer.Begin("serve.encode", root, id);
    HttpResponse response;
    response.content_type = "text/csv";
    response.body = LinksBody(links);
    const std::string wire = SerializeHttpResponse(response);
    tracer.End(span);
    times->encode_us.push_back(micros(t));
    tracer.End(root);

    if (!wire.ends_with(response.body) ||
        (expected != nullptr && response.body != (*expected)[q])) {
      all_equal = false;
    }

    // Candidate generation alone, on a blocking index built with the
    // serving index's options: the probe share of the match.
    t = NowNs();
    span = tracer.Begin("matcher.probe", -1, id);
    size_t candidates = 0;
    for (const Entity& e : entities) {
      candidates += blocking.Candidates(e, stream.schema()).size();
    }
    tracer.End(span);
    const double probe = micros(t);
    times->probe_us.push_back(probe);
    times->score_us.push_back(std::max(0.0, times->match_us.back() - probe));
    times->candidates += static_cast<double>(candidates);
    times->links += static_cast<double>(links.size());
    ++times->requests;
  }
  return all_equal;
}

void StageLayers(const StageTimes& times, const char* match_name,
                 WorkloadResult& result) {
  auto& layers = result.layers;
  const auto both = [&](const std::string& name,
                        const std::vector<double>& samples) {
    layers[name + ".p50"] = P(samples, 50);
    layers[name + ".p99"] = P(samples, 99);
  };
  both("serve.http_parse_us", times.parse_us);
  both("io.csv_decode_us", times.decode_us);
  both("serve.snapshot_us", times.snapshot_us);
  both(match_name, times.match_us);
  both("matcher.probe_us", times.probe_us);
  both("api.score_us", times.score_us);
  both("serve.encode_us", times.encode_us);
  const double n = std::max<double>(1.0, static_cast<double>(times.requests));
  layers["matcher.candidates_per_query"] = times.candidates / n;
  layers["api.links_per_query"] = times.links / n;
}

/// F1 of the answers to the pool queries against the generated ground
/// truth. With `touched`, queries whose true counterpart the deltas
/// touched are skipped, and so are links to touched or new entities:
/// the score covers the part of the corpus the deltas left as it was.
double Quality(const ServeInputs& in,
               const std::vector<std::vector<GeneratedLink>>& answers,
               const std::unordered_set<std::string>* touched) {
  std::unordered_set<std::string> skipped;
  if (touched != nullptr) {
    for (const ReferenceLink& link : in.person.links.positives()) {
      if (touched->count(link.id_b) != 0) skipped.insert(link.id_a);
    }
  }
  std::unordered_set<std::string> queried;
  std::vector<GeneratedLink> emitted;
  for (size_t q = 0; q < answers.size(); ++q) {
    if (skipped.count(in.entities[q].id()) != 0) continue;
    queried.insert(in.entities[q].id());
    for (const GeneratedLink& link : answers[q]) {
      if (touched == nullptr || touched->count(link.id_b) == 0) {
        emitted.push_back(link);
      }
    }
  }
  std::vector<ReferenceLink> truth;
  for (const ReferenceLink& link : in.person.links.positives()) {
    if (queried.count(link.id_a) != 0) truth.push_back(link);
  }
  return ScoreLinks(emitted, truth).F1();
}

}  // namespace

WorkloadResult RunServe(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  ResetPeakRss();
  const ServeInputs in = MakeInputs(config.seed, result);
  if (!result.correct) return result;

  Deployment deployment;
  const SetupTimes setup = SetUp(in, std::nullopt, tracer, &deployment, result);
  if (!result.correct) {
    deployment.Stop();
    return result;
  }
  const uint16_t port = deployment.daemon->port();
  std::vector<Arrival> schedule;
  const BodyCheck match_check = [&](size_t index, int status,
                                    std::string_view body) {
    return status == 200 &&
           body == in.expected_bodies[schedule[index].payload];
  };
  std::vector<uint32_t> pool_order(in.requests.size());
  for (size_t i = 0; i < pool_order.size(); ++i) {
    pool_order[i] = static_cast<uint32_t>(i);
  }
  const BodyCheck batch_check = [&](size_t index, int status,
                                    std::string_view body) {
    return status == 200 && body == in.expected_bodies[pool_order[index]];
  };

  schedule = ReadWindow(kReferenceRate, kWarmupRequests, config.seed + 11,
                        in.requests.size());
  Tally(Count(RunOpenLoop(port, kConnections, schedule, in.requests,
                          match_check, kDrainSeconds),
              [](size_t) { return true; }),
        result);

  // Rounds of one reference window (kTailWindow requests open-loop at
  // kReferenceRate) and one closed-loop batch (the whole pool, one
  // request in flight per connection). Each end-to-end figure is the
  // lower quartile over rounds (stats.h LowerQuartile).
  const int rounds = RoundsFor(0.6 * config.seconds, kServeRoundSeconds);
  std::vector<double> window_p50;
  std::vector<double> window_p95;
  std::vector<double> window_p99;
  std::vector<double> batch_seconds;
  PhaseCounts reference;
  uint64_t request_id = 1;
  for (int round = 0; round < rounds; ++round) {
    schedule = ReadWindow(kReferenceRate, kTailWindow,
                          config.seed * 1009 + round, in.requests.size());
    const std::vector<Completion> done = RunOpenLoop(
        port, kConnections, schedule, in.requests, match_check, kDrainSeconds);
    TraceRequests(tracer, done, request_id);
    request_id += done.size();
    const PhaseCounts counts = Count(done, [](size_t) { return true; });
    Tally(counts, result);
    window_p50.push_back(P(counts.latency_ms, 50));
    window_p95.push_back(P(counts.latency_ms, 95));
    window_p99.push_back(P(counts.latency_ms, 99));
    reference.Add(counts);

    std::vector<Completion> batch;
    batch_seconds.push_back(RunClosedLoop(port, kConnections, pool_order,
                                          in.requests, batch_check, &batch));
    Tally(Count(batch, [](size_t) { return true; }), result);
  }
  result.report.push_back(
      CountsLine("serve reference", kReferenceRate, reference));
  result.report.push_back("serve rounds: p50_ms=" + Join(window_p50) +
                          " p95_ms=" + Join(window_p95) +
                          " p99_ms=" + Join(window_p99) +
                          " batch_s=" + Join(batch_seconds));

  // Rate ladder: fixed rates, ascending, until one misses the limit.
  std::vector<RateStep> steps;
  double late_p99 = P(reference.late_ms, 99);
  for (size_t s = 0; s < kLadder.size(); ++s) {
    const double rate = kLadder[s];
    schedule = ReadWindow(rate, kLadderRequests, config.seed * 31 + s,
                          in.requests.size());
    const std::vector<Completion> done = RunOpenLoop(
        port, kConnections, schedule, in.requests, match_check, kDrainSeconds);
    const PhaseCounts counts = Count(done, [](size_t) { return true; });
    Tally(counts, result);
    late_p99 = std::max(late_p99, P(counts.late_ms, 99));
    RateStep step;
    step.rate = rate;
    step.sent = counts.sent;
    step.ok = counts.ok;
    step.failed = counts.failed;
    step.latency_ms = counts.latency_ms;
    const bool meets = StepMeetsLimit(step, kP99LimitMs);
    result.report.push_back(CountsLine("serve ladder", rate, counts) +
                            (meets ? " meets" : " misses"));
    steps.push_back(std::move(step));
    if (!meets) break;
  }
  const double max_rps = MaxRate(steps, kP99LimitMs);

  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) +
                " requests failed or answered wrong bytes");
  }
  result.end_to_end["setup_s"] = setup.ready_s;
  result.end_to_end["p50_ms"] = LowerQuartile(window_p50);
  result.end_to_end["batch_s"] = LowerQuartile(batch_seconds);
  result.end_to_end["quality"] = Quality(in, in.expected_links, nullptr);
  result.report.push_back(
      "serve: match_p50_ms=" + Fmt(result.end_to_end["p50_ms"]) +
      " match_p95_ms=" + Fmt(LowerQuartile(window_p95)) +
      " match_p99_ms=" + Fmt(LowerQuartile(window_p99)) +
      " windows=" + std::to_string(rounds) + "x" +
      std::to_string(kTailWindow) + " max_rps=" + Fmt(max_rps) +
      " p99_limit_ms=" + Fmt(kP99LimitMs) + " fail_frac=" +
      Fmt(static_cast<double>(result.failed) /
          static_cast<double>(std::max<uint64_t>(result.attempted, 1))) +
      " late_p99_ms=" + Fmt(late_p99));

  if (tracer.enabled()) {
    TokenBlockingIndex blocking(in.person.b, TargetProperties(in.rule));
    StageTimes times;
    if (!Replay(in, *deployment.state, false, blocking, tracer, request_id,
                &times, &in.expected_bodies)) {
      result.Fail("replayed answers differ from the expected bytes");
    }
    StageLayers(times, "api.match_us", result);
    // Client latency at the lowest offered rate, less the handler
    // layers: socket time plus queue wait.
    const double client_us =
        steps.empty() ? 0.0 : P(steps.front().latency_ms, 50) * 1e3;
    auto& layers = result.layers;
    layers["serve.transport_queue_us"] = client_us - times.SumP50();
    layers["stage_coverage"] =
        client_us > 0.0 ? times.SumP50() / client_us : 0.0;
    const ServeCounters& counters = deployment.daemon->counters();
    layers["serve.shed"] = static_cast<double>(counters.shed.load());
    layers["serve.deadline_hits"] =
        static_cast<double>(counters.deadline_hits.load());
    layers["serve.max_rps"] = max_rps;
    layers["serve.match_p95_ms"] = LowerQuartile(window_p95);
    layers["serve.match_p99_ms"] = LowerQuartile(window_p99);
    layers["api.build_s"] = setup.build_s;
    layers["loadgen.late_p99_ms"] = late_p99;
    const MatcherIndexStats stats = deployment.state->index()->stats();
    layers["api.store_bytes"] = static_cast<double>(stats.store_bytes);
    layers["matcher.blocking_postings"] =
        static_cast<double>(stats.blocking_postings);
    AddLayerTotals(tracer, result);
  }
  deployment.Stop();
  result.end_to_end["peak_rss_mb"] = PeakRssMb();
  return result;
}

WorkloadResult RunLiveMixed(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  ResetPeakRss();
  const ServeInputs in = MakeInputs(config.seed, result);
  if (!result.correct) return result;

  // The delta stream, cut into write requests of up to kOpsPerWrite
  // consecutive ops of one kind, in stream order.
  SyntheticDeltaConfig delta_config;
  delta_config.base = in.config;
  delta_config.seed = config.seed * 101 + 6;
  // At least kMinLiveRounds: enough writes (~120 a round) for a write
  // p99 even in the traced half of a run.
  const int rounds = std::max(
      kMinLiveRounds, RoundsFor(0.85 * config.seconds, kLiveRoundSeconds));
  // Per round: the writes due within one reference window (Poisson;
  // twice the mean leaves room) and one batch; then the traced replay.
  const size_t writes_needed =
      static_cast<size_t>(rounds) *
          (static_cast<size_t>(2.0 * kWriteRate * kTailWindow /
                               kReferenceRate) +
           kBatchWrites) +
      kApplyReplay + 64;
  delta_config.num_deltas = writes_needed * kOpsPerWrite;
  const SyntheticDeltas deltas = GenerateSyntheticDeltas(delta_config);
  result.fingerprints.emplace_back("deltas", FingerprintDeltas(deltas));

  std::vector<std::string> write_requests;
  std::vector<std::vector<LiveOp>> write_ops;
  std::unordered_set<std::string> touched;
  {
    const std::string header = CsvHeader(deltas.schema);
    size_t i = 0;
    while (i < deltas.ops.size()) {
      const bool remove = deltas.ops[i].remove;
      std::string body = remove ? std::string() : header;
      std::vector<LiveOp> ops;
      for (size_t k = 0; k < kOpsPerWrite && i < deltas.ops.size() &&
                         deltas.ops[i].remove == remove;
           ++k, ++i) {
        const Entity& entity = deltas.ops[i].entity;
        touched.insert(entity.id());
        LiveOp op;
        if (remove) {
          op.kind = LiveOp::Kind::kRemove;
          op.id = entity.id();
          body += entity.id() + "\n";
        } else {
          op.entity = entity;
          body += CsvRow(entity, deltas.schema);
        }
        ops.push_back(std::move(op));
      }
      write_requests.push_back(HttpPost(remove ? "/delete" : "/upsert", body));
      write_ops.push_back(std::move(ops));
    }
  }

  LiveCorpusOptions live_options;
  live_options.compact_delta_threshold = kCompactThreshold;
  Deployment deployment;
  const SetupTimes setup = SetUp(in, live_options, tracer, &deployment, result);
  if (!result.correct) {
    deployment.Stop();
    return result;
  }
  const uint16_t port = deployment.daemon->port();

  // Payload table: pool reads first, then every write request.
  std::vector<std::string> payloads = in.requests;
  const size_t first_write = payloads.size();
  payloads.insert(payloads.end(), write_requests.begin(), write_requests.end());
  size_t next_write = 0;
  const auto is_write = [&](uint32_t payload) { return payload >= first_write; };
  std::vector<Arrival> schedule;
  const BodyCheck check = [&](size_t index, int status, std::string_view body) {
    if (status != 200) return false;
    const uint32_t payload = schedule[index].payload;
    if (!is_write(payload)) return body.starts_with(kGeneratedLinksCsvHeader);
    return body.starts_with(payloads[payload].starts_with("POST /delete")
                                ? "deleted "
                                : "upserted ");
  };
  // Reads and ordered writes merged into one due-time schedule.
  // One window of reads (exactly kTailWindow, open-loop) with the
  // writes due in the same span merged in by due time.
  const auto mixed_schedule = [&](size_t reads_count, uint64_t seed) {
    std::vector<Arrival> reads =
        ReadWindow(kReferenceRate, reads_count, seed, in.requests.size());
    const double span_s =
        reads.empty() ? 0.0 : static_cast<double>(reads.back().due_ns) * 1e-9;
    for (Arrival write : PoissonSchedule(kWriteRate, span_s, seed + 1)) {
      if (next_write >= write_requests.size()) break;
      write.payload = static_cast<uint32_t>(first_write + next_write++);
      write.ordered = true;
      reads.push_back(write);
    }
    std::stable_sort(reads.begin(), reads.end(),
                     [](const Arrival& x, const Arrival& y) {
                       return x.due_ns < y.due_ns;
                     });
    return reads;
  };

  schedule = mixed_schedule(kWarmupRequests, config.seed + 21);
  Tally(Count(RunOpenLoop(port, kConnections, schedule, payloads, check,
                          kDrainSeconds),
              [](size_t) { return true; }),
        result);

  // Rounds of one mixed window (reads with writes beside them,
  // auto-compacting as the delta log fills) and one closed-loop write
  // batch: kBatchWrites write requests then /compact, on one connection
  // so they apply in order, started from an empty delta log by an
  // untimed /compact. Figures are lower quartiles over rounds.
  const std::string compact_request = HttpPost("/compact", "");
  std::vector<double> window_p50;
  std::vector<double> window_p95;
  std::vector<double> window_p99;
  std::vector<double> batch_seconds;
  PhaseCounts reads;
  PhaseCounts writes;
  // The live corpus at the end of each mixed window, before the batch's
  // compaction empties the delta log.
  std::vector<LiveCorpusStats> window_stats;
  uint64_t request_id = 1;
  for (int round = 0; round < rounds; ++round) {
    schedule = mixed_schedule(kTailWindow, config.seed * 1009 + round);
    const std::vector<Completion> done = RunOpenLoop(
        port, kConnections, schedule, payloads, check, kDrainSeconds);
    TraceRequests(tracer, done, request_id);
    request_id += done.size();
    const PhaseCounts window_reads = Count(
        done, [&](size_t i) { return !is_write(schedule[i].payload); });
    const PhaseCounts window_writes = Count(
        done, [&](size_t i) { return is_write(schedule[i].payload); });
    Tally(window_reads, result);
    Tally(window_writes, result);
    window_p50.push_back(P(window_reads.latency_ms, 50));
    window_p95.push_back(P(window_reads.latency_ms, 95));
    window_p99.push_back(P(window_reads.latency_ms, 99));
    reads.Add(window_reads);
    writes.Add(window_writes);
    window_stats.push_back(deployment.state->live()->stats());

    ++result.attempted;
    auto compacted = HttpCall(port, "POST", "/compact");
    if (!compacted.ok() || compacted->status != 200) {
      ++result.failed;
      result.Fail("POST /compact failed before a write batch");
      break;
    }
    std::vector<std::string> batch;
    for (size_t k = 0; k < kBatchWrites && next_write < write_requests.size();
         ++k) {
      batch.push_back(write_requests[next_write++]);
    }
    batch.push_back(compact_request);
    std::vector<uint32_t> order(batch.size());
    for (size_t k = 0; k < order.size(); ++k) order[k] = static_cast<uint32_t>(k);
    std::vector<Completion> batch_done;
    batch_seconds.push_back(RunClosedLoop(
        port, 1, order, batch,
        [&](size_t, int status, std::string_view body) {
          return status == 200 &&
                 (body.starts_with("upserted ") ||
                  body.starts_with("deleted ") ||
                  body.starts_with("compacted "));
        },
        &batch_done));
    Tally(Count(batch_done, [](size_t) { return true; }), result);
  }
  result.report.push_back(CountsLine("live reads", kReferenceRate, reads));
  result.report.push_back("live rounds: p50_ms=" + Join(window_p50) +
                          " p95_ms=" + Join(window_p95) +
                          " p99_ms=" + Join(window_p99) +
                          " batch_s=" + Join(batch_seconds));
  result.report.push_back(CountsLine("live writes", kWriteRate, writes));

  // Output check: the mutated corpus answers a query sample exactly as
  // a fresh build over its logical contents.
  const std::shared_ptr<LiveCorpus> live = deployment.state->live();
  const size_t sample = std::min(kVerifySample, in.entities.size());
  const std::span<const Entity> sample_entities(in.entities.data(), sample);
  std::vector<std::vector<GeneratedLink>> live_answers;
  bool identical = true;
  {
    auto logical = live->MaterializeLogical();
    if (!logical.ok()) {
      result.Fail("MaterializeLogical failed: " + logical.status().ToString());
      identical = false;
    } else {
      MatchOptions options;
      options.num_threads = kThreads;
      const auto fresh = MatcherIndex::Build(*logical, in.rule, options);
      for (const Entity& entity : sample_entities) {
        const std::span<const Entity> one(&entity, 1);
        std::vector<GeneratedLink> answer = live->MatchBatch(one, in.schema);
        if (!SameLinks(answer, fresh->MatchBatch(one, in.schema))) {
          identical = false;
        }
        live_answers.push_back(std::move(answer));
      }
    }
    ++result.attempted;
    if (!identical) {
      ++result.failed;
      result.Fail("live corpus answers differ from a fresh build of its "
                  "logical corpus");
    }
  }
  const double quality = Quality(in, live_answers, &touched);

  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) +
                " operations failed or answered wrong");
  }
  result.end_to_end["setup_s"] = setup.ready_s;
  result.end_to_end["p50_ms"] = LowerQuartile(window_p50);
  result.end_to_end["batch_s"] = LowerQuartile(batch_seconds);
  result.end_to_end["quality"] = quality;
  const LiveCorpusStats stats = live->stats();
  result.report.push_back(
      "live_mixed: match_p50_ms=" + Fmt(result.end_to_end["p50_ms"]) +
      " match_p95_ms=" + Fmt(LowerQuartile(window_p95)) +
      " match_p99_ms=" + Fmt(LowerQuartile(window_p99)) +
      " windows=" + std::to_string(rounds) + "x" +
      std::to_string(kTailWindow) +
      " write_p50_ms=" + Fmt(P(writes.latency_ms, 50)) +
      " write_p99_ms=" + Fmt(P(writes.latency_ms, 99)) +
      " write_samples=" + std::to_string(writes.latency_ms.size()) +
      " compactions=" + std::to_string(stats.compactions) +
      " epoch=" + std::to_string(stats.epoch) + " fail_frac=" +
      Fmt(static_cast<double>(result.failed) /
          static_cast<double>(std::max<uint64_t>(result.attempted, 1))));

  if (tracer.enabled()) {
    auto& layers = result.layers;
    layers["serve.match_p95_ms"] = LowerQuartile(window_p95);
    layers["serve.match_p99_ms"] = LowerQuartile(window_p99);
    layers["live.write_p50_ms"] = P(writes.latency_ms, 50);
    layers["live.write_p99_ms"] = P(writes.latency_ms, 99);
    layers["api.build_s"] = setup.build_s;
    layers["loadgen.late_p99_ms"] =
        std::max(P(reads.late_ms, 99), P(writes.late_ms, 99));
    layers["serve.shed"] =
        static_cast<double>(deployment.daemon->counters().shed.load());
    layers["serve.deadline_hits"] =
        static_cast<double>(deployment.daemon->counters().deadline_hits.load());

    // Reads replayed through the live corpus, and the same queries
    // against an immutable index over the base corpus.
    TokenBlockingIndex blocking(in.person.b, TargetProperties(in.rule));
    StageTimes live_times;
    if (!Replay(in, *deployment.state, true, blocking, tracer, 1u << 30,
                &live_times, nullptr)) {
      result.Fail("a replayed response does not carry its links body");
    }
    StageLayers(live_times, "live.match_us", result);
    MatchOptions options;
    options.num_threads = kWorkers;
    const auto base = MatcherIndex::Build(in.person.b, in.rule, options);
    std::vector<double> base_us;
    for (size_t r = 0; r < kReplayRequests; ++r) {
      const Entity& entity = in.entities[r % in.entities.size()];
      ScopedSpan span(tracer, "api.match");
      const int64_t t = NowNs();
      base->MatchBatch(std::span<const Entity>(&entity, 1), in.schema);
      base_us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
    }
    layers["api.match_us.p50"] = P(base_us, 50);
    layers["api.match_us.p99"] = P(base_us, 99);
    layers["live.read_overhead"] =
        P(base_us, 50) > 0.0 ? P(live_times.match_us, 50) / P(base_us, 50)
                             : 0.0;
    const double client_us = P(reads.latency_ms, 50) * 1e3;
    layers["serve.transport_queue_us"] = client_us - live_times.SumP50();
    layers["stage_coverage"] =
        client_us > 0.0 ? live_times.SumP50() / client_us : 0.0;

    // ApplyBatch timed in-process on the rest of the stream, then one
    // timed compaction.
    std::vector<double> apply_us;
    for (size_t k = 0; k < kApplyReplay && next_write < write_ops.size(); ++k) {
      const std::vector<LiveOp>& ops = write_ops[next_write++];
      ScopedSpan span(tracer, "live.apply_batch");
      const int64_t t = NowNs();
      const Status status = live->ApplyBatch(ops, deltas.schema);
      apply_us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
      if (!status.ok()) {
        result.Fail("ApplyBatch replay failed: " + status.ToString());
        break;
      }
    }
    layers["live.apply_batch_us.p50"] = P(apply_us, 50);
    layers["live.apply_batch_us.p99"] = P(apply_us, 99);
    {
      ScopedSpan span(tracer, "live.compact");
      const int64_t t = NowNs();
      if (const Status status = live->Compact(); !status.ok()) {
        result.Fail("Compact failed: " + status.ToString());
      }
      layers["live.compact_s"] = static_cast<double>(NowNs() - t) * 1e-9;
    }
    layers["live.compactions"] = static_cast<double>(stats.compactions);
    layers["live.epochs"] = static_cast<double>(stats.epoch);
    const auto window_median = [&](auto field) {
      std::vector<double> values;
      for (const LiveCorpusStats& w : window_stats) {
        values.push_back(static_cast<double>(w.*field));
      }
      return Median(values);
    };
    layers["live.delta_entities"] =
        window_median(&LiveCorpusStats::delta_entities);
    layers["live.tombstones"] = window_median(&LiveCorpusStats::tombstones);
    layers["live.delta_store_bytes"] =
        window_median(&LiveCorpusStats::delta_store_bytes);
    AddLayerTotals(tracer, result);
  }
  deployment.Stop();
  result.end_to_end["peak_rss_mb"] = PeakRssMb();
  return result;
}

}  // namespace perfbench
