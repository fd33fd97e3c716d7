// tune_index: index recorded video the paper's way, then query it.
//
// Each round runs core::FocusStream::Build (the tuner's model x T x K grid on
// the sample window, then the full ingest) on a fixed set of Table-1 traffic
// and surveillance streams, followed by each stream's dominant-class queries:
// one request for all of them over the whole recording, then timeline
// requests (one class over consecutive windows of the recording) that cover
// every (dominant class, width) pair in equal numbers, the width being the
// full index width or Kx = 1; the seed picks each timeline's length and
// offset and the requests' order. Rounds repeat until the run's seconds are spent
// (at least two), single-threaded. The workload touches no server, runtime
// service, shm or storage code.
//
// Traced run: untraced and traced rounds alternate. A traced round replays
// Build through its public halves (ParameterTuner::EvaluateGrid +
// SelectFromEvaluated, then RunIngest) and each query through Plan /
// ClassifyPlan / Resolve, each inside a span. After the rounds, probes
// outside the round wall mirror the tuner grid from outside (ClassifySample,
// RunIngestClassified on a scratch clusterer, QueryEngine::Query +
// AccuracyEvaluator::Evaluate per configuration) and sweep each stream with
// an empty consumer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "focus_util.h"
#include "harness.h"
#include "src/cluster/incremental_clusterer.h"
#include "src/cnn/ground_truth.h"
#include "src/common/hashing.h"
#include "src/common/rng.h"
#include "src/core/accuracy_evaluator.h"
#include "src/core/focus_stream.h"
#include "src/core/parameter_tuner.h"

namespace perfbench {
namespace {

using namespace focus;

// Timeline requests per stream, at least: enough that one round gives a p99
// over more than a thousand requests (a stall of the host then delays a few
// of the tail's tens rather than most of them), each long enough (tens of
// queries) that its latency is not a few microseconds. The count is rounded
// up to a whole number of passes over the stream's (class, width) pairs.
constexpr int kTimelines = 360;
// A timeline spans kMinTimelineWindows to kMaxTimelineWindows consecutive
// windows of 1/(kMaxTimelineWindows + 1) of the recording. With one length
// for all, a (class, width) pair's timelines cost nearly the same, the
// request costs form a few dozen narrow spikes of equal weight, and the
// median sits on the edge between two of them: it read the slowest request
// of one pair or the fastest of the next, and a stream's median moved by
// 40-60% between identical rounds of one run.
constexpr int kMinTimelineWindows = 12;
constexpr int kMaxTimelineWindows = 36;
constexpr int kSetupReps = 9;
constexpr int kMinRounds = 2;

struct StreamSpec {
  const char* name;
  double minutes;
};

// Traffic and surveillance streams; a news stream costs about ten times more
// per minute and would dominate the round, so none is included.
constexpr StreamSpec kStreams[] = {
    {"auburn_c", 2.0}, {"city_a_r", 2.0}, {"bend", 3.0},
    {"church_st", 3.0}, {"lausanne", 2.0}, {"oxford", 3.0},
};

struct QuerySpec {
  common::ClassId cls = common::kInvalidClass;
  int kx = -1;
  common::TimeRange range{};
  bool dominant_full = false;  // Whole recording at full width: the P/R query.
};

struct Input {
  std::unique_ptr<video::StreamRun> run;
  std::unique_ptr<cnn::SegmentGroundTruth> truth;
  std::vector<common::ClassId> dominant;
  std::vector<QuerySpec> queries;
  // Request k is queries [request_end[k - 1], request_end[k]).
  std::vector<size_t> request_end;
};

struct State {
  std::unique_ptr<video::ClassCatalog> catalog;
  std::unique_ptr<cnn::Cnn> gt_cnn;
  std::vector<Input> inputs;
};

void Setup(uint64_t seed, State& state) {
  state = State();
  state.catalog = std::make_unique<video::ClassCatalog>(kWorldSeed);
  state.gt_cnn =
      std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(state.catalog->world_seed()), state.catalog.get());
  for (const StreamSpec& spec : kStreams) {
    Input input;
    const double duration = spec.minutes * 60.0;
    input.run = MakeStream(state.catalog.get(), spec.name, spec.minutes);
    input.truth = std::make_unique<cnn::SegmentGroundTruth>(*input.run, *state.gt_cnn);
    input.dominant = input.truth->DominantClasses(0.95, 12);
    // Requests: first the whole-recording query of every dominant class
    // (checked for precision and recall), then the timelines: one class at
    // one width (full index width or Kx = 1) over consecutive windows. Every
    // (class, width) pair gets the same number of timelines, so the mix's
    // make-up is the same for every seed; the seed picks each timeline's
    // length and offset and the timelines' order.
    for (common::ClassId cls : input.dominant) {
      input.queries.push_back({cls, -1, {}, true});
    }
    input.request_end.push_back(input.queries.size());
    common::Pcg32 rng(common::DeriveSeed(seed, common::HashString(spec.name)));
    const double window = duration / (kMaxTimelineWindows + 1);
    const size_t pairs = input.dominant.size() * 2;
    std::vector<size_t> timelines;
    for (size_t t = 0; pairs > 0 && (timelines.size() < static_cast<size_t>(kTimelines) || t % pairs != 0); ++t) {
      timelines.push_back(t % pairs);
    }
    std::shuffle(timelines.begin(), timelines.end(), rng);
    for (size_t pair : timelines) {
      const common::ClassId cls = input.dominant[pair / 2];
      const int kx = pair % 2 == 0 ? -1 : 1;
      const int length =
          static_cast<int>(rng.NextInt(kMinTimelineWindows, kMaxTimelineWindows));
      const double offset =
          std::floor(rng.NextDouble(0.0, duration - length * window));
      for (int w = 0; w < length; ++w) {
        const double begin = offset + w * window;
        input.queries.push_back({cls, kx, {begin, begin + window}, false});
      }
      input.request_end.push_back(input.queries.size());
    }
    state.inputs.push_back(std::move(input));
  }
  // The seed also picks the order the streams are indexed in.
  common::Pcg32 order(common::DeriveSeed(seed, 0x6f72646572ULL));
  std::shuffle(state.inputs.begin(), state.inputs.end(), order);
}

// One stream indexed by a round: either the FocusStream that Build returned
// (untraced) or the same two halves called apart under spans (traced).
struct Indexed {
  std::unique_ptr<core::FocusStream> focus;
  std::unique_ptr<cnn::Cnn> cheap;
  std::unique_ptr<core::IngestResult> ingest;  // Heap-held: |engine| points into it.
  core::TuningResult tuning;
  std::unique_ptr<core::QueryEngine> engine;

  const core::IngestResult& result() const { return focus ? focus->ingest() : *ingest; }
  const core::TuningResult& tuned() const { return focus ? focus->tuning() : tuning; }
};

common::Result<Indexed> IndexStream(const State& state, const Input& input, bool traced) {
  core::FocusOptions options;
  Indexed out;
  if (!traced) {
    auto built = core::FocusStream::Build(input.run.get(), state.catalog.get(), options);
    if (!built.ok()) {
      return built.error();
    }
    out.focus = std::move(*built);
    return out;
  }
  // FocusStream::Build is Tune (SelectFromEvaluated over EvaluateGrid) and
  // then RunIngest with the chosen configuration.
  std::vector<core::EvaluatedConfig> evaluated;
  {
    ScopedSpan span("core.tuner.grid");
    core::ParameterTuner tuner(state.catalog.get(), state.gt_cnn.get(), options.tuner);
    evaluated =
        tuner.EvaluateGrid(*input.run, input.run->profile().appearance_variability);
  }
  out.tuning = core::SelectFromEvaluated(std::move(evaluated), options.target, options.policy);
  if (!out.tuning.found) {
    return common::FailedPrecondition("tuning produced no usable configuration");
  }
  const core::IngestParams& params = out.tuning.chosen().params;
  {
    ScopedSpan span("core.ingest");
    out.cheap = std::make_unique<cnn::Cnn>(params.model, state.catalog.get());
    out.ingest = std::make_unique<core::IngestResult>(
        core::RunIngest(*input.run, *out.cheap, params, options.ingest));
  }
  out.engine = std::make_unique<core::QueryEngine>(&out.ingest->index, out.cheap.get(),
                                                   state.gt_cnn.get());
  return out;
}

core::QueryResult RunQuery(const Indexed& indexed, const QuerySpec& q, double fps,
                           int64_t request) {
  if (indexed.focus) {
    return indexed.focus->Query(q.cls, q.kx, q.range);
  }
  ScopedSpan span("core.query", request);
  core::QueryPlan plan;
  {
    ScopedSpan s("core.query.plan", request);
    plan = indexed.engine->Plan(q.cls, q.kx, q.range, fps);
  }
  std::vector<common::ClassId> verdicts;
  {
    ScopedSpan s("cnn.classify_plan", request);
    verdicts = indexed.engine->ClassifyPlan(plan);
  }
  ScopedSpan s("core.query.resolve", request);
  return indexed.engine->Resolve(plan, verdicts);
}

struct Round {
  double wall_ms = 0.0;
  double build_ms = 0.0;
  double query_ms = 0.0;
  int64_t detections = 0;
  int64_t cnn_invocations = 0;
  int64_t suppressed = 0;
  std::vector<double> latencies_ms;
  double query_gpu_ms = 0.0;
  uint64_t digest = 0;
  std::vector<Indexed> indexed;
  std::vector<std::vector<core::QueryResult>> results;  // Parallel to each input's queries.
};

// |next_cpu| counts the streams indexed so far in the run: each goes to the
// next CPU in turn, so over a run every CPU indexes its share.
Round RunRound(const State& state, bool traced, int64_t* next_request, size_t* next_cpu,
               Report& report) {
  Round round;
  const std::vector<int> cpus = AllowedCpus();
  const Clock::time_point round_start = Clock::now();
  OnCpuTimer build_timer;
  for (const Input& input : state.inputs) {
    // Each stream on the next CPU in turn: one thread's speed differs by up
    // to 2x between the CPUs of a virtual machine that shares its cores, and
    // a thread left where it started would time that CPU's neighbours.
    if (!cpus.empty()) {
      PinToCpu(cpus[(*next_cpu)++ % cpus.size()], cpus);
    }
    ScopedSpan stream_span("tune_index.stream");
    report.Attempt();
    build_timer.Start();
    auto indexed = IndexStream(state, input, traced);
    build_timer.Stop();
    if (!indexed.ok()) {
      report.Fail(input.run->profile().name + ": " + indexed.error().message);
      round.indexed.emplace_back();
      round.results.emplace_back();
      continue;
    }
    const core::IngestResult& ingest = indexed->result();
    round.detections += ingest.detections;
    round.cnn_invocations += ingest.cnn_invocations;
    round.suppressed += ingest.suppressed;

    std::vector<core::QueryResult> results;
    results.reserve(input.queries.size());
    size_t next = 0;
    for (size_t end : input.request_end) {
      report.Attempt();
      const int64_t request = (*next_request)++;
      // Service time on the CPU: the thread runs the whole request, and its
      // CPU clock leaves out what other tenants took (see OnCpuTimer).
      const double a = ThreadCpuMillis();
      for (; next < end; ++next) {
        results.push_back(RunQuery(*indexed, input.queries[next], input.run->fps(), request));
      }
      round.latencies_ms.push_back(ThreadCpuMillis() - a);
      round.query_ms += round.latencies_ms.back();
    }
    for (const core::QueryResult& r : results) {
      round.query_gpu_ms += r.gpu_millis;
      round.digest = common::HashCombine(round.digest, common::HashString(EncodeResult(r)));
    }
    round.indexed.push_back(std::move(*indexed));
    round.results.push_back(std::move(results));
  }
  round.build_ms = build_timer.Millis();
  round.wall_ms = MillisSince(round_start);
  PinToCpu(-1, cpus);
  return round;
}

// Output checks on one round, each against the GT-CNN's segment truth or a
// property every answer must have.
void CheckRound(const State& state, const Round& round, Report& report) {
  for (size_t s = 0; s < state.inputs.size(); ++s) {
    const Input& input = state.inputs[s];
    const std::string& name = input.run->profile().name;
    if (round.results[s].size() != input.queries.size()) {
      report.Check(false, name + ": stream was not indexed");
      continue;
    }
    core::AccuracyEvaluator evaluator(input.truth.get(), input.run->fps());
    double sum_p = 0.0;
    double sum_r = 0.0;
    int n = 0;
    for (size_t i = 0; i < input.queries.size(); ++i) {
      const QuerySpec& q = input.queries[i];
      const core::QueryResult& r = round.results[s][i];
      const auto [first, last] = core::FrameBoundsOfRange(q.range, input.run->fps());
      for (const auto& [a, b] : r.frame_runs) {
        if (a < first || b > last || a > b) {
          report.Check(false, name + ": returned frames outside the query range");
          break;
        }
      }
      if (q.dominant_full) {
        const core::PrecisionRecall pr = evaluator.Evaluate(q.cls, r);
        sum_p += pr.precision;
        sum_r += pr.recall;
        ++n;
      }
    }
    if (n > 0) {
      char line[160];
      std::snprintf(line, sizeof(line), "%s: precision %.3f recall %.3f over %d dominant classes",
                    name.c_str(), sum_p / n, sum_r / n, n);
      report.Check(sum_p / n >= 0.95 && sum_r / n >= 0.95, line);
      std::fprintf(stderr, "tune_index: %s\n", line);
    }
  }
}

// Probes of the traced run, outside the round wall: each stream swept with an
// empty consumer, and the tuner grid mirrored from outside with the models,
// thresholds and widths its TuningResult::evaluated lists.
void ProbeTuneIndex(const State& state, const Round& last, Report& report) {
  double sweep_ms = 0.0, classify_ms = 0.0, replay_ms = 0.0, eval_ms = 0.0, mirror_ms = 0.0;
  int64_t scan_rows = 0;
  int64_t configs = 0;
  std::vector<double> hit_rates;
  const core::TunerOptions topts;
  for (size_t s = 0; s < state.inputs.size(); ++s) {
    const video::StreamRun& run = *state.inputs[s].run;
    {
      ScopedSpan span("probe.video.sweep");
      const Clock::time_point t0 = Clock::now();
      run.ForEachFrame([](common::FrameIndex, const std::vector<video::Detection>&) {});
      sweep_ms += MillisSince(t0);
    }
    if (last.results[s].empty()) {
      continue;
    }
    const std::vector<core::EvaluatedConfig>& evaluated = last.indexed[s].tuned().evaluated;
    configs += static_cast<int64_t>(evaluated.size());

    ScopedSpan mirror_span("probe.core.tuner.mirror");
    const Clock::time_point m0 = Clock::now();
    // The tuner's own sample window and its GT-CNN labelling.
    const double sample_sec = std::min(topts.sample_sec, run.duration_sec());
    video::StreamRun sample(&run.catalog(), run.profile(), sample_sec, run.fps(), run.seed());
    cnn::SegmentGroundTruth truth(sample, *state.gt_cnn);
    const std::vector<common::ClassId> dominant =
        truth.DominantClasses(topts.dominant_coverage, topts.max_dominant_classes);
    core::AccuracyEvaluator evaluator(&truth, sample.fps());
    cluster::IncrementalClusterer scratch;

    // evaluated is ordered model -> threshold -> K.
    size_t i = 0;
    while (i < evaluated.size()) {
      const cnn::ModelDesc& desc = evaluated[i].params.model;
      size_t model_end = i;
      int k_max = 1;
      while (model_end < evaluated.size() &&
             evaluated[model_end].params.model.name == desc.name) {
        k_max = std::max(k_max, evaluated[model_end].params.k);
        ++model_end;
      }
      cnn::Cnn cheap(desc, state.catalog.get());
      core::ClassifiedSample classified;
      {
        ScopedSpan span("probe.cnn.classify");
        const Clock::time_point t0 = Clock::now();
        classified = core::ClassifySample(sample, cheap, k_max, topts.ingest);
        classify_ms += MillisSince(t0);
      }
      while (i < model_end) {
        core::IngestParams params = evaluated[i].params;
        params.k = k_max;
        core::IngestResult ingest;
        {
          ScopedSpan span("probe.cluster.replay");
          const Clock::time_point t0 = Clock::now();
          ingest = core::RunIngestClassified(classified, params, topts.ingest, &scratch);
          replay_ms += MillisSince(t0);
        }
        scan_rows += scratch.centroid_store().scan_candidates();
        hit_rates.push_back(ingest.clusterer_fast_hit_rate);
        ScopedSpan span("probe.core.tuner.eval");
        const Clock::time_point t0 = Clock::now();
        core::QueryEngine engine(&ingest.index, &cheap, state.gt_cnn.get());
        const double threshold = evaluated[i].params.cluster_threshold;
        while (i < model_end && evaluated[i].params.cluster_threshold == threshold) {
          for (common::ClassId cls : dominant) {
            const core::QueryResult qr =
                engine.Query(cls, evaluated[i].params.k, {}, sample.fps());
            evaluator.Evaluate(cls, qr);
          }
          ++i;
        }
        eval_ms += MillisSince(t0);
      }
    }
    mirror_ms += MillisSince(m0);
  }
  const double rounds_grid_ms = Tracer::Get().TotalMillis("core.tuner.grid");
  const size_t grid_calls = Tracer::Get().Durations("core.tuner.grid").size();
  const double grid_ms = grid_calls > 0 ? rounds_grid_ms * state.inputs.size() / grid_calls : 0.0;
  char line[200];
  std::snprintf(line, sizeof(line),
                "tuner grid mirror %.0f ms against EvaluateGrid %.0f ms per round (ratio %.2f)",
                mirror_ms, grid_ms, grid_ms > 0.0 ? mirror_ms / grid_ms : 0.0);
  std::fprintf(stderr, "tune_index: %s\n", line);
  report.Check(grid_ms > 0.0 && mirror_ms > 0.5 * grid_ms && mirror_ms < 1.5 * grid_ms, line);

  report.Metric("video.sweep_ms", sweep_ms, "ms");
  report.Metric("core.tuner.grid_ms", grid_ms, "ms");
  report.Metric("core.tuner.configs", static_cast<double>(configs), "count");
  report.Metric("cnn.classify_ms", classify_ms, "ms");
  report.Metric("cluster.replay_ms", replay_ms, "ms");
  report.Metric("cluster.scan_rows", static_cast<double>(scan_rows), "count");
  report.Metric("cluster.fast_hit_rate", Mean(hit_rates), "ratio");
  report.Metric("core.tuner.eval_ms", eval_ms, "ms");
  report.Metric("cnn.invocations", static_cast<double>(last.cnn_invocations), "count");
  report.Metric("cnn.suppressed", static_cast<double>(last.suppressed), "count");
}

}  // namespace

void RunTuneIndex(const Args& args, Report& report) {
  State state;
  const double setup_s = TimeSetup(kSetupReps, true, [&] { Setup(args.seed, state); });
  std::fprintf(stderr, "tune_index: setup %.3f s, %zu streams\n", setup_s, state.inputs.size());

  Tracer& tracer = Tracer::Get();
  int64_t next_request = 0;
  size_t next_cpu = 0;
  std::vector<Round> rounds;
  // A traced run alternates untraced and traced rounds, at least kMinRounds
  // of each: the tracing overhead is the traced rounds' wall over the
  // untraced rounds', and both kinds see the same drift of the host.
  const size_t min_rounds = static_cast<size_t>(kMinRounds) * (args.trace ? 2 : 1);
  std::vector<double> untraced_round_ms, traced_round_ms;
  const Clock::time_point start = Clock::now();
  while (rounds.size() < min_rounds || MillisSince(start) < args.seconds * 1000.0 ||
         (args.trace && rounds.size() % 2 != 0)) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    tracer.Enable(traced);
    Round round = RunRound(state, traced, &next_request, &next_cpu, report);
    tracer.Enable(false);
    if (args.trace) {
      (traced ? traced_round_ms : untraced_round_ms).push_back(round.wall_ms);
    }
    // Only the last round's streams are kept for the checks.
    if (!rounds.empty()) {
      rounds.back().indexed.clear();
      rounds.back().results.clear();
    }
    rounds.push_back(std::move(round));
  }
  const Round& last = rounds.back();

  CheckRound(state, last, report);
  for (const Round& round : rounds) {
    report.Check(round.digest == rounds.front().digest,
                 "query answers differ between rounds over the same index");
  }

  double build_ms = 0.0;
  double query_ms = 0.0;
  int64_t detections = 0;
  std::vector<double> latencies;
  for (const Round& round : rounds) {
    build_ms += round.build_ms;
    query_ms += round.query_ms;
    detections += round.detections;
    latencies.insert(latencies.end(), round.latencies_ms.begin(), round.latencies_ms.end());
  }

  // Paper metrics (virtual GPU time, deterministic per seed): Ingest-all runs
  // the GT-CNN on every detection; Query-all does the same per query.
  double gt_all_ms = 0.0;
  double focus_ingest_ms = 0.0;
  double dominant_query_ms = 0.0;
  for (size_t s = 0; s < state.inputs.size(); ++s) {
    if (last.results[s].empty()) {
      continue;
    }
    const core::IngestResult& ingest = last.indexed[s].result();
    const double stream_gt_all =
        static_cast<double>(ingest.detections) * state.gt_cnn->inference_cost_millis();
    double sum = 0.0;
    int n = 0;
    for (size_t i = 0; i < state.inputs[s].queries.size(); ++i) {
      if (state.inputs[s].queries[i].dominant_full) {
        sum += last.results[s][i].gpu_millis;
        ++n;
      }
    }
    gt_all_ms += stream_gt_all;
    focus_ingest_ms += ingest.gpu_millis;
    dominant_query_ms += n > 0 ? sum / n : 0.0;
  }
  const double ingest_cheaper_by = focus_ingest_ms > 0.0 ? gt_all_ms / focus_ingest_ms : 0.0;
  const double query_faster_by = dominant_query_ms > 0.0 ? gt_all_ms / dominant_query_ms : 0.0;
  report.Check(ingest_cheaper_by > 1.0, "Focus ingest is not cheaper than Ingest-all");
  report.Check(query_faster_by > 1.0, "Focus queries are not faster than Query-all");

  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  report.Metric("ingest_det_per_s", detections / (build_ms / 1000.0), "det/s");
  report.Metric("ingest_cheaper_by", ingest_cheaper_by, "x");
  report.Metric("query_faster_by", query_faster_by, "x");
  report.Metric("query_p50_ms", Quantile(latencies, 0.5), "ms");
  report.Metric("query_p99_ms", Quantile(latencies, 0.99), "ms");
  report.Metric("query_qps", latencies.size() / (query_ms / 1000.0), "req/s");
  report.Metric("query_gpu_ms", last.query_gpu_ms / std::max<size_t>(last.latencies_ms.size(), 1),
                "ms");
  std::fprintf(stderr,
               "tune_index: %zu rounds, %zu queries, build %.0f ms, %lld detections, "
               "cheaper %.1fx faster %.1fx\n",
               rounds.size(), latencies.size(), build_ms, static_cast<long long>(detections),
               ingest_cheaper_by, query_faster_by);
  std::fprintf(stderr, "tune_index: request ms deciles");
  for (int d = 1; d <= 9; ++d) {
    std::fprintf(stderr, " %.3f", Quantile(latencies, d / 10.0));
  }
  std::fprintf(stderr, "\n");

  if (!args.trace) {
    return;
  }
  // The span tree of the traced rounds, before the probes add to it: the
  // layer spans' self times should account for the untraced rounds' wall
  // (perfbench/README.md gives the slack); what they miss is the round's own
  // bookkeeping (the stream and query spans' self time).
  const double traced_rounds = static_cast<double>(traced_round_ms.size());
  const double layer_self_ms = tracer.SelfMillis(
      {"core.tuner.grid", "core.ingest", "core.query.plan", "cnn.classify_plan",
       "core.query.resolve"});
  tracer.Enable(true);
  ProbeTuneIndex(state, last, report);
  report.Metric("core.ingest_ms", tracer.TotalMillis("core.ingest") / traced_rounds, "ms");
  report.Metric("core.query.plan_ms", tracer.TotalMillis("core.query.plan") / traced_rounds, "ms");
  report.Metric("cnn.classify_plan_ms", tracer.TotalMillis("cnn.classify_plan") / traced_rounds,
                "ms");
  report.Metric("core.query.resolve_ms",
                tracer.TotalMillis("core.query.resolve") / traced_rounds, "ms");
  report.Metric("trace.overhead_pct",
                100.0 * (Mean(traced_round_ms) / Mean(untraced_round_ms) - 1.0), "%");
  report.Metric("trace.self_coverage", layer_self_ms / traced_rounds / Mean(untraced_round_ms),
                "ratio");
}

}  // namespace perfbench
