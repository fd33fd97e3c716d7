// live_ingest: ingest that never stops, queried while it runs.
//
// Each round, runtime::IngestService ingests the streams at their tuned
// configurations with a live cadence (an epoch snapshot every kCadence
// sampled frames), background publication, the incremental boundary merge at
// two shards and persistent checkpoints. Every snapshot reaches the
// benchmark's sink, which publishes it into a shm::EpochPublisher plane.
// Meanwhile one client thread sends live QUERY lines through
// server::QueryServer: a batch of kBatch requests for every epoch a stream
// publishes, so every round sends the same number of requests. Rounds
// repeat, each on fresh durable state, until the run's seconds are spent.
// Tuning happens in setup; no tuner runs in the timed phase.
//
// The frame source is a video::StreamRun subclass that stamps the hand-off
// time of every frame and times the ingest callback on it: the epoch lag is
// the sink's arrival time minus the hand-off of the snapshot's last frame,
// and callbacks on checkpoint frames minus the ordinary-frame median are the
// checkpoint cost. In a traced round it also records a span around its sweep
// (the video layer's self time) and one around each callback, named by the
// frame's kind (ordinary, checkpoint, epoch boundary).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "focus_util.h"
#include "harness.h"
#include "src/cnn/ground_truth.h"
#include "src/common/rng.h"
#include "src/core/fleet.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/parameter_tuner.h"
#include "src/runtime/fleet_query_service.h"
#include "src/runtime/ingest_service.h"
#include "src/server/query_server.h"
#include "src/shm/epoch_plane.h"

namespace perfbench {
namespace {

using namespace focus;

constexpr int kSetupReps = 3;
constexpr int kMinRounds = 2;
// Sampled frames per epoch (20 s of video); stream lengths are multiples of
// it, so each stream's last epoch covers the whole recording.
constexpr int64_t kCadence = 600;
constexpr int kShards = 2;
// Live requests the client sends for each epoch of a stream: a dashboard
// refreshed on every epoch.
constexpr int kBatch = 64;
// Every kVerifyEvery-th live request is also answered in process on the
// snapshot the client pinned before sending it (a prime, so the checked
// requests visit every position of a batch).
constexpr int kVerifyEvery = 61;
// Requests in the seed's mix the cold-cache GPU charge is averaged over.
constexpr int kColdMix = 1024;
// The tuner's sample window in setup.
constexpr double kTuneSampleSec = 120.0;

struct StreamSpec {
  const char* name;
  double minutes;
};

// auburn_c-like streams stay at or below about 30 minutes: past that the
// tuned configuration's cluster count explodes and one stream dominates.
constexpr StreamSpec kStreams[] = {{"auburn_c", 20.0}, {"city_a_r", 20.0}};

// The kind of a frame in a fresh ingest: checkpoint frames come every
// IngestOptions::checkpoint_every_frames, epoch boundaries every kCadence.
enum class FrameKind { kOrdinary, kCheckpoint, kBoundary };

FrameKind KindOf(common::FrameIndex frame, int64_t checkpoint_every) {
  if ((frame + 1) % kCadence == 0) {
    return FrameKind::kBoundary;
  }
  return (frame + 1) % checkpoint_every == 0 ? FrameKind::kCheckpoint : FrameKind::kOrdinary;
}

// A frame source that stamps each frame's hand-off to ingest and times the
// ingest callback on it.
class StampedRun : public video::StreamRun {
 public:
  StampedRun(const video::StreamRun& base, int64_t checkpoint_every)
      : video::StreamRun(base), checkpoint_every_(checkpoint_every) {}

  video::SweepStats ForEachFrame(const FrameCallback& callback) const override {
    handoff_.assign(static_cast<size_t>(num_frames()) + 1, Clock::time_point{});
    callback_ms_.assign(static_cast<size_t>(num_frames()) + 1, 0.0);
    ScopedSpan sweep_span("video.sweep");
    video::SweepStats stats = video::StreamRun::ForEachFrame(
        [&](common::FrameIndex frame, const std::vector<video::Detection>& dets) {
          static constexpr const char* kSpan[] = {"core.ingest.frame", "storage.checkpoint.frame",
                                                  "core.live.boundary.frame"};
          ScopedSpan span(kSpan[static_cast<int>(KindOf(frame, checkpoint_every_))]);
          const Clock::time_point t0 = Clock::now();
          handoff_[static_cast<size_t>(frame)] = t0;
          callback(frame, dets);
          callback_ms_[static_cast<size_t>(frame)] = MillisSince(t0);
        });
    return stats;
  }

  // Valid for frames already handed off in the current sweep.
  Clock::time_point handoff(common::FrameIndex frame) const {
    return handoff_[static_cast<size_t>(frame)];
  }
  const std::vector<double>& callback_ms() const { return callback_ms_; }
  int64_t checkpoint_every() const { return checkpoint_every_; }

 private:
  const int64_t checkpoint_every_;
  mutable std::vector<Clock::time_point> handoff_;
  mutable std::vector<double> callback_ms_;
};

struct Stream {
  std::string name;
  std::unique_ptr<StampedRun> run;
  core::IngestParams params;
  std::vector<common::ClassId> classes;  // Dominant classes of the tuning sample.
};

struct State {
  std::unique_ptr<video::ClassCatalog> catalog;
  std::unique_ptr<cnn::Cnn> gt_cnn;
  std::vector<Stream> streams;
  core::FocusFleet empty_fleet;  // Live streams resolve through the service.
};

void Setup(State& state) {
  state.streams.clear();
  state.catalog = std::make_unique<video::ClassCatalog>(kWorldSeed);
  state.gt_cnn =
      std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(state.catalog->world_seed()), state.catalog.get());
  for (const StreamSpec& spec : kStreams) {
    std::unique_ptr<video::StreamRun> base =
        MakeStream(state.catalog.get(), spec.name, spec.minutes);
    Stream stream;
    stream.name = spec.name;
    stream.run = std::make_unique<StampedRun>(*base, core::IngestOptions().checkpoint_every_frames);
    core::TunerOptions topts;
    topts.sample_sec = kTuneSampleSec;
    core::ParameterTuner tuner(state.catalog.get(), state.gt_cnn.get(), topts);
    const core::TuningResult tuning =
        tuner.Tune(*stream.run, stream.run->profile().appearance_variability, {},
                   core::Policy::kBalance);
    if (!tuning.found) {
      throw std::runtime_error("tuning found no configuration for " + stream.name);
    }
    stream.params = tuning.chosen().params;
    video::StreamRun sample(state.catalog.get(), stream.run->profile(), kTuneSampleSec, kFps,
                            stream.run->seed());
    cnn::SegmentGroundTruth truth(sample, *state.gt_cnn);
    stream.classes = truth.DominantClasses(0.95, 12);
    state.streams.push_back(std::move(stream));
  }
}

// Per-stream accounting filled by the snapshot sink (builder thread).
struct SinkLog {
  std::mutex mu;
  uint64_t last_epoch = 0;
  bool monotone = true;
  std::shared_ptr<const core::LiveSnapshot> last;
  std::vector<double> lag_ms;
  std::vector<double> publish_ms;
  double cut_ms = 0.0;
  double stall_ms = 0.0;
  double build_ms = 0.0;
  int64_t reused = 0;
  int64_t rebuilt = 0;
  int64_t epochs = 0;
  bool publish_failed = false;
};

struct Round {
  double ingest_ms = 0.0;      // RunAll's wall time, stolen time left out (OnCpuTimer).
  double ingest_cpu_ms = 0.0;  // CPU time of the round's threads but the client's.
  double client_cpu_ms = 0.0;  // The client thread's CPU time.
  int64_t detections = 0;
  double ingest_gpu_ms = 0.0;
  int64_t cnn_invocations = 0;
  int64_t suppressed = 0;
  std::vector<double> latencies_ms;
  double client_ms = 0.0;  // The client's time in its batches, reference checks excluded.
  int64_t verified = 0;
  std::vector<double> frame_ms;       // Median ordinary-frame callback, per stream.
  double checkpoint_ms = 0.0;         // Extra callback time on checkpoint frames.
  std::vector<double> checkpoint_last_ms;  // Same, over the last tenth of each stream.
  runtime::FleetServiceStats service;
  bool traced = false;
};

std::string LiveLine(const Stream& stream, const video::ClassCatalog& catalog,
                     common::ClassId cls, int form, double covered_sec, common::Pcg32& rng,
                     int* kx, common::TimeRange* range) {
  std::ostringstream line;
  line << "QUERY " << stream.name << " " << catalog.Name(cls);
  *kx = -1;
  *range = {};
  if (form == 1) {
    *kx = 1;
    line << " KX 1";
  } else if (form == 2 && covered_sec > 60.0) {
    const double begin = std::floor(rng.NextDouble(0.0, covered_sec - 60.0));
    *range = {begin, begin + 60.0};
    line << " BEGIN " << begin << " END " << begin + 60.0;
  }
  return line.str();
}

// Frame-level timing of one stream's sweep: checkpoint frames against
// ordinary frames (neither a checkpoint nor an epoch boundary).
void FrameTimes(const StampedRun& run, Round& round) {
  const std::vector<double>& ms = run.callback_ms();
  const int64_t frames = run.num_frames();
  std::vector<double> ordinary;
  std::vector<int64_t> checkpoints;
  for (int64_t f = 0; f < frames; ++f) {
    const FrameKind kind = KindOf(f, run.checkpoint_every());
    if (kind == FrameKind::kCheckpoint) {
      checkpoints.push_back(f);
    } else if (kind == FrameKind::kOrdinary) {
      ordinary.push_back(ms[static_cast<size_t>(f)]);
    }
  }
  const double median = Median(ordinary);
  round.frame_ms.push_back(median);
  std::vector<double> last_tenth;
  for (int64_t f : checkpoints) {
    const double extra = ms[static_cast<size_t>(f)] - median;
    round.checkpoint_ms += extra;
    if (f >= frames - frames / 10) {
      last_tenth.push_back(extra);
    }
  }
  round.checkpoint_last_ms.push_back(Mean(last_tenth));
}

}  // namespace

void RunLiveIngest(const Args& args, Report& report) {
  State state;
  // Set-up sweeps the frame source too; only the timed rounds are traced.
  Tracer::Get().Enable(false);
  const double setup_s = TimeSetup(kSetupReps, true, [&] { Setup(state); });
  for (const Stream& s : state.streams) {
    std::fprintf(stderr, "live_ingest: %s tuned to %s K=%d T=%.2f\n", s.name.c_str(),
                 s.params.model.name.c_str(), s.params.k, s.params.cluster_threshold);
  }
  std::fprintf(stderr, "live_ingest: setup %.3f s\n", setup_s);

  RunScratch scratch(args.work_dir);
  Tracer& tracer = Tracer::Get();
  std::vector<Round> rounds;
  std::vector<std::unique_ptr<SinkLog>> logs;
  std::vector<std::unique_ptr<shm::EpochPublisher>> planes;
  runtime::MetricsRegistry metrics;
  int64_t next_request = 0;
  std::vector<double> untraced_round_ms, traced_round_ms;

  const Clock::time_point start = Clock::now();
  int round_index = 0;
  const bool traced = args.trace;
  // A traced run alternates untraced and traced rounds, at least kMinRounds
  // of each: the tracing overhead is the traced rounds' wall over the
  // untraced rounds', and both kinds see the same drift of the host.
  const size_t min_rounds = static_cast<size_t>(kMinRounds) * (traced ? 2 : 1);
  while (rounds.size() < min_rounds || MillisSince(start) < args.seconds * 1000.0 ||
         (traced && rounds.size() % 2 != 0)) {
    const bool traced_round = traced && round_index % 2 == 1;
    tracer.Enable(traced_round);
    const std::string tag = "r" + std::to_string(round_index);
    logs.clear();
    planes.clear();
    for (size_t i = 0; i < state.streams.size(); ++i) {
      logs.push_back(std::make_unique<SinkLog>());
      auto plane = shm::EpochPublisher::Create(scratch.SegmentName(tag + "_" + std::to_string(i)),
                                               shm::EpochPublisher::Options());
      if (!plane.ok()) {
        throw std::runtime_error("EpochPublisher::Create: " + plane.error().message);
      }
      (*plane)->UnlinkOnDestroy(true);
      planes.push_back(std::move(*plane));
    }

    runtime::IngestServiceOptions sopts;
    // One ingest worker: the streams ingest one after the other, each on its
    // shards, which leaves a core for the client and the snapshot builder.
    sopts.num_worker_threads = 1;
    sopts.num_shards = kShards;
    sopts.persist_dir = scratch.Dir("durable-" + tag);
    sopts.finalize_every_frames = kCadence;
    runtime::IngestService service(sopts, &metrics);
    for (size_t i = 0; i < state.streams.size(); ++i) {
      const Stream& stream = state.streams[i];
      runtime::IngestJob job;
      job.name = stream.name;
      job.run = stream.run.get();
      job.params = stream.params;
      job.options.background_publish = true;
      job.options.incremental_boundary_merge = true;
      // Checkpoints stay in the page cache (memory-backed, like tmpfs):
      // forcing them to the disk under the checkout would time the disk.
      job.options.arena_fsync = storage::FsyncOptions::Never();
      SinkLog* log = logs[i].get();
      shm::EpochPublisher* plane = planes[i].get();
      const StampedRun* run = stream.run.get();
      job.options.snapshot_sink = [log, plane, run](std::shared_ptr<const core::LiveSnapshot> snap) {
        const Clock::time_point arrived = Clock::now();
        const double lag = MillisBetween(run->handoff(snap->watermark - 1), arrived);
        const Clock::time_point p0 = Clock::now();
        bool published = false;
        {
          ScopedSpan span("shm.publish");
          published = plane->Publish(*snap).ok();
        }
        const double publish = MillisSince(p0);
        std::lock_guard<std::mutex> lock(log->mu);
        log->monotone = log->monotone && snap->epoch > log->last_epoch;
        log->last_epoch = snap->epoch;
        log->publish_failed = log->publish_failed || !published;
        log->lag_ms.push_back(lag);
        log->publish_ms.push_back(publish);
        log->cut_ms += snap->stats.cut_millis;
        log->stall_ms += snap->stats.stall_millis;
        log->build_ms += snap->stats.build_millis;
        log->reused += snap->stats.entries_reused;
        log->rebuilt += snap->stats.entries_rebuilt;
        ++log->epochs;
        log->last = std::move(snap);
      };
      service.AddStream(std::move(job));
    }
    server::QueryServer server(&state.empty_fleet, state.catalog.get(), &metrics, {}, &service);

    Round round;
    std::atomic<bool> ingest_done{false};
    const double process_cpu0 = ProcessCpuMillis();
    std::thread client([&] {
      const double client_cpu0 = ThreadCpuMillis();
      common::Pcg32 rng(common::DeriveSeed(args.seed, 0x6c697665ULL + round_index));
      double verify_ms = 0.0;
      int64_t sent = 0;
      // Epochs of each stream the client has answered a batch for. A stream
      // is queried only once it has published an epoch: before its first
      // epoch it answers FailedPrecondition by design.
      std::vector<uint64_t> batches(state.streams.size(), 0);
      while (true) {
        const bool done = ingest_done.load(std::memory_order_acquire);
        bool sent_batch = false;
        for (size_t i = 0; i < state.streams.size(); ++i) {
          const Stream& stream = state.streams[i];
          const runtime::LiveStreamContext* context = service.LiveContext(stream.name);
          std::shared_ptr<const core::LiveSnapshot> latest = context->slot.Latest();
          if (latest == nullptr || latest->epoch <= batches[i]) {
            continue;
          }
          // One batch per epoch number, also when the client has fallen
          // behind: every round sends the same number of requests.
          ++batches[i];
          sent_batch = true;
          // Client times are the client thread's CPU time (see OnCpuTimer):
          // what another tenant takes from this CPU is not the server's.
          const double b0 = ThreadCpuMillis();
          for (int q = 0; q < kBatch; ++q) {
            std::shared_ptr<const core::LiveSnapshot> pinned = context->slot.Latest();
            const common::ClassId cls =
                stream.classes[rng.NextInt(0, static_cast<int64_t>(stream.classes.size()) - 1)];
            const int form = static_cast<int>(rng.NextInt(0, 2));
            int kx = -1;
            common::TimeRange range;
            const std::string line = LiveLine(stream, *state.catalog, cls, form,
                                              pinned->watermark / kFps, rng, &kx, &range);
            const int64_t request = next_request++;
            report.Attempt();
            std::string response;
            const double t0 = ThreadCpuMillis();
            {
              ScopedSpan span("server.handle_line", request);
              response = server.HandleLine(line);
            }
            round.latencies_ms.push_back(ThreadCpuMillis() - t0);
            ++sent;
            if (response.rfind("OK LIVE EPOCH ", 0) != 0) {
              report.Fail(line + " -> " + response.substr(0, 120));
              continue;
            }
            if (sent % kVerifyEvery != 0) {
              continue;
            }
            const uint64_t epoch = std::strtoull(response.c_str() + 14, nullptr, 10);
            if (epoch != pinned->epoch) {
              continue;  // A newer epoch was published between pin and query.
            }
            // The reference answer is client time, not request time.
            const double v0 = ThreadCpuMillis();
            const core::QueryResult expected =
                core::QueryEngine(pinned.get(), context->ingest_cnn.get(), context->gt_cnn.get())
                    .Query(cls, kx, range, context->fps);
            std::ostringstream head;
            head << "OK LIVE EPOCH " << pinned->epoch << " WATERMARK " << pinned->watermark
                 << " " << ResultPayload(expected);
            report.Check(StripLatency(response) == head.str(),
                         "live answer differs from QueryEngine on the pinned snapshot: " + line);
            ++round.verified;
            verify_ms += ThreadCpuMillis() - v0;
          }
          round.client_ms += ThreadCpuMillis() - b0;
        }
        if (!sent_batch) {
          if (done) {
            break;
          }
          // Waiting for the next epoch leaves the cores to ingest.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      round.client_ms -= verify_ms;
      round.client_cpu_ms = ThreadCpuMillis() - client_cpu0;
    });

    OnCpuTimer ingest_timer;
    ingest_timer.Start();
    runtime::FleetIngestSummary summary;
    {
      ScopedSpan span("runtime.ingest.run_all");
      summary = service.RunAll();
    }
    ingest_timer.Stop();
    round.ingest_ms = ingest_timer.Millis();
    ingest_done.store(true, std::memory_order_release);
    client.join();
    round.ingest_cpu_ms = ProcessCpuMillis() - process_cpu0 - round.client_cpu_ms;
    tracer.Enable(false);

    for (size_t i = 0; i < summary.reports.size(); ++i) {
      const runtime::IngestReport& r = summary.reports[i];
      report.Attempt();
      if (r.error.has_value() || r.health.state != runtime::StreamState::kHealthy) {
        report.Fail("ingest of " + r.name + " ended " + runtime::StreamStateName(r.health.state));
        continue;
      }
      round.detections += r.result.detections;
      round.ingest_gpu_ms += r.result.gpu_millis;
      round.cnn_invocations += r.result.cnn_invocations;
      round.suppressed += r.result.suppressed;
      FrameTimes(*state.streams[i].run, round);
      report.Check(logs[i]->monotone, r.name + ": epochs not monotone");
      report.Check(!logs[i]->publish_failed, r.name + ": shm publish failed");
    }
    round.service = server.service().stats();
    round.traced = traced_round;
    if (traced) {
      (traced_round ? traced_round_ms : untraced_round_ms).push_back(round.ingest_ms);
    }
    std::fprintf(stderr,
                 "live_ingest: round %d ingest %.0f ms, %zu queries (%lld verified), peak RSS "
                 "%.1f MiB\n",
                 round_index, round.ingest_ms, round.latencies_ms.size(),
                 static_cast<long long>(round.verified), PeakRssMiB());
    rounds.push_back(std::move(round));
    ++round_index;
  }
  // Before the output checks, whose separate ingest and cold services are
  // not the workload's: they added 10-15 MiB, more in some runs than others.
  const double peak_rss_mib = PeakRssMiB();

  // --- Output checks on the last round's final epochs ---
  std::vector<std::vector<double>> cold_charges;  // Per stream.
  double gt_all_ms = 0.0;
  double dominant_query_ms = 0.0;
  int64_t payload_bytes = 0;
  for (size_t i = 0; i < state.streams.size(); ++i) {
    const Stream& stream = state.streams[i];
    const std::shared_ptr<const core::LiveSnapshot> last = logs[i]->last;
    if (last == nullptr) {
      report.Check(false, stream.name + ": no epoch published");
      continue;
    }
    report.Check(last->watermark == stream.run->num_frames(),
                 stream.name + ": last epoch does not cover the recording");
    cnn::Cnn cheap(stream.params.model, state.catalog.get());

    // A separate volatile ingest of the same recording, halted at the last
    // epoch's watermark and finalized, with the same clustering options.
    video::StreamRun halted_run(state.catalog.get(), stream.run->profile(),
                                static_cast<double>(last->watermark) / kFps, kFps,
                                stream.run->seed());
    core::IngestOptions volatile_options;
    volatile_options.num_shards = kShards;
    volatile_options.incremental_boundary_merge = true;
    volatile_options.finalize_every_frames = kCadence;
    const core::IngestResult halted =
        core::RunIngest(halted_run, cheap, stream.params, volatile_options);
    report.Check(halted.detections == last->detections,
                 stream.name + ": last epoch's detections differ from the halted ingest");

    auto reader = shm::ShmSnapshotReader::Attach(planes[i]->name());
    auto view = reader.ok() ? (*reader)->Acquire()
                            : common::Result<shm::ShmEpochView>(reader.error());
    report.Check(view.ok() && view->epoch() == last->epoch,
                 stream.name + ": shm plane does not hold the last epoch");
    if (view.ok()) {
      payload_bytes += static_cast<int64_t>(view->header().payload_bytes);
    }

    const core::QueryEngine live_engine(last.get(), &cheap, state.gt_cnn.get());
    const core::QueryEngine halted_engine(&halted.index, &cheap, state.gt_cnn.get());
    double sum = 0.0;
    std::vector<double> cold_charge;  // Per (class, width), class-major.
    for (common::ClassId cls : stream.classes) {
      for (int kx : {-1, 1}) {
        for (common::TimeRange range : {common::TimeRange{}, common::TimeRange{300.0, 900.0}}) {
          const core::QueryResult live = live_engine.Query(cls, kx, range, kFps);
          report.Check(EncodeResult(live) ==
                           EncodeResult(halted_engine.Query(cls, kx, range, kFps)),
                       stream.name + ": last epoch differs from the halted ingest");
          if (view.ok()) {
            report.Check(EncodeResult(view->Query(cls, kx, range, cheap, *state.gt_cnn)) ==
                             EncodeResult(live),
                         stream.name + ": shm reader differs from the in-process answer");
          }
        }
      }
      sum += live_engine.Query(cls, -1, {}, kFps).gpu_millis;
      // The GPU time the cluster charges one request from a cold verdict
      // cache, per class and width.
      for (int kx : {-1, 1}) {
        runtime::FleetQueryService cold({}, &metrics);
        runtime::FleetQueryRequest request;
        request.camera = stream.name;
        request.query.cls = cls;
        request.query.kx = kx;
        request.query.snapshot = last;
        request.query.ingest_cnn = &cheap;
        request.query.gt_cnn = state.gt_cnn.get();
        request.query.fps = kFps;
        const runtime::QueryExecution execution = cold.Execute(request);
        report.Attempt();
        if (execution.error.has_value()) {
          report.Fail(stream.name + ": " + execution.error->message);
        }
        report.Check(EncodeResult(execution.result) ==
                         EncodeResult(live_engine.Query(cls, kx, {}, kFps)),
                     stream.name + ": fleet service answer differs from QueryEngine");
        cold_charge.push_back(cold.stats().gpu_millis);
      }
    }
    cold_charges.push_back(std::move(cold_charge));
    gt_all_ms += static_cast<double>(last->detections) * state.gt_cnn->inference_cost_millis();
    dominant_query_ms += stream.classes.empty() ? 0.0 : sum / stream.classes.size();
  }
  int64_t verified = 0;
  for (const Round& round : rounds) {
    verified += round.verified;
  }
  report.Check(verified > 0, "no live answer was verified against its pinned snapshot");

  // --- End-to-end metrics ---
  // Time metrics are medians over the rounds, so a burst of outside load in
  // one round does not set the run's figure; each round has thousands of
  // live requests, enough for its own p99. The ingest rate is per second of
  // the ingest threads' CPU time, and live requests are timed in the client
  // thread's: ingest hands every frame's shard work to other threads, and on
  // a virtual machine whose idle CPUs halt each hand-off waits for the host
  // to wake one, which moved wall-clock figures between identical runs by
  // more than their bounds.
  int64_t detections = 0;
  double ingest_gpu_ms = 0.0;
  size_t queries = 0;
  std::vector<double> rates, p50s, p99s, qps;
  for (const Round& round : rounds) {
    detections += round.detections;
    ingest_gpu_ms += round.ingest_gpu_ms;
    queries += round.latencies_ms.size();
    rates.push_back(round.detections / (round.ingest_cpu_ms / 1000.0));
    p50s.push_back(Quantile(round.latencies_ms, 0.5));
    p99s.push_back(Quantile(round.latencies_ms, 0.99));
    qps.push_back(round.latencies_ms.size() / (round.client_ms / 1000.0));
  }
  const double gt_per_det = state.gt_cnn->inference_cost_millis();
  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", peak_rss_mib, "MiB");
  report.Metric("ingest_det_per_s", Median(rates), "det/s");
  report.Metric("ingest_cheaper_by", detections * gt_per_det / ingest_gpu_ms, "x");
  report.Metric("query_faster_by", gt_all_ms / dominant_query_ms, "x");
  report.Metric("query_p50_ms", Median(p50s), "ms");
  report.Metric("query_p99_ms", Median(p99s), "ms");
  report.Metric("query_qps", Median(qps), "req/s");
  // Per-request cold charge over a mix of kColdMix requests the seed draws:
  // stream in turn, class uniform, full width or Kx 1.
  double cold_ms = 0.0;
  common::Pcg32 cold_rng(common::DeriveSeed(args.seed, 0x636f6c64ULL));
  for (int q = 0; q < kColdMix && !cold_charges.empty(); ++q) {
    const std::vector<double>& charges = cold_charges[static_cast<size_t>(q) % cold_charges.size()];
    if (!charges.empty()) {
      cold_ms += charges[cold_rng.NextBounded(static_cast<uint32_t>(charges.size()))];
    }
  }
  report.Metric("query_gpu_ms", cold_ms / kColdMix, "ms");
  std::fprintf(stderr, "live_ingest: %zu rounds, %lld detections, %zu live queries\n",
               rounds.size(), static_cast<long long>(detections), queries);

  if (!traced) {
    return;
  }
  // --- Per-layer metrics of the traced run (per traced round) ---
  // The span tree of the traced rounds, before the probes add to it: on the
  // ingest thread, the frame source's sweep self time (video) and the
  // callbacks by frame kind (core ingest, checkpoints, epoch boundaries)
  // should account for the untraced rounds' wall (perfbench/README.md gives
  // the slack); what they miss is the service's own time around the sweeps.
  // The client's and the builder's spans run beside them and are left out.
  const double layer_self_ms = tracer.SelfMillis(
      {"video.sweep", "core.ingest.frame", "storage.checkpoint.frame", "core.live.boundary.frame"});
  std::vector<const Round*> traced_rounds;
  for (const Round& round : rounds) {
    if (round.traced) {
      traced_rounds.push_back(&round);
    }
  }
  const double n = static_cast<double>(traced_rounds.size());
  std::vector<double> frame_ms, checkpoint_last_ms;
  double checkpoint_ms = 0.0;
  double hits = 0.0, lookups = 0.0, launches = 0.0, misses = 0.0;
  int64_t invocations = 0, suppressed = 0;
  for (const Round* round : traced_rounds) {
    frame_ms.insert(frame_ms.end(), round->frame_ms.begin(), round->frame_ms.end());
    checkpoint_last_ms.insert(checkpoint_last_ms.end(), round->checkpoint_last_ms.begin(),
                              round->checkpoint_last_ms.end());
    checkpoint_ms += round->checkpoint_ms;
    invocations += round->cnn_invocations;
    suppressed += round->suppressed;
    hits += static_cast<double>(round->service.cache_hits);
    misses += static_cast<double>(round->service.cache_misses);
    launches += static_cast<double>(round->service.launches);
  }
  lookups = hits + misses;
  // The last round's sink logs; rounds repeat the same work.
  double cut = 0.0, stall = 0.0, build = 0.0, epochs = 0.0, reused = 0.0, rebuilt = 0.0;
  std::vector<double> lags, publish;
  for (const auto& log : logs) {
    cut += log->cut_ms;
    stall += log->stall_ms;
    build += log->build_ms;
    epochs += static_cast<double>(log->epochs);
    reused += static_cast<double>(log->reused);
    rebuilt += static_cast<double>(log->rebuilt);
    lags.insert(lags.end(), log->lag_ms.begin(), log->lag_ms.end());
    publish.insert(publish.end(), log->publish_ms.begin(), log->publish_ms.end());
  }
  // The frame source's own cost: each stream swept with an empty consumer.
  tracer.Enable(true);
  double source_ms = 0.0;
  for (const Stream& stream : state.streams) {
    ScopedSpan span("probe.video.sweep");
    const Clock::time_point t0 = Clock::now();
    stream.run->video::StreamRun::ForEachFrame(
        [](common::FrameIndex, const std::vector<video::Detection>&) {});
    source_ms += MillisSince(t0);
  }
  report.Metric("video.sweep_ms", source_ms, "ms");
  report.Metric("cnn.invocations", invocations / n, "count");
  report.Metric("cnn.suppressed", suppressed / n, "count");
  report.Metric("core.ingest.frame_ms", Median(frame_ms), "ms");
  report.Metric("core.live.cut_ms", cut, "ms");
  report.Metric("core.live.stall_ms", stall, "ms");
  report.Metric("core.live.build_ms", build, "ms");
  report.Metric("core.live.reuse_frac", reused / std::max(reused + rebuilt, 1.0), "ratio");
  report.Metric("core.live.epochs", epochs, "count");
  report.Metric("core.live.epoch_lag_p50_ms", Quantile(lags, 0.5), "ms");
  report.Metric("core.live.epoch_lag_p99_ms", Quantile(lags, 0.99), "ms");
  report.Metric("storage.checkpoint_ms", checkpoint_ms / n, "ms");
  report.Metric("storage.checkpoint_last_ms", Mean(checkpoint_last_ms), "ms");
  report.Metric("shm.publish_ms", Sum(publish), "ms");
  report.Metric("shm.payload_bytes", static_cast<double>(payload_bytes), "bytes");
  report.Metric("runtime.fleet.cache_hit_rate", lookups > 0.0 ? hits / lookups : 0.0, "ratio");
  report.Metric("runtime.fleet.launches", launches / n, "count");
  report.Metric("runtime.fleet.cache_misses", misses / n, "count");
  report.Metric("trace.overhead_pct",
                100.0 * (Mean(traced_round_ms) / Mean(untraced_round_ms) - 1.0), "%");
  report.Metric("trace.self_coverage", layer_self_ms / n / Mean(untraced_round_ms), "ratio");
}

}  // namespace perfbench
