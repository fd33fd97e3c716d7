// focus_perfbench: one run of one workload of the end-to-end benchmark.
//
//   focus_perfbench --workload <tune_index|live_ingest|serve> --seed <n>
//                   --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints progress on stderr and, as the last line of stdout, the result
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs report
// the end-to-end metrics; traced runs report the per-layer metrics (one of a
// layer the workload never calls reads kUnmeasured) and write the spans to
// <work-dir>/trace-<workload>-<seed>.json. perfbench/run.py builds this
// binary and is the command the benchmark is started with.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <span>
#include <string>

#include "harness.h"
#include "src/common/logging.h"

namespace {

// Every end-to-end metric, with its unit; each workload measures all of them.
constexpr const char* kEndToEnd[][2] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ingest_det_per_s", "det/s"},
    {"ingest_cheaper_by", "x"},
    {"query_faster_by", "x"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"query_qps", "req/s"},
    {"query_gpu_ms", "ms"},
};

// Every per-layer metric, with its unit. perfbench/README.md says which
// end-to-end metric each should move, on which workload.
constexpr const char* kPerLayer[][2] = {
    {"video.sweep_ms", "ms"},
    {"core.tuner.grid_ms", "ms"},
    {"core.tuner.configs", "count"},
    {"cnn.classify_ms", "ms"},
    {"cluster.replay_ms", "ms"},
    {"cluster.scan_rows", "count"},
    {"cluster.fast_hit_rate", "ratio"},
    {"core.tuner.eval_ms", "ms"},
    {"cnn.invocations", "count"},
    {"cnn.suppressed", "count"},
    {"core.ingest_ms", "ms"},
    {"core.query.plan_ms", "ms"},
    {"cnn.classify_plan_ms", "ms"},
    {"core.query.resolve_ms", "ms"},
    {"core.ingest.frame_ms", "ms"},
    {"core.live.cut_ms", "ms"},
    {"core.live.stall_ms", "ms"},
    {"core.live.build_ms", "ms"},
    {"core.live.reuse_frac", "ratio"},
    {"core.live.epochs", "count"},
    {"core.live.epoch_lag_p50_ms", "ms"},
    {"core.live.epoch_lag_p99_ms", "ms"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.checkpoint_last_ms", "ms"},
    {"shm.publish_ms", "ms"},
    {"shm.payload_bytes", "bytes"},
    {"runtime.fleet.cache_hit_rate", "ratio"},
    {"runtime.fleet.launches", "count"},
    {"runtime.fleet.cache_misses", "count"},
    {"runtime.fleet.execute_ms", "ms"},
    {"shm.view_query_ms", "ms"},
    {"runtime.proc.rpc_ms", "ms"},
    {"runtime.proc.restarts", "count"},
    {"runtime.proc.timeouts", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.self_coverage", "ratio"},
};

// The value of a per-layer metric the workload does not measure. Every layer
// figure but trace.overhead_pct (which every workload measures) is a time,
// count, size or ratio, never negative, so it cannot pass for a measured 0.
constexpr double kUnmeasured = -1.0;

int Usage() {
  std::fprintf(stderr,
               "usage: focus_perfbench --workload <tune_index|live_ingest|serve> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  focus::common::SetLogLevel(focus::common::LogLevel::kWarning);
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0.0) {
    return Usage();
  }
  std::filesystem::create_directories(args.work_dir);
  perfbench::Tracer::Get().Enable(args.trace);

  perfbench::Report report;
  try {
    if (args.workload == "tune_index") {
      perfbench::RunTuneIndex(args, report);
    } else if (args.workload == "live_ingest") {
      perfbench::RunLiveIngest(args, report);
    } else if (args.workload == "serve") {
      perfbench::RunServe(args, report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  std::vector<std::pair<std::string, std::string>> names;
  using Table = std::span<const char* const[2]>;
  for (const auto& [name, unit] : args.trace ? Table(kPerLayer) : Table(kEndToEnd)) {
    names.emplace_back(name, unit);
  }
  const std::vector<std::string> missing = report.KeepOnly(names, kUnmeasured);
  for (const std::string& name : missing) {
    if (args.trace) {
      std::fprintf(stderr, "not measured on %s: %s\n", args.workload.c_str(), name.c_str());
    } else {
      report.Check(false, "workload did not measure " + name);
    }
  }
  if (args.trace) {
    const std::string path =
        args.work_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
    if (perfbench::Tracer::Get().WriteJson(path)) {
      std::fprintf(stderr, "%zu spans written to %s\n", perfbench::Tracer::Get().size(),
                   path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return 0;
}
