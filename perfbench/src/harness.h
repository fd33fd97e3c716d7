// Shared plumbing of the end-to-end benchmark: command-line arguments, the
// per-run report (metrics, operation accounting, output checks), sample
// statistics, the span tracer of the traced run, and run-scoped scratch state
// (directories and shm segment names unique to one run, removed at exit).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MillisSince(Clock::time_point t0) { return MillisBetween(t0, Clock::now()); }

// CPU time of the calling thread, ms. On a virtual machine with steal-time
// accounting it leaves out the time the host ran other tenants on this CPU.
double ThreadCpuMillis();
// CPU time of all of this process's threads, ms (steal left out likewise).
double ProcessCpuMillis();

// Times stretches of the run in wall time less the share of it the host gave
// to other tenants. Over each stretch it reads, summed over the CPUs, the
// ticks spent busy and the ticks stolen (/proc/stat), and scales the wall time
// by busy / (busy + stolen): the time the same work takes on CPUs that are
// not taken away. Parallel work keeps its wall-clock gain. Where /proc/stat
// cannot be read, it is plain wall time. Stretches accumulate, and the
// correction is applied to their sum so that few-tick stretches add up.
class OnCpuTimer {
 public:
  void Start();
  void Stop();
  double Millis() const;

 private:
  // Share of the timed CPUs' non-idle time that was stolen.
  double StolenShare() const;

  Clock::time_point t0_;
  uint64_t busy0_ = 0;
  uint64_t steal0_ = 0;
  double wall_ms_ = 0.0;
  uint64_t busy_ = 0;
  uint64_t steal_ = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (inside the checkout) for this run's durable state and trace file.
  std::string work_dir;
};

// Sample statistics. Quantile uses the nearest-rank definition on a sorted
// copy; callers decide whether a percentile has enough samples to be a tail.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);
double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

// One run's result: the metrics the run prints, operations attempted and
// failed, and every output check (a failed check makes |correct| false and is
// reported on stderr).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Check(bool ok, const std::string& what);
  // Thread-safe, like Check and Fail: load generators call them concurrently.
  void Attempt(int64_t n = 1) { attempted_.fetch_add(n, std::memory_order_relaxed); }
  void Fail(const std::string& what);

  // Replaces the metrics with exactly |names| (name, unit) in that order; a
  // name this run never reported reads |unmeasured| and is returned.
  std::vector<std::string> KeepOnly(
      const std::vector<std::pair<std::string, std::string>>& names, double unmeasured);

  // The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::pair<std::string, Value>> metrics_;
  bool correct_ = true;
  std::atomic<int64_t> attempted_{0};
  int64_t failed_ = 0;
  std::mutex mu_;
};

// Spans recorded around the benchmark's calls into each layer. Recording is
// off unless the run is traced; spans stay in memory and are written out once,
// when the run ends. Parents come from a per-thread stack of open spans, so a
// span's self time is its duration minus its direct children's.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  struct Span {
    const char* name = "";  // A string literal.
    double start_ms = 0.0;
    double end_ms = 0.0;
    int64_t id = 0;
    int64_t parent = -1;
    int64_t request = -1;
  };

  int64_t Open(const char* name, int64_t request);
  void Close(int64_t id);

  // Total duration of the spans named |name|, and total self time of the
  // spans named any of |names|.
  double TotalMillis(const std::string& name) const;
  double SelfMillis(std::initializer_list<std::string_view> names) const;
  // Durations of every span named |name|, in record order.
  std::vector<double> Durations(const std::string& name) const;
  size_t size() const;

  bool WriteJson(const std::string& path) const;

 private:
  Tracer();
  std::vector<double> SelfTimes() const;

  std::atomic<bool> enabled_{false};
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_ = -1;
};

// Run-scoped resources removed when the run ends, whether or not its checks
// passed: directories under the run's work dir and POSIX shm segment names.
class RunScratch {
 public:
  explicit RunScratch(std::string work_dir);
  ~RunScratch();
  RunScratch(const RunScratch&) = delete;
  RunScratch& operator=(const RunScratch&) = delete;

  // A fresh directory <work_dir>/<tag> (created).
  std::string Dir(const std::string& tag);
  // A shm segment name unique to this process and run.
  std::string SegmentName(const std::string& tag);

 private:
  std::string work_dir_;
  std::vector<std::string> dirs_;
  std::vector<std::string> segments_;
};

// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus();

// Pins the calling thread to |cpu|, or back onto every CPU in |all| when
// |cpu| is negative.
void PinToCpu(int cpu, const std::vector<int>& all);

// Peak resident set of this process, MiB.
double PeakRssMiB();

// Runs |setup| |reps| times and returns the median seconds (OnCpuTimer). Each
// repetition replaces the previous one's state, so the workload runs on the
// state the last repetition built. With |rotate_cpus|, repetition i runs
// pinned to the i-th allowed CPU (set-up that forks or starts threads must
// not: they would inherit the pin).
double TimeSetup(int reps, bool rotate_cpus, const std::function<void()>& setup);

// Workload entry points.
void RunTuneIndex(const Args& args, Report& report);
void RunLiveIngest(const Args& args, Report& report);
void RunServe(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
