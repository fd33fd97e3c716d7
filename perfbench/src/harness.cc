#include "harness.h"

#include <sched.h>
#include <time.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

namespace perfbench {

double ThreadCpuMillis() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double ProcessCpuMillis() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

namespace {

// Busy and stolen ticks summed over all CPUs, from the first line of
// /proc/stat ("cpu user nice system idle iowait irq softirq steal ...").
void ReadCpuTicks(uint64_t& busy, uint64_t& steal) {
  busy = 0;
  steal = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
           stolen = 0;
  if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> stolen &&
      cpu == "cpu") {
    busy = user + nice + system + irq + softirq;
    steal = stolen;
  }
}

}  // namespace

void OnCpuTimer::Start() {
  ReadCpuTicks(busy0_, steal0_);
  t0_ = Clock::now();
}

void OnCpuTimer::Stop() {
  wall_ms_ += MillisSince(t0_);
  uint64_t busy = 0, steal = 0;
  ReadCpuTicks(busy, steal);
  busy_ += busy - std::min(busy, busy0_);
  steal_ += steal - std::min(steal, steal0_);
}

double OnCpuTimer::StolenShare() const {
  const uint64_t total = busy_ + steal_;
  return total == 0 ? 0.0 : static_cast<double>(steal_) / static_cast<double>(total);
}

double OnCpuTimer::Millis() const { return wall_ms_ * (1.0 - StolenShare()); }

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, v] : metrics_) {
    if (existing == name) {
      v = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

std::vector<std::string> Report::KeepOnly(
    const std::vector<std::pair<std::string, std::string>>& names, double unmeasured) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Value>> kept;
  std::vector<std::string> missing;
  for (const auto& [name, unit] : names) {
    Value value{unmeasured, unit};
    bool found = false;
    for (const auto& [existing, v] : metrics_) {
      if (existing == name) {
        value.value = v.value;
        found = true;
      }
    }
    if (!found) {
      missing.push_back(name);
    }
    kept.push_back({name, value});
  }
  metrics_ = std::move(kept);
  return missing;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failed_ <= 5) {
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
  }
}

std::string Report::Json() const {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted_.load()
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, v] = metrics_[i];
    const double value = std::isfinite(v.value) ? v.value : 0.0;
    out << (i > 0 ? ", " : "") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << v.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::Open(const char* name, int64_t request) {
  const double now = MillisSince(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ms = now;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::Close(int64_t id) {
  const double now = MillisSince(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = now;
  if (!open_spans.empty() && open_spans.back() == id) {
    open_spans.pop_back();
  }
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ms - span.start_ms;
    }
  }
  return self;
}

double Tracer::TotalMillis(const std::string& name) const {
  return Sum(Durations(name));
}

double Tracer::SelfMillis(std::initializer_list<std::string_view> names) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimes();
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::find(names.begin(), names.end(), spans_[i].name) != names.end()) {
      total += self[i];
    }
  }
  return total;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(span.end_ms - span.start_ms);
    }
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<double> self = SelfTimes();
  out << std::setprecision(9) << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": \"" << s.name << "\", \"start_ms\": " << s.start_ms
        << ", \"end_ms\": " << s.end_ms << ", \"self_ms\": " << self[i] << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, int64_t request) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    id_ = tracer.Open(name, request);
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) {
    Tracer::Get().Close(id_);
  }
}

RunScratch::RunScratch(std::string work_dir) : work_dir_(std::move(work_dir)) {}

RunScratch::~RunScratch() {
  for (const std::string& name : segments_) {
    ::shm_unlink(name.c_str());
  }
  std::error_code ec;
  for (const std::string& dir : dirs_) {
    std::filesystem::remove_all(dir, ec);
  }
}

std::string RunScratch::Dir(const std::string& tag) {
  const std::string dir = work_dir_ + "/" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  dirs_.push_back(dir);
  return dir;
}

std::string RunScratch::SegmentName(const std::string& tag) {
  const std::string name =
      "/focus_perfbench_" + std::to_string(::getpid()) + "_" + tag;
  segments_.push_back(name);
  return name;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

void PinToCpu(int cpu, const std::vector<int>& all) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (int c : all) {
      CPU_SET(c, &set);
    }
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMiB() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double TimeSetup(int reps, bool rotate_cpus, const std::function<void()>& setup) {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    if (rotate_cpus && !cpus.empty()) {
      PinToCpu(cpus[static_cast<size_t>(i) % cpus.size()], cpus);
    }
    OnCpuTimer timer;
    timer.Start();
    setup();
    timer.Stop();
    seconds.push_back(timer.Millis() / 1000.0);
    PinToCpu(-1, cpus);
  }
  return Median(seconds);
}

}  // namespace perfbench
