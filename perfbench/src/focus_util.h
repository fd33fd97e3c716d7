// Focus-specific helpers shared by the workloads: input generation from the
// run's seed, exact encodings of query answers for identity checks, and the
// server's response payload rebuilt from an in-process answer.
#ifndef PERFBENCH_FOCUS_UTIL_H_
#define PERFBENCH_FOCUS_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/query_engine.h"
#include "src/video/stream_generator.h"

namespace perfbench {

namespace video = focus::video;

// The class catalog (and with it every model's weights) and the recordings
// are the benchmark's fixed dataset, like the paper's Table-1 videos: a
// recording's content moves the work of indexing and querying it by tens of
// percent, which would drown the regressions the bounds are meant to catch.
// A run's seed drives what users do with the dataset (stream order, query
// windows, request mixes, arrival times).
inline constexpr uint64_t kWorldSeed = 42;
inline constexpr uint64_t kDatasetSeed = 1;
inline constexpr double kFps = 30.0;

// The dataset's recording of Table-1 stream |name|, |minutes| long.
std::unique_ptr<video::StreamRun> MakeStream(const video::ClassCatalog* catalog,
                                             const std::string& name, double minutes);

// Exact text of a query answer (GPU time in hexfloat), for identity checks.
std::string EncodeResult(const focus::core::QueryResult& r);

// The FRAMES ... GPU_MS head and RUN lines of a QUERY response built from an
// in-process answer, in the server's formatting.
std::string ResultPayload(const focus::core::QueryResult& r);

// |response| without its " LATENCY_MS <x>" field, which depends on the
// shared cache's state rather than on the answer.
std::string StripLatency(const std::string& response);

}  // namespace perfbench

#endif  // PERFBENCH_FOCUS_UTIL_H_
