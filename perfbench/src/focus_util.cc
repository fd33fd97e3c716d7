#include "focus_util.h"

#include <sstream>
#include <stdexcept>

#include "src/common/hashing.h"
#include "src/common/rng.h"
#include "src/video/stream_profile.h"

namespace perfbench {

std::unique_ptr<video::StreamRun> MakeStream(const video::ClassCatalog* catalog,
                                             const std::string& name, double minutes) {
  video::StreamProfile profile;
  if (!video::FindProfile(name, &profile)) {
    throw std::runtime_error("unknown stream " + name);
  }
  return std::make_unique<video::StreamRun>(
      catalog, profile, minutes * 60.0, kFps,
      focus::common::DeriveSeed(kDatasetSeed, focus::common::HashString(name)));
}

std::string EncodeResult(const focus::core::QueryResult& r) {
  std::ostringstream out;
  out << r.queried << ' ' << r.centroids_classified << ' ' << r.clusters_matched << ' '
      << r.frames_returned << ' ' << std::hexfloat << r.gpu_millis;
  for (const auto& [first, last] : r.frame_runs) {
    out << ' ' << first << ':' << last;
  }
  return out.str();
}

std::string ResultPayload(const focus::core::QueryResult& r) {
  std::ostringstream out;
  out << "FRAMES " << r.frames_returned << " RUNS " << r.frame_runs.size() << " CENTROIDS "
      << r.centroids_classified << " GPU_MS " << r.gpu_millis;
  for (const auto& [first, last] : r.frame_runs) {
    out << "\nRUN " << first << " " << last;
  }
  return out.str();
}

std::string StripLatency(const std::string& response) {
  const std::string key = " LATENCY_MS ";
  const size_t at = response.find(key);
  if (at == std::string::npos) {
    return response;
  }
  size_t end = at + key.size();
  while (end < response.size() && response[end] != ' ' && response[end] != '\n') {
    ++end;
  }
  return response.substr(0, at) + response.substr(end);
}

}  // namespace perfbench
