// Multi-threaded load generator for the serving runtime.
//
// Replays the synthetic workload families (Zipf point accesses, streaming
// sessions) against a ServingRuntime from N client threads and reports
// sustained requests/sec plus per-request latency percentiles from the obs
// histograms. Two pacing modes:
//
//   rate == 0  closed-loop saturation: each thread issues its next request
//              the moment the previous one completes. This is the
//              throughput-measuring mode (BENCH_serving.json); latency
//              times the runtime call alone, after the request is drawn
//              and its payload filled.
//   rate > 0   open-loop: each thread schedules request i at i/rate seconds
//              and latency is measured from the *scheduled* start, so queue
//              delay from a lagging server shows up in the percentiles
//              instead of being absorbed by coordinated omission.
//
// The request streams are deterministic per (seed, thread); wall_seconds,
// requests_per_sec and the latency histogram are machine measurements and
// are excluded from determinism comparisons (the same contract as every
// other bench's wall-clock fields).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "runtime/serving.h"
#include "util/json.h"
#include "workloads/streaming.h"

namespace ulc {

struct LoadGenConfig {
  std::string workload = "zipf";  // "zipf" | "streaming"
  std::uint64_t requests = 100000;  // total, split across threads
  std::size_t threads = 1;
  double write_frac = 0.1;   // probability a request is a whole-block write
  double rate = 0.0;         // per-thread requests/sec; 0 = closed loop
  std::uint64_t seed = 1;

  // Zipf workload shape.
  std::uint64_t footprint_blocks = 1 << 16;
  double zipf_theta = 0.9;

  // Streaming workload shape (per-thread session streams over one shared
  // catalogue layout).
  StreamingConfig streaming;

  ServingConfig serving;
};

struct LoadGenResult {
  std::uint64_t requests = 0;  // completed
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  obs::LatencyHistogram latency_ms;  // per-request, merged in thread order
  BlockCacheStats cache;
  DirectoryStats directory;  // empty shards when the directory is disabled
};

// Builds the runtime (RAM-backed origin), runs the load, drains the
// directory, and returns the merged measurements.
LoadGenResult run_serving_load(const LoadGenConfig& config);

// One JSON row for a finished run: config echo + throughput + latency
// percentiles + cache/directory counters (EXPERIMENTS.md documents the
// schema).
Json load_result_to_json(const LoadGenConfig& config, const LoadGenResult& result);

}  // namespace ulc
