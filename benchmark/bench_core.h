// Shared pieces of the two benchmark drivers (ulc_benchmark and
// ulc_benchmark_traced): flags, the workload table, input generation, the
// closed-loop serving client with its output checks, the simulator pass
// loop, and the result line.
//
// Everything here calls only the public APIs the end-to-end driver may
// depend on: ServingRuntime(config, origin) with per_shard, cache_shards and
// near_blocks_per_shard set, cache().stats(), make_memory_origin, the
// workload sources, make_preset/with_writes, the scheme factories and
// run_matrix. The benchmark keeps its own histogram and clock so the layers
// it measures can change underneath it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.h"
#include "runtime/serving.h"
#include "runtime/tier.h"
#include "util/flat_hash.h"

namespace bench {

using ulc::BlockId;

// ---- Flags ----

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool smoke = false;     // ~1/100 of the work, for quick wiring checks
  bool selftest = false;  // corrupt origin reads / sim counters on purpose
  std::string trace_out;  // traced driver: Chrome trace file
  std::string dump_cells; // sim: write per-cell counters (regenerates expected/)
};

// Accepts --key=value and --key value. Exits 2 naming the flag on bad input.
Options parse_options(int argc, char** argv);

// ---- Clock and histogram ----

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> values);

// Fixed-bucket log-linear histogram of nanosecond samples: exact below 64,
// then 32 sub-buckets per octave (each ~3% wide). Quantiles interpolate
// linearly inside their bucket, so they follow the data instead of snapping
// to bucket edges.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) {
    ++buckets_[index(ns)];
    ++count_;
  }
  void merge(const LatencyHistogram& other);
  void clear() { *this = LatencyHistogram{}; }
  std::uint64_t count() const { return count_; }
  // q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  // The highest of p50, p90, p99, p99.9, ... with at least `beyond`
  // samples above it (0 when even p50 lacks them).
  double supported_percentile(std::uint64_t beyond = 10) const;

 private:
  static constexpr int kExact = 64;
  static constexpr int kSub = 32;
  static constexpr int kBuckets = kExact + (64 - 6) * kSub;

  static int index(std::uint64_t v) {
    if (v < kExact) return static_cast<int>(v);
    const int e = 63 - std::countl_zero(v);
    const int shift = e - 5;
    return kExact + (e - 6) * kSub + static_cast<int>((v >> shift) - kSub);
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

// ---- Result reporting ----

// Collects metrics, prints each as `metric <name> <value> <unit>` (gated) or
// `info <name> <value> <unit>` (printed only), and ends stdout with the one
// JSON result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& name, double value, const std::string& unit);
  void finish(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// The process's peak resident set so far, in MiB.
double peak_rss_mb();

// ---- Payloads ----

constexpr std::size_t kBlockSize = 4096;

// Every 8-byte word of a written block encodes (block, version); the word
// index is mixed in so misplaced bytes are caught too.
inline std::uint64_t payload_word(BlockId block, std::uint32_t version,
                                  std::size_t i) {
  return ((block << 32) | version) ^ (i * 0x9E3779B97F4A7C15ULL);
}
void fill_payload(std::span<std::byte> out, BlockId block, std::uint32_t version);
// Checks the first and last words (every word when `full`) and returns the
// version they encode; false on any mismatch.
bool check_payload(std::span<const std::byte> data, BlockId block, bool full,
                   std::uint32_t* version);

// An Origin that flips one byte of every block it reads (--selftest).
class FlippingOrigin final : public ulc::Origin {
 public:
  explicit FlippingOrigin(ulc::Origin& inner) : inner_(inner) {}
  void read(BlockId block, std::span<std::byte> out) override;
  void write(BlockId block, std::span<const std::byte> data) override {
    inner_.write(block, data);
  }

 private:
  ulc::Origin& inner_;
};

// ---- Serving workloads ----

struct StackShape {
  std::size_t shards = 4;
  std::size_t ram_per_shard = 0;
  std::size_t near_per_shard = 0;
};

struct ServeWorkload {
  const char* name;
  std::size_t threads;
  std::uint64_t blocks;     // Zipf key space (all filled in the origin)
  double theta;
  double write_fraction;
  StackShape shape;
  std::uint64_t warmup_ops;  // total over all threads
  std::uint64_t stream_ops;  // pre-generated per thread, replayed cyclically
};

// Null for names that are not serving workloads.
const ServeWorkload* find_serve_workload(const std::string& name);
bool is_sim_workload(const std::string& name);

// Stream entry: block id, with kWriteBit set on whole-block writes.
constexpr std::uint64_t kWriteBit = std::uint64_t{1} << 63;
using Streams = std::vector<std::vector<std::uint64_t>>;

// Only thread owner_of(block) writes `block`; the other threads' writes to
// it are generated as reads. That makes the owner's view exact: each of its
// reads must return the last version it wrote.
inline std::size_t owner_of(BlockId block, std::size_t threads) {
  return static_cast<std::size_t>(ulc::splitmix64_mix(block) % threads);
}

Streams make_streams(const ServeWorkload& w, std::uint64_t seed, bool smoke);

// The stack every serving workload drives through the public API.
class RuntimeStack {
 public:
  RuntimeStack(const StackShape& shape, ulc::Origin& backing);
  void read(BlockId block, std::span<std::byte> out) { runtime_.read(block, out); }
  void write(BlockId block, std::span<const std::byte> in) { runtime_.write(block, in); }
  void flush() { runtime_.flush(); }
  ulc::BlockCacheStats stats() { return runtime_.cache().stats(); }
  void begin_measure() {}

 private:
  ulc::ServingRuntime runtime_;
};

// The measured phase is cut into equal windows; ops_per_s and the latency
// percentiles are medians over windows, so a burst of interference from
// outside the process moves a few windows instead of the result.
struct Windows {
  std::uint64_t start_ns = 0;
  std::uint64_t width_ns = 0;
  std::size_t count = 0;  // 0: not windowed (warm-up)
};

struct ClientState {
  std::size_t thread = 0;
  std::size_t threads = 1;
  std::vector<std::uint32_t> versions;  // last version written, per block
  std::size_t pos = 0;                  // next stream entry
  LatencyHistogram reads;
  LatencyHistogram writes;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> window_ops;
  std::vector<LatencyHistogram> window_latency;
};

// One closed-loop client: issues stream entries until `max_ops` are done or
// the last window closes, timing each call into `stack`.
template <class Stack>
void run_client(Stack& stack, const std::vector<std::uint64_t>& stream,
                ClientState& st, std::uint64_t max_ops, const Windows& win) {
  std::vector<std::byte> buf(kBlockSize);
  st.window_ops.assign(win.count, 0);
  st.window_latency.assign(win.count, LatencyHistogram{});
  std::size_t w = 0;
  std::uint64_t window_end = win.start_ns + win.width_ns;
  const std::uint64_t deadline =
      win.count ? win.start_ns + win.count * win.width_ns
                : std::numeric_limits<std::uint64_t>::max();
  std::uint64_t reads = 0;
  for (std::uint64_t n = 0; n < max_ops; ++n) {
    const std::uint64_t entry = stream[st.pos];
    if (++st.pos == stream.size()) st.pos = 0;
    const BlockId block = entry & ~kWriteBit;
    std::uint64_t t1, took;
    if (entry & kWriteBit) {
      const std::uint32_t version = ++st.versions[block];
      fill_payload(buf, block, version);
      const std::uint64_t t0 = now_ns();
      stack.write(block, buf);
      t1 = now_ns();
      took = t1 - t0;
      st.writes.record(took);
    } else {
      const std::uint64_t t0 = now_ns();
      stack.read(block, buf);
      t1 = now_ns();
      took = t1 - t0;
      st.reads.record(took);
      std::uint32_t version = 0;
      const bool full = (++reads & 63) == 0;
      if (!check_payload(buf, block, full, &version) ||
          (owner_of(block, st.threads) == st.thread &&
           version != st.versions[block]))
        ++st.failed;
    }
    ++st.ops;
    if (win.count) {
      while (t1 >= window_end && w < win.count) {
        ++w;
        window_end += win.width_ns;
      }
      if (w == win.count) break;
      ++st.window_ops[w];
      st.window_latency[w].record(took);
    } else if (t1 >= deadline) {
      break;
    }
  }
}

// Persistent client threads, one per client, reused across set-up
// repetitions and phases so every phase runs on the same threads (and the
// same allocator arenas). run() hands each thread its index and waits for
// all of them.
class ClientPool {
 public:
  explicit ClientPool(std::size_t threads);
  ~ClientPool();
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  void run(const std::function<void(std::size_t)>& job);

 private:
  void work(std::size_t index);

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: started after the state above
};

struct ServeResult {
  std::vector<double> setup_s;  // one per set-up repetition
  std::uint64_t ops = 0;        // measured phase
  double wall_s = 0.0;
  std::uint64_t attempted = 0;  // every op plus the final origin checks
  std::uint64_t failed = 0;
  LatencyHistogram reads;
  LatencyHistogram writes;
  std::vector<double> window_ops_per_s;
  std::vector<double> window_p50_ns;
  std::vector<double> window_p99_ns;
  ulc::BlockCacheStats measured;  // counter deltas over the measured phase
};

void fill_origin(ulc::Origin& origin, std::uint64_t blocks);
// After flush: every block a client wrote must hold its last version.
std::uint64_t verify_origin(ulc::Origin& origin, const std::vector<ClientState>& clients,
                            std::uint64_t* checked);
ulc::BlockCacheStats stats_delta(const ulc::BlockCacheStats& after,
                                 const ulc::BlockCacheStats& before);
// Folds the clients' measured-phase counters and windows into `out`.
void collect_measured(const std::vector<ClientState>& clients, const Windows& win,
                      ServeResult& out);

// Set-up (origin fill, stack construction, warm-up) `reps` times, keeping
// the last stack, then the measured phase. `on_measured(stack)` runs after
// the measured phase, before the final flush.
template <class Stack, class OnMeasured>
ServeResult run_serve(const ServeWorkload& w, const Streams& streams,
                      const Options& opt, double seconds, int reps,
                      OnMeasured&& on_measured) {
  ServeResult out;
  ClientPool pool(w.threads);
  std::unique_ptr<ulc::Origin> backing;
  std::unique_ptr<ulc::Origin> flipping;
  std::unique_ptr<Stack> stack;
  std::vector<ClientState> clients;
  const std::uint64_t warmup_per_client =
      (opt.smoke ? w.warmup_ops / 100 : w.warmup_ops) / w.threads;
  for (int rep = 0; rep < reps; ++rep) {
    stack.reset();
    flipping.reset();
    backing.reset();
    const std::uint64_t t0 = now_ns();
    backing = ulc::make_memory_origin(kBlockSize);
    fill_origin(*backing, w.blocks);
    ulc::Origin* front = backing.get();
    if (opt.selftest) {
      flipping = std::make_unique<FlippingOrigin>(*backing);
      front = flipping.get();
    }
    stack = std::make_unique<Stack>(w.shape, *front);
    clients.assign(w.threads, ClientState{});
    for (std::size_t t = 0; t < w.threads; ++t) {
      clients[t].thread = t;
      clients[t].threads = w.threads;
      clients[t].versions.assign(w.blocks, 0);
    }
    pool.run([&](std::size_t t) {
      run_client(*stack, streams[t], clients[t], warmup_per_client, Windows{});
    });
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    for (const ClientState& c : clients) {
      out.attempted += c.ops;
      out.failed += c.failed;
    }
  }
  stack->begin_measure();
  for (ClientState& c : clients) {
    c.reads.clear();
    c.writes.clear();
    c.ops = 0;
    c.failed = 0;
  }
  const ulc::BlockCacheStats before = stack->stats();
  Windows win;
  win.count = std::max<std::size_t>(1, static_cast<std::size_t>(seconds / 0.5 + 0.5));
  win.width_ns = static_cast<std::uint64_t>(seconds * 1e9) / win.count;
  win.start_ns = now_ns();
  pool.run([&](std::size_t t) {
    run_client(*stack, streams[t], clients[t], std::numeric_limits<std::uint64_t>::max(),
               win);
  });
  out.measured = stats_delta(stack->stats(), before);
  collect_measured(clients, win, out);
  on_measured(*stack);
  stack->flush();
  std::uint64_t checked = 0;
  out.failed += verify_origin(*backing, clients, &checked);
  out.attempted += checked;
  return out;
}

// Per-1000-op rates of the counters the cache exposes.
struct CacheRates {
  double ram_hit_ratio = 0;
  double near_hit_ratio = 0;
  double origin_io_per_kop = 0;  // origin reads + write-backs
  double demotions_per_kop = 0;
  double writebacks_per_kop = 0;
};
CacheRates cache_rates(const ulc::BlockCacheStats& s);

// ---- Simulator workloads ----

// The workload's grid, one spec per cell, traces synthesized from `seed`.
std::vector<ulc::exp::ExperimentSpec> make_sim_specs(const std::string& workload,
                                                     std::uint64_t seed, bool smoke);

struct SimResult {
  std::vector<double> setup_s;   // one per synthesis repetition
  // Wall time of each single-cell run_matrix call, per cell, one per pass.
  std::vector<std::vector<double>> cell_ns;
  std::uint64_t refs = 0;        // references replayed, warm-up included
  double wall_s = 0.0;           // summed run_matrix time
  // From each cell's median time: references per second over one pass, and
  // the median and p99 over cells of the time per reference.
  double ops_per_s = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::size_t passes = 0;
  std::uint64_t failed_cells = 0;
  std::uint64_t failed_refs = 0;  // references replayed by failed cells
  double origin_io_per_kop = 0;  // disk reads + write-backs per 1000 measured refs
  std::vector<ulc::HierarchyStats> stats;  // first pass, per cell
};

// Synthesizes the grid `reps` times (set-up), then replays whole passes of
// it, one run_matrix call per cell, for about `seconds` (at least three
// passes). Checks that passes agree, that counters are conserved and,
// for the default seed at full length, that they match expected/.
SimResult run_sim(const Options& opt, double seconds, int reps,
                  std::vector<ulc::exp::ExperimentSpec>* specs_out);

// ---- Common report pieces ----

// Prints the end-to-end metrics of a serving run.
void report_serve(Report& report, const ServeResult& r, double gen_s,
                  double rss_base_mb);
void report_sim(Report& report, const SimResult& r, double rss_base_mb);

}  // namespace bench
