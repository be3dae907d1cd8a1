// ulc_benchmark_traced — the per-layer run. For one workload it prints every
// layer metric (README.md lists them and which end-to-end metric each should
// move) and ends stdout with one JSON result line holding them.
//
//   ulc_benchmark_traced --workload=NAME [--seed=N] [--seconds=S]
//                        [--trace-out=FILE] [--smoke]
//
// Every workload's requests go through both halves of the system, so every
// layer metric is measured on every workload:
//   * serving layers: the stack ServingRuntime's constructor builds, rebuilt
//     here with timing wrappers at each public interface (TimedOrigin inside
//     and outside the synchronized origin, TimedNearTier, TimedListener).
//     Serve workloads drive it with their own clients; sim workloads replay
//     a prefix of each trace through it.
//   * simulator layers: each cell replayed through run_matrix, run_scheme
//     (observe on and off) and access_batch, whose differences give each
//     layer's self time. Serve workloads replay their request stream as a
//     single-client trace through indLRU, uniLRU and ULC.
//   * ulc.access_ns and util.flatmap_find_ns: the workload's keys replayed
//     through a standalone UlcClient and FlatMap.
//
// Each serving request gets one span id; its children are near.*,
// origin.wait -> origin.service.* and dir.push. Aggregates cover every
// request; full spans are kept for every 1024th and written as a Chrome
// trace at exit.
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>

#include "bench_core.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/runner.h"
#include "obs/metrics.h"
#include "runtime/serving.h"
#include "runtime/sharded_cache.h"
#include "ulc/ulc_client.h"
#include "ulc/uni_lru_stack.h"
#include "util/flat_hash.h"

namespace {

using namespace bench;

// ---- Spans ----

enum Span : std::uint8_t {
  kCall,           // ShardedBlockCache read/write (the request)
  kNearFetch,
  kNearStore,
  kNearEvict,
  kOriginWait,     // origin call outside the synchronized wrapper
  kOriginRead,     // origin service inside it
  kOriginWrite,
  kDirPush,        // placement listener -> directory queue
  kSpanKinds
};
constexpr const char* kSpanName[kSpanKinds] = {
    "block_cache.call", "near.fetch",          "near.store",           "near.evict",
    "origin.wait",      "origin.service.read", "origin.service.write", "dir.push"};
constexpr bool kChildOfCall[kSpanKinds] = {false, true, true, true, true, false, false, true};

constexpr std::uint64_t kSampleEvery = 1024;

struct SpanRecord {
  std::uint64_t request;
  std::uint32_t thread;
  Span kind;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

struct SpanTotals {
  std::array<std::uint64_t, kSpanKinds> ns{};
  std::array<std::uint64_t, kSpanKinds> calls{};
  std::uint64_t call_self_ns = 0;  // call minus its direct children

  void add(const SpanTotals& o) {
    for (int k = 0; k < kSpanKinds; ++k) {
      ns[k] += o.ns[k];
      calls[k] += o.calls[k];
    }
    call_self_ns += o.call_self_ns;
  }
  double mean(Span k) const {
    return calls[k] ? static_cast<double>(ns[k]) / static_cast<double>(calls[k]) : 0.0;
  }
};

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::uint64_t requests = 0;
  std::uint64_t request = 0;  // current request id
  bool sampled = false;
  std::uint64_t child_ns = 0;
  SpanTotals totals;
  std::vector<SpanRecord> kept;
};

std::atomic<std::uint64_t> g_next_book{1};
thread_local std::uint64_t t_book = 0;
thread_local ThreadSpans* t_spans = nullptr;

// Every thread's span sink for one traced stack. A thread registers on its
// first span; reset() and totals() require the clients to be quiescent.
class SpanBook {
 public:
  void begin_request() {
    ThreadSpans& ts = local();
    ts.request = (std::uint64_t{ts.thread} << 40) | ts.requests;
    ts.sampled = ts.requests % kSampleEvery == 0;
    ++ts.requests;
    ts.child_ns = 0;
  }
  void end_request(std::uint64_t t0, std::uint64_t t1) {
    ThreadSpans& ts = local();
    record(ts, kCall, t0, t1);
    ts.totals.call_self_ns += (t1 - t0) - ts.child_ns;
  }
  void record(Span kind, std::uint64_t t0, std::uint64_t t1) { record(local(), kind, t0, t1); }

  void reset() {
    std::lock_guard<std::mutex> guard(mu_);
    for (auto& ts : threads_) {
      ts->totals = SpanTotals{};
      ts->kept.clear();
    }
  }
  SpanTotals totals() const {
    std::lock_guard<std::mutex> guard(mu_);
    SpanTotals out;
    for (const auto& ts : threads_) out.add(ts->totals);
    return out;
  }
  void append_kept(std::vector<SpanRecord>& out) const {
    std::lock_guard<std::mutex> guard(mu_);
    for (const auto& ts : threads_) out.insert(out.end(), ts->kept.begin(), ts->kept.end());
  }

 private:
  ThreadSpans& local() {
    if (t_book != id_) {
      std::lock_guard<std::mutex> guard(mu_);
      threads_.push_back(std::make_unique<ThreadSpans>());
      threads_.back()->thread = static_cast<std::uint32_t>(threads_.size() - 1);
      t_spans = threads_.back().get();
      t_book = id_;
    }
    return *t_spans;
  }
  static void record(ThreadSpans& ts, Span kind, std::uint64_t t0, std::uint64_t t1) {
    const std::uint64_t d = t1 - t0;
    ts.totals.ns[kind] += d;
    ++ts.totals.calls[kind];
    if (kChildOfCall[kind]) ts.child_ns += d;
    if (ts.sampled) ts.kept.push_back({ts.request, ts.thread, kind, t0, d});
  }

  const std::uint64_t id_ = g_next_book.fetch_add(1);
  mutable std::mutex mu_;  // guards threads_ (the vector, not the sinks)
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

// ---- Timing wrappers at the layer interfaces ----

class TimedOrigin final : public ulc::Origin {
 public:
  TimedOrigin(ulc::Origin& inner, SpanBook& book, Span read_kind, Span write_kind)
      : inner_(inner), book_(book), read_kind_(read_kind), write_kind_(write_kind) {}
  void read(BlockId block, std::span<std::byte> out) override {
    const std::uint64_t t0 = now_ns();
    inner_.read(block, out);
    book_.record(read_kind_, t0, now_ns());
  }
  void write(BlockId block, std::span<const std::byte> data) override {
    const std::uint64_t t0 = now_ns();
    inner_.write(block, data);
    book_.record(write_kind_, t0, now_ns());
  }

 private:
  ulc::Origin& inner_;
  SpanBook& book_;
  Span read_kind_;
  Span write_kind_;
};

class TimedNearTier final : public ulc::NearTier {
 public:
  TimedNearTier(std::unique_ptr<ulc::NearTier> inner, SpanBook& book)
      : inner_(std::move(inner)), book_(book) {}
  bool fetch(BlockId block, std::span<std::byte> out) override {
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->fetch(block, out);
    book_.record(kNearFetch, t0, now_ns());
    return ok;
  }
  void store(BlockId block, std::span<const std::byte> data) override {
    const std::uint64_t t0 = now_ns();
    inner_->store(block, data);
    book_.record(kNearStore, t0, now_ns());
  }
  std::size_t capacity_blocks() const override { return inner_->capacity_blocks(); }
  std::size_t block_size() const override { return inner_->block_size(); }

 protected:
  void do_evict(BlockId block) override {
    const std::uint64_t t0 = now_ns();
    inner_->evict(block);
    book_.record(kNearEvict, t0, now_ns());
  }

 private:
  std::unique_ptr<ulc::NearTier> inner_;
  SpanBook& book_;
};

class TimedListener final : public ulc::PlacementListener {
 public:
  TimedListener(ulc::PlacementListener& inner, SpanBook& book) : inner_(inner), book_(book) {}
  void on_placement(const ulc::PlacementEvent& event) override {
    const std::uint64_t t0 = now_ns();
    inner_.on_placement(event);
    book_.record(kDirPush, t0, now_ns());
  }

 private:
  ulc::PlacementListener& inner_;
  SpanBook& book_;
};

// The composition ServingRuntime's constructor builds (memory origin ->
// synchronized origin -> ShardedBlockCache over memory near tiers, with a
// default DirectoryServer as the placement listener), plus the wrappers.
// Members are destroyed in reverse order: the cache (whose flush still
// posts events) goes first, then the listener and the directory.
class TracedStack {
 public:
  TracedStack(const StackShape& shape, ulc::Origin& backing)
      : service_(backing, book_, kOriginRead, kOriginWrite),
        synced_(ulc::make_synchronized_origin(service_)),
        outer_(*synced_, book_, kOriginWait, kOriginWait),
        directory_(ulc::DirectoryConfig{}),
        listener_(directory_, book_) {
    ulc::BlockCacheConfig per_shard;
    per_shard.block_size = kBlockSize;
    per_shard.memory_blocks = shape.ram_per_shard;
    const std::size_t near_blocks = shape.near_per_shard;
    cache_ = std::make_unique<ulc::ShardedBlockCache>(
        per_shard, shape.shards,
        [this, near_blocks](std::size_t) {
          return std::make_unique<TimedNearTier>(
              ulc::make_memory_near_tier(near_blocks, kBlockSize), book_);
        },
        outer_);
    cache_->set_placement_listener(&listener_);
  }

  void read(BlockId block, std::span<std::byte> out) {
    book_.begin_request();
    const std::uint64_t t0 = now_ns();
    cache_->read(block, out);
    book_.end_request(t0, now_ns());
  }
  void write(BlockId block, std::span<const std::byte> in) {
    book_.begin_request();
    const std::uint64_t t0 = now_ns();
    cache_->write(block, in);
    book_.end_request(t0, now_ns());
  }
  void flush() { cache_->flush(); }
  ulc::BlockCacheStats stats() { return cache_->stats(); }

  void begin_measure() {
    book_.reset();
    waits_before_ = producer_waits();
  }
  // Directory pushes that blocked on a full queue since begin_measure().
  std::uint64_t producer_waits_delta() const { return producer_waits() - waits_before_; }
  const SpanBook& book() const { return book_; }

 private:
  std::uint64_t producer_waits() const {
    std::uint64_t waits = 0;
    for (const ulc::DirectoryShardStats& s : directory_.stats().shards)
      waits += s.queue.producer_waits;
    return waits;
  }

  SpanBook book_;
  TimedOrigin service_;
  std::unique_ptr<ulc::Origin> synced_;
  TimedOrigin outer_;
  ulc::DirectoryServer directory_;
  TimedListener listener_;
  std::unique_ptr<ulc::ShardedBlockCache> cache_;
  std::uint64_t waits_before_ = 0;
};

// Everything the serving-layer metrics are computed from.
struct ServingLayers {
  SpanTotals spans;
  ulc::BlockCacheStats cache;
  std::uint64_t producer_waits = 0;
  std::vector<SpanRecord> kept;

  void capture(const TracedStack& stack) {
    spans.add(stack.book().totals());
    stack.book().append_kept(kept);
    producer_waits += stack.producer_waits_delta();
  }
  void add_cache(const ulc::BlockCacheStats& delta) {
    cache.memory_hits += delta.memory_hits;
    cache.near_hits += delta.near_hits;
    cache.origin_reads += delta.origin_reads;
    cache.demotions += delta.demotions;
    cache.writebacks += delta.writebacks;
    cache.reads += delta.reads;
    cache.writes += delta.writes;
  }
};

// ---- Chrome trace ----

struct ChromeSpan {
  std::string name;
  std::uint64_t tid;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint64_t request;
};

void write_chrome_trace(const std::string& path, std::vector<ChromeSpan> spans) {
  if (path.empty()) return;
  std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
  for (const ChromeSpan& s : spans) origin = std::min(origin, s.start_ns);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const ChromeSpan& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"request\":%llu}}",
                  s.name.c_str(), static_cast<unsigned long long>(s.tid),
                  static_cast<double>(s.start_ns - origin) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0,
                  static_cast<unsigned long long>(s.request));
    out << buf << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

std::vector<ChromeSpan> to_chrome(const std::vector<SpanRecord>& kept) {
  std::vector<ChromeSpan> out;
  out.reserve(kept.size());
  for (const SpanRecord& r : kept)
    out.push_back({kSpanName[r.kind], r.thread, r.start_ns, r.dur_ns, r.request});
  return out;
}

// ---- Standalone engine and index replays ----

struct KeyStream {
  std::vector<std::size_t> caps;  // UlcClient capacities
  std::vector<BlockId> keys;
};

// ns per access of a standalone UlcClient, after an untimed first tenth.
double ulc_access_ns(const std::vector<KeyStream>& streams) {
  std::uint64_t ns = 0, n = 0;
  for (const KeyStream& s : streams) {
    ulc::UlcConfig config;
    config.capacities = s.caps;
    ulc::UlcClient engine(config);
    const std::size_t warm = s.keys.size() / 10;
    for (std::size_t i = 0; i < warm; ++i) engine.access(s.keys[i]);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = warm; i < s.keys.size(); ++i) engine.access(s.keys[i]);
    ns += now_ns() - t0;
    n += s.keys.size() - warm;
  }
  return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

// ns per find-or-insert of every key into a FlatMap.
double flatmap_find_ns(const std::vector<KeyStream>& streams) {
  std::uint64_t ns = 0, n = 0;
  for (const KeyStream& s : streams) {
    ulc::FlatMap<BlockId, std::uint32_t> index;
    const std::uint64_t t0 = now_ns();
    for (BlockId key : s.keys) {
      if (std::uint32_t* v = index.find(key)) {
        ++*v;
      } else {
        index.insert_new(key, 1);
      }
    }
    ns += now_ns() - t0;
    n += s.keys.size();
  }
  return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

// ---- Simulator layers ----

struct SimLayers {
  std::uint64_t refs = 0;           // trace references, warm-up included
  std::uint64_t measured_refs = 0;
  std::uint64_t cell_ns = 0;        // single-cell run_matrix (observe on)
  std::uint64_t observed_ns = 0;    // run_scheme, observe on
  std::uint64_t bare_ns = 0;        // run_scheme, observe off
  std::uint64_t batch_ns = 0;       // access_batch alone
  std::uint64_t writebacks = 0;
  std::uint64_t demotions = 0;
  std::uint64_t pages_carved = 0;   // slab pages carved after warm-up
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> scheme_ns_refs;
  std::uint64_t failed_cells = 0;   // direct replay disagreed with run_matrix
  std::vector<ChromeSpan> spans;
};

std::uint64_t slab_pages(const ulc::MultiLevelScheme& scheme) {
  std::uint64_t pages = 0;
  for (std::size_t i = 0; i < scheme.audit_stack_count(); ++i)
    pages += scheme.audit_stack(i)->slab_stats().pages_carved;
  return pages;
}

SimLayers sim_layers(const std::vector<ulc::exp::ExperimentSpec>& specs) {
  SimLayers out;
  ulc::exp::MatrixOptions matrix;
  matrix.threads = 1;
  matrix.observe = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ulc::exp::ExperimentSpec& spec = specs[i];
    const ulc::Trace& trace = *spec.trace_override;
    const std::size_t warm = static_cast<std::size_t>(
        spec.warmup_fraction * static_cast<double>(trace.size()));

    const std::uint64_t c0 = now_ns();
    const std::vector<ulc::exp::CellResult> cell = ulc::exp::run_matrix({spec}, matrix);
    const std::uint64_t c1 = now_ns();

    ulc::SchemePtr observed = spec.factory(trace);
    ulc::obs::MetricsRegistry registry;
    ulc::RunObservation observe;
    observe.metrics = &registry;
    const std::uint64_t o0 = now_ns();
    ulc::run_scheme(*observed, trace, spec.model, spec.warmup_fraction, observe);
    const std::uint64_t o1 = now_ns();

    ulc::SchemePtr bare = spec.factory(trace);
    const std::uint64_t b0 = now_ns();
    ulc::run_scheme(*bare, trace, spec.model, spec.warmup_fraction);
    const std::uint64_t b1 = now_ns();

    ulc::SchemePtr direct = spec.factory(trace);
    const std::span<const ulc::Request> all(trace.requests());
    const std::uint64_t d0 = now_ns();
    direct->access_batch(all.first(warm));
    const std::uint64_t d1 = now_ns();
    const std::uint64_t pages_at_warm = slab_pages(*direct);
    direct->reset_stats();
    const std::uint64_t d2 = now_ns();
    direct->access_batch(all.subspan(warm));
    const std::uint64_t d3 = now_ns();
    const std::uint64_t batch = (d1 - d0) + (d3 - d2);

    const ulc::HierarchyStats& s = direct->stats();
    if (ulc::counters_to_json(s).dump() != ulc::counters_to_json(cell[0].run.stats).dump())
      ++out.failed_cells;
    out.refs += trace.size();
    out.measured_refs += s.references;
    out.cell_ns += c1 - c0;
    out.observed_ns += o1 - o0;
    out.bare_ns += b1 - b0;
    out.batch_ns += batch;
    out.writebacks += s.writebacks;
    for (std::uint64_t d : s.demotions) out.demotions += d;
    out.pages_carved += slab_pages(*direct) - pages_at_warm;
    auto& [ns, refs] = out.scheme_ns_refs[spec.scheme];
    ns += batch;
    refs += trace.size();

    out.spans.push_back({"exp.cell " + spec.scheme + "/" + trace.name(), 0, c0, c1 - c0, i});
    out.spans.push_back({"hierarchy.run_scheme.observe", 0, o0, o1 - o0, i});
    out.spans.push_back({"hierarchy.run_scheme", 0, b0, b1 - b0, i});
    out.spans.push_back({"hierarchy.access_batch", 0, d0, d1 - d0, i});
    out.spans.push_back({"hierarchy.access_batch", 0, d2, d3 - d2, i});
  }
  return out;
}

// The serve stream as a single-client trace, replayed by the simulator's
// schemes at the serving stack's total capacities.
std::vector<ulc::exp::ExperimentSpec> serve_as_sim(const ServeWorkload& w,
                                                   const Streams& streams) {
  auto trace = std::make_shared<ulc::Trace>(w.name);
  const std::size_t n = streams[0].size();
  trace->reserve(n * streams.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& s : streams) {
      trace->add(s[i] & ~kWriteBit, 0,
                 (s[i] & kWriteBit) ? ulc::Op::kWrite : ulc::Op::kRead);
    }
  }
  const std::vector<std::size_t> caps = {w.shape.shards * w.shape.ram_per_shard,
                                         w.shape.shards * w.shape.near_per_shard};
  std::vector<ulc::exp::ExperimentSpec> specs;
  auto add = [&](const char* label, ulc::exp::SchemeFactory factory) {
    ulc::exp::ExperimentSpec spec;
    spec.scheme = label;
    spec.factory = std::move(factory);
    spec.trace_override = trace;
    spec.model = ulc::CostModel::paper_two_level();
    specs.push_back(std::move(spec));
  };
  add("indLRU", [caps](const ulc::Trace&) { return ulc::make_ind_lru(caps); });
  add("uniLRU", [caps](const ulc::Trace&) { return ulc::make_uni_lru(caps); });
  add("ULC", [caps](const ulc::Trace&) { return ulc::make_ulc(caps); });
  return specs;
}

// The sim workload's serving-stack shape: its first two cache levels split
// over four shards.
StackShape sim_shape(const std::string& workload, const ulc::Trace& trace) {
  if (workload == "sim-fig6") {
    const std::size_t cap = trace.name() == "tpcc1" ? 6400 : 12800;
    return {4, cap / 4, cap / 4};
  }
  return {4, 7 * 1024 / 4, 8192 / 4};
}

// Replays a prefix of each distinct trace through a fresh traced stack, one
// client, no content checks (the sim workloads check their own outputs).
void sim_through_serving(const std::string& workload,
                         const std::vector<ulc::exp::ExperimentSpec>& specs,
                         std::size_t prefix, ServingLayers& layers) {
  const ulc::Trace* last = nullptr;
  std::vector<std::byte> buf(kBlockSize);
  for (const auto& spec : specs) {
    const ulc::Trace& trace = *spec.trace_override;
    if (&trace == last) continue;
    last = &trace;
    std::unique_ptr<ulc::Origin> origin = ulc::make_memory_origin(kBlockSize);
    TracedStack stack(sim_shape(workload, trace), *origin);
    const std::size_t n = std::min(prefix, trace.size());
    const std::size_t warm = n / 10;
    ulc::BlockCacheStats before;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == warm) {
        stack.begin_measure();
        before = stack.stats();
      }
      const ulc::Request& r = trace[i];
      if (r.op == ulc::Op::kWrite) {
        fill_payload(buf, r.block, 1);
        stack.write(r.block, buf);
      } else {
        stack.read(r.block, buf);
      }
    }
    layers.capture(stack);
    layers.add_cache(stats_delta(stack.stats(), before));
  }
}

std::vector<KeyStream> sim_key_streams(const std::string& workload,
                                       const std::vector<ulc::exp::ExperimentSpec>& specs) {
  std::vector<KeyStream> out;
  const ulc::Trace* last = nullptr;
  for (const auto& spec : specs) {
    const ulc::Trace& trace = *spec.trace_override;
    if (&trace == last) continue;
    last = &trace;
    if (workload == "sim-fig6") {
      KeyStream ks;
      ks.caps.assign(3, trace.name() == "tpcc1" ? 6400 : 12800);
      for (const ulc::Request& r : trace) ks.keys.push_back(r.block);
      out.push_back(std::move(ks));
    } else {
      // One client engine per client's subsequence, at that client's cache
      // and the whole server cache.
      std::map<ulc::ClientId, KeyStream> by_client;
      for (const ulc::Request& r : trace) {
        KeyStream& ks = by_client[r.client];
        if (ks.caps.empty()) ks.caps = {1024, 8192};
        ks.keys.push_back(r.block);
      }
      for (auto& [client, ks] : by_client) out.push_back(std::move(ks));
    }
  }
  return out;
}

std::vector<KeyStream> serve_key_streams(const ServeWorkload& w, const Streams& streams) {
  std::vector<KeyStream> out(w.shape.shards);
  for (KeyStream& ks : out) ks.caps = {w.shape.ram_per_shard, w.shape.near_per_shard};
  const std::size_t n = streams[0].size();
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& s : streams) {
      const BlockId block = s[i] & ~kWriteBit;
      out[ulc::splitmix64_mix(block) % w.shape.shards].keys.push_back(block);
    }
  }
  return out;
}

// ---- Metrics ----

double per_k(std::uint64_t count, std::uint64_t base) {
  return base ? 1000.0 * static_cast<double>(count) / static_cast<double>(base) : 0.0;
}

double per_ref(std::uint64_t ns, std::uint64_t refs) {
  return refs ? static_cast<double>(ns) / static_cast<double>(refs) : 0.0;
}

double signed_per_ref(std::uint64_t a, std::uint64_t b, std::uint64_t refs) {
  return refs ? (static_cast<double>(a) - static_cast<double>(b)) / static_cast<double>(refs)
              : 0.0;
}

void report_layers(Report& report, const ServingLayers& sv, const SimLayers& sim,
                   double ulc_ns, double flatmap_ns, double overhead_pct) {
  const SpanTotals& s = sv.spans;
  const std::uint64_t ops = s.calls[kCall];
  const double self_ns = per_ref(s.call_self_ns, ops);
  report.metric("block_cache.call_ns", s.mean(kCall), "ns");
  report.metric("block_cache.self_ns", self_ns, "ns");
  report.metric("block_cache.rest_ns", self_ns - ulc_ns, "ns");
  report.metric("ulc.access_ns", ulc_ns, "ns");
  report.metric("tier.near_fetch_ns", s.mean(kNearFetch), "ns");
  report.metric("tier.near_store_ns", s.mean(kNearStore), "ns");
  report.metric("tier.near_evict_ns", s.mean(kNearEvict), "ns");
  report.metric("tier.near_ops_per_kop",
                per_k(s.calls[kNearFetch] + s.calls[kNearStore] + s.calls[kNearEvict], ops),
                "1/kop");
  report.metric("tier.origin_read_ns", s.mean(kOriginRead), "ns");
  report.info("tier.origin_write_ns", s.mean(kOriginWrite), "ns");
  report.info("tier.origin_writes_per_kop", per_k(s.calls[kOriginWrite], ops), "1/kop");
  const std::uint64_t service = s.ns[kOriginRead] + s.ns[kOriginWrite];
  const std::uint64_t wait = s.ns[kOriginWait] > service ? s.ns[kOriginWait] - service : 0;
  report.metric("sharded.origin_wait_ns", per_ref(wait, s.calls[kOriginWait]), "ns");
  report.metric("sharded.origin_wait_share",
                s.ns[kCall] ? static_cast<double>(wait) / static_cast<double>(s.ns[kCall]) : 0.0,
                "ratio");
  report.metric("serving.dir_push_ns", s.mean(kDirPush), "ns");
  report.metric("serving.dir_events_per_kop", per_k(s.calls[kDirPush], ops), "1/kop");
  report.metric("serving.dir_producer_waits", static_cast<double>(sv.producer_waits),
                "count");
  const CacheRates rates = cache_rates(sv.cache);
  report.metric("cache.ram_hit_ratio", rates.ram_hit_ratio, "ratio");
  report.metric("cache.near_hit_ratio", rates.near_hit_ratio, "ratio");
  report.metric("cache.demotions_per_kop", rates.demotions_per_kop, "1/kop");
  report.metric("cache.writebacks_per_kop", rates.writebacks_per_kop, "1/kop");
  report.info("serving.requests", static_cast<double>(ops), "count");

  report.metric("exp.cell_self_ns", signed_per_ref(sim.cell_ns, sim.observed_ns, sim.refs), "ns");
  report.metric("obs.observe_ns", signed_per_ref(sim.observed_ns, sim.bare_ns, sim.refs), "ns");
  report.metric("hierarchy.runner_self_ns", signed_per_ref(sim.bare_ns, sim.batch_ns, sim.refs),
                "ns");
  report.metric("hierarchy.access_ns", per_ref(sim.batch_ns, sim.refs), "ns");
  double ulc_cell_ns = 0.0;
  for (const auto& [scheme, nr] : sim.scheme_ns_refs) {
    std::string name = scheme;
    for (char& c : name)
      if (c == '/' || c == '+') c = '-';
    const double v = per_ref(nr.first, nr.second);
    report.info("hierarchy.access_ns." + name, v, "ns");
    if (scheme == "ULC") ulc_cell_ns = v;
  }
  report.metric("hierarchy.ulc_self_ns", ulc_cell_ns - ulc_ns, "ns");
  report.metric("util.flatmap_find_ns", flatmap_ns, "ns");
  report.metric("hierarchy.writebacks_per_kref", per_k(sim.writebacks, sim.measured_refs),
                "1/kref");
  report.metric("hierarchy.demotions_per_kref", per_k(sim.demotions, sim.measured_refs),
                "1/kref");
  report.metric("slab.pages_carved_after_warmup", static_cast<double>(sim.pages_carved),
                "count");
  report.metric("trace.overhead_pct", overhead_pct, "%");
}

// Relative agreement of two per-op rates (the traced stack must be the
// same program as the untraced one).
bool agrees(double a, double b) {
  return std::abs(a - b) <= 0.01 * std::max(std::abs(a), std::abs(b)) + 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const double half = opt.seconds / 2.0;
  const ServeWorkload* w = find_serve_workload(opt.workload);
  Report report;
  ServingLayers serving;
  std::vector<ulc::exp::ExperimentSpec> specs;
  std::vector<KeyStream> keys;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  double plain_rate = 0.0, traced_rate = 0.0;

  if (w) {
    // The untraced reference and the traced run, same streams and length.
    const Streams streams = make_streams(*w, opt.seed, opt.smoke);
    const ServeResult plain =
        run_serve<RuntimeStack>(*w, streams, opt, half, 1, [](RuntimeStack&) {});
    const ServeResult traced = run_serve<TracedStack>(
        *w, streams, opt, half, 1, [&](TracedStack& stack) { serving.capture(stack); });
    serving.add_cache(traced.measured);
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    plain_rate = median(plain.window_ops_per_s);
    traced_rate = median(traced.window_ops_per_s);
    const CacheRates a = cache_rates(plain.measured), b = cache_rates(traced.measured);
    const bool same = agrees(a.ram_hit_ratio, b.ram_hit_ratio) &&
                      agrees(a.near_hit_ratio, b.near_hit_ratio) &&
                      agrees(a.origin_io_per_kop, b.origin_io_per_kop);
    report.info("untraced.ram_hit_ratio", a.ram_hit_ratio, "ratio");
    report.info("untraced.near_hit_ratio", a.near_hit_ratio, "ratio");
    report.info("untraced.origin_io_per_kop", a.origin_io_per_kop, "io/kop");
    report.info("traced.origin_io_per_kop", b.origin_io_per_kop, "io/kop");
    report.info("counters_agree", same ? 1 : 0, "bool");
    // A smoke run's warm-up is too short for the rates to settle.
    correct = same || opt.smoke;
    specs = serve_as_sim(*w, streams);
    keys = serve_key_streams(*w, streams);
  } else {
    const SimResult plain = run_sim(opt, half, 1, &specs);
    attempted = plain.refs;
    failed = plain.failed_refs;
    correct = plain.failed_cells == 0;
    plain_rate = plain.ops_per_s;
    sim_through_serving(opt.workload, specs, opt.smoke ? 30000 : 300000, serving);
    keys = sim_key_streams(opt.workload, specs);
  }

  // sim_layers' run_matrix calls are the sim workloads' traced pass.
  const SimLayers sim = sim_layers(specs);
  attempted += sim.refs;
  correct = correct && sim.failed_cells == 0;
  if (!w) traced_rate = static_cast<double>(sim.refs) / (static_cast<double>(sim.cell_ns) * 1e-9);

  const double ulc_ns = ulc_access_ns(keys);
  const double flatmap_ns = flatmap_find_ns(keys);
  report_layers(report, serving, sim, ulc_ns, flatmap_ns,
                100.0 * (plain_rate - traced_rate) / plain_rate);
  const double self_ns = per_ref(serving.spans.call_self_ns, serving.spans.calls[kCall]);
  correct = correct && self_ns - ulc_ns >= 0.0 && failed == 0;

  std::vector<ChromeSpan> chrome = to_chrome(serving.kept);
  chrome.insert(chrome.end(), sim.spans.begin(), sim.spans.end());
  write_chrome_trace(opt.trace_out, std::move(chrome));
  report.finish(correct, attempted, failed);
  return 0;
}
