#include "bench_core.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <sys/resource.h>

#include "hierarchy/hierarchy.h"
#include "workloads/paper_presets.h"
#include "workloads/synthetic.h"

namespace bench {

// ---- Flags ----

namespace {

[[noreturn]] void bad_flag(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "error: --%s: %s\n", flag.c_str(), why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    bad_flag(flag, "expected a whole number, got '" + text + "'");
  return std::stoull(text);
}

double parse_seconds(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v > 0.0) || v > 3600.0)
    bad_flag(flag, "expected seconds in (0, 3600], got '" + text + "'");
  return v;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) bad_flag(arg, "expected a --flag");
    std::string key = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    }
    auto take = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) bad_flag(key, "missing value");
      return argv[++i];
    };
    if (key == "smoke") {
      o.smoke = true;
    } else if (key == "selftest") {
      o.selftest = true;
    } else if (key == "workload") {
      o.workload = take();
    } else if (key == "seed") {
      o.seed = parse_u64(key, take());
    } else if (key == "seconds") {
      o.seconds = parse_seconds(key, take());
    } else if (key == "trace") {
      // Each binary is one mode; run.sh picks the binary from this flag.
      const std::string t = take();
      if (t != "0" && t != "1") bad_flag(key, "expected 0 or 1");
    } else if (key == "trace-out") {
      o.trace_out = take();
    } else if (key == "dump-cells") {
      o.dump_cells = take();
    } else {
      bad_flag(key, "unknown flag");
    }
  }
  if (find_serve_workload(o.workload) == nullptr && !is_sim_workload(o.workload))
    bad_flag("workload", "unknown workload '" + o.workload +
                             "' (serve-hot, serve-churn, sim-fig6, sim-multi-write)");
  if (o.smoke) o.seconds /= 100.0;
  return o;
}

// ---- Statistics ----

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Linear interpolation between closest ranks.
double sample_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (rank < static_cast<double>(below + n)) {
      double lower = i;
      double width = 1.0;
      if (i >= kExact) {
        const int k = i - kExact;
        const int shift = k / kSub + 1;
        lower = std::ldexp(static_cast<double>(kSub + k % kSub), shift);
        width = std::ldexp(1.0, shift);
      }
      // Samples spread evenly across the bucket.
      return lower + width * ((rank - static_cast<double>(below) + 0.5) /
                              static_cast<double>(n));
    }
    below += n;
  }
  return 0.0;
}

double LatencyHistogram::supported_percentile(std::uint64_t beyond) const {
  double best = 0.0;
  for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}) {
    if (static_cast<double>(count_) * (1.0 - p) >= static_cast<double>(beyond))
      best = p;
  }
  return best;
}

// ---- Report ----

namespace {

std::string fmt_full(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
  std::printf("metric %-32s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::info(const std::string& name, double value, const std::string& unit) {
  std::printf("info   %-32s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::finish(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    if (i) line += ", ";
    line += "\"" + name + "\": {\"value\": " + fmt_full(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Payloads ----

void fill_payload(std::span<std::byte> out, BlockId block, std::uint32_t version) {
  for (std::size_t i = 0; i < kBlockSize / 8; ++i) {
    const std::uint64_t w = payload_word(block, version, i);
    std::memcpy(out.data() + 8 * i, &w, 8);
  }
}

bool check_payload(std::span<const std::byte> data, BlockId block, bool full,
                   std::uint32_t* version) {
  auto word = [&](std::size_t i) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + 8 * i, 8);
    return w;
  };
  const std::uint64_t first = word(0);  // payload_word(block, v, 0)
  if ((first >> 32) != block) return false;
  const std::uint32_t v = static_cast<std::uint32_t>(first);
  constexpr std::size_t kWords = kBlockSize / 8;
  if (word(kWords - 1) != payload_word(block, v, kWords - 1)) return false;
  if (full) {
    for (std::size_t i = 1; i + 1 < kWords; ++i)
      if (word(i) != payload_word(block, v, i)) return false;
  }
  *version = v;
  return true;
}

void FlippingOrigin::read(BlockId block, std::span<std::byte> out) {
  inner_.read(block, out);
  out[kBlockSize / 2] ^= std::byte{0x5a};
}

// ---- Serving workloads ----

namespace {

// serve-hot: Zipf 0.99 over 32 Ki blocks against 24 Ki cached blocks, so
// ~97% of calls hit and the steady trickle of tail misses keeps origin IO
// non-zero without depending on run length.
// serve-churn: Zipf 0.8 over 64 Ki blocks against 10 Ki cached blocks (6.4x
// oversubscribed), 30% writes drawn, two clients.
constexpr ServeWorkload kServeWorkloads[] = {
    {"serve-hot", 1, 32768, 0.99, 0.05, {4, 2048, 4096}, 1000000, 4000000},
    {"serve-churn", 2, 65536, 0.80, 0.30, {4, 512, 2048}, 400000, 2000000},
};

ulc::ServingConfig serving_config(const StackShape& shape) {
  ulc::ServingConfig c;
  c.per_shard.block_size = kBlockSize;
  c.per_shard.memory_blocks = shape.ram_per_shard;
  c.cache_shards = shape.shards;
  c.near_blocks_per_shard = shape.near_per_shard;
  return c;
}

}  // namespace

const ServeWorkload* find_serve_workload(const std::string& name) {
  for (const ServeWorkload& w : kServeWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

bool is_sim_workload(const std::string& name) {
  return name == "sim-fig6" || name == "sim-multi-write";
}

Streams make_streams(const ServeWorkload& w, std::uint64_t seed, bool smoke) {
  const std::uint64_t n = smoke ? w.stream_ops / 100 : w.stream_ops;
  Streams out(w.threads);
  for (std::size_t t = 0; t < w.threads; ++t) {
    // One popularity ranking (scramble seed) shared by all clients; each
    // client draws its own sequence.
    ulc::PatternPtr source = ulc::make_zipf_source(0, w.blocks, w.theta, true, seed);
    ulc::Rng rng(ulc::splitmix64_mix(seed) + t);
    out[t].reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const BlockId block = source->next(rng);
      const bool write = rng.next_bool(w.write_fraction);
      out[t].push_back(block | (write && owner_of(block, w.threads) == t ? kWriteBit : 0));
    }
  }
  return out;
}

ClientPool::ClientPool(std::size_t threads) {
  for (std::size_t i = 0; i < threads; ++i) threads_.emplace_back([this, i] { work(i); });
}

ClientPool::~ClientPool() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ClientPool::run(const std::function<void(std::size_t)>& job) {
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &job;
  pending_ = threads_.size();
  ++generation_;
  cv_.notify_all();
  cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
}

void ClientPool::work(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(index);
    std::lock_guard<std::mutex> guard(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }
}

void collect_measured(const std::vector<ClientState>& clients, const Windows& win,
                      ServeResult& out) {
  const double width_s = static_cast<double>(win.width_ns) * 1e-9;
  for (std::size_t w = 0; w < win.count; ++w) {
    std::uint64_t ops = 0;
    LatencyHistogram latency;
    for (const ClientState& c : clients) {
      ops += c.window_ops[w];
      latency.merge(c.window_latency[w]);
    }
    out.window_ops_per_s.push_back(static_cast<double>(ops) / width_s);
    out.window_p50_ns.push_back(latency.quantile(0.5));
    out.window_p99_ns.push_back(latency.quantile(0.99));
  }
  for (const ClientState& c : clients) {
    out.ops += c.ops;
    out.failed += c.failed;
    out.reads.merge(c.reads);
    out.writes.merge(c.writes);
  }
  out.attempted += out.ops;
  out.wall_s = width_s * static_cast<double>(win.count);
}

RuntimeStack::RuntimeStack(const StackShape& shape, ulc::Origin& backing)
    : runtime_(serving_config(shape), backing) {}

void fill_origin(ulc::Origin& origin, std::uint64_t blocks) {
  std::vector<std::byte> buf(kBlockSize);
  for (BlockId b = 0; b < blocks; ++b) {
    fill_payload(buf, b, 0);
    origin.write(b, buf);
  }
}

std::uint64_t verify_origin(ulc::Origin& origin, const std::vector<ClientState>& clients,
                            std::uint64_t* checked) {
  std::vector<std::byte> buf(kBlockSize);
  std::uint64_t failed = 0;
  for (const ClientState& c : clients) {
    for (BlockId b = 0; b < c.versions.size(); ++b) {
      if (c.versions[b] == 0) continue;
      ++*checked;
      origin.read(b, buf);
      std::uint32_t v = 0;
      if (!check_payload(buf, b, true, &v) || v != c.versions[b]) ++failed;
    }
  }
  return failed;
}

ulc::BlockCacheStats stats_delta(const ulc::BlockCacheStats& a,
                                 const ulc::BlockCacheStats& b) {
  ulc::BlockCacheStats d;
  d.memory_hits = a.memory_hits - b.memory_hits;
  d.near_hits = a.near_hits - b.near_hits;
  d.origin_reads = a.origin_reads - b.origin_reads;
  d.demotions = a.demotions - b.demotions;
  d.writebacks = a.writebacks - b.writebacks;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  return d;
}

CacheRates cache_rates(const ulc::BlockCacheStats& s) {
  CacheRates r;
  const double ops = static_cast<double>(s.reads + s.writes);
  if (ops == 0) return r;
  r.ram_hit_ratio = static_cast<double>(s.memory_hits) / ops;
  r.near_hit_ratio = static_cast<double>(s.near_hits) / ops;
  r.origin_io_per_kop = 1000.0 * static_cast<double>(s.origin_reads + s.writebacks) / ops;
  r.demotions_per_kop = 1000.0 * static_cast<double>(s.demotions) / ops;
  r.writebacks_per_kop = 1000.0 * static_cast<double>(s.writebacks) / ops;
  return r;
}

// ---- Simulator workloads ----

std::vector<ulc::exp::ExperimentSpec> make_sim_specs(const std::string& workload,
                                                     std::uint64_t seed, bool smoke) {
  using ulc::exp::SchemeFactory;
  std::vector<ulc::exp::ExperimentSpec> specs;
  auto add = [&](std::string label, SchemeFactory factory,
                 std::shared_ptr<const ulc::Trace> trace, const ulc::CostModel& model) {
    ulc::exp::ExperimentSpec spec;
    spec.scheme = std::move(label);
    spec.factory = std::move(factory);
    spec.trace_override = std::move(trace);
    spec.model = model;
    spec.warmup_fraction = 0.1;
    specs.push_back(std::move(spec));
  };
  if (workload == "sim-fig6") {
    // The Figure 6 grid at the paper's cache sizes.
    const double scale = smoke ? 0.001 : 0.1;
    const ulc::CostModel model = ulc::CostModel::paper_three_level();
    for (const char* name : {"random", "zipf", "httpd", "dev1", "tpcc1"}) {
      auto trace = std::make_shared<const ulc::Trace>(ulc::make_preset(name, scale, seed));
      const std::vector<std::size_t> caps(3, std::string(name) == "tpcc1" ? 6400 : 12800);
      add("indLRU", [caps](const ulc::Trace&) { return ulc::make_ind_lru(caps); }, trace, model);
      add("uniLRU", [caps](const ulc::Trace&) { return ulc::make_uni_lru(caps); }, trace, model);
      add("ULC", [caps](const ulc::Trace&) { return ulc::make_ulc(caps); }, trace, model);
    }
  } else {
    // Seven web clients with 30% writes: the multi-client and dirty
    // write-back paths sim-fig6 never runs.
    const double scale = smoke ? 0.01 : 1.0;
    const ulc::CostModel model = ulc::CostModel::paper_two_level();
    auto trace = std::make_shared<const ulc::Trace>(
        ulc::with_writes(ulc::make_preset("httpd-multi", scale, seed), 0.3, seed));
    constexpr std::size_t kClient = 1024, kServer = 8192, kClients = 7;
    add("indLRU", [](const ulc::Trace&) {
          return ulc::make_ind_lru({kClient, kServer}, kClients);
        }, trace, model);
    add("uniLRU/mru", [](const ulc::Trace&) {
          return ulc::make_uni_lru_multi(kClient, kServer, kClients,
                                         ulc::UniLruInsertion::kMru);
        }, trace, model);
    add("LRU+MQ", [](const ulc::Trace&) {
          return ulc::make_mq_hierarchy(kClient, kServer, kClients);
        }, trace, model);
    add("ULC", [](const ulc::Trace&) {
          return ulc::make_ulc_multi(kClient, kServer, kClients);
        }, trace, model);
  }
  return specs;
}

namespace {

std::string cell_line(const ulc::exp::ExperimentSpec& spec, const ulc::HierarchyStats& s) {
  ulc::Json cell = ulc::Json::object();
  cell.set("scheme", spec.scheme);
  cell.set("trace", spec.trace_override->name());
  cell.set("counters", ulc::counters_to_json(s));
  return cell.dump();
}

// Every measured reference is a hit at exactly one level or a miss, and the
// measured span is the trace minus the runner's warm-up prefix.
bool conserved(const ulc::exp::ExperimentSpec& spec, const ulc::HierarchyStats& s) {
  const std::size_t size = spec.trace_override->size();
  const std::size_t warmup =
      static_cast<std::size_t>(spec.warmup_fraction * static_cast<double>(size));
  std::uint64_t served = s.misses;
  for (std::uint64_t h : s.level_hits) served += h;
  return served == s.references && s.references == size - warmup;
}

std::vector<std::string> read_expected(const std::string& workload) {
  std::ifstream in(std::string(BENCH_EXPECTED_DIR) + "/" + workload + ".json");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line == "[" || line == "]") continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

SimResult run_sim(const Options& opt, double seconds, int reps,
                  std::vector<ulc::exp::ExperimentSpec>* specs_out) {
  SimResult out;
  std::vector<ulc::exp::ExperimentSpec> specs;
  for (int rep = 0; rep < reps; ++rep) {
    specs.clear();
    const std::uint64_t t0 = now_ns();
    specs = make_sim_specs(opt.workload, opt.seed, opt.smoke);
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::vector<std::vector<ulc::exp::ExperimentSpec>> singles;
  for (const auto& spec : specs) singles.push_back({spec});
  ulc::exp::MatrixOptions matrix;
  matrix.threads = 1;
  matrix.observe = true;

  const bool check_expected = !opt.smoke && opt.seed == 1 && opt.dump_cells.empty();
  const std::vector<std::string> expected =
      check_expected ? read_expected(opt.workload) : std::vector<std::string>{};
  std::vector<std::string> first;
  // At least three passes (a per-cell median needs them); another pass
  // only when it is expected to end within `seconds`.
  out.cell_ns.assign(singles.size(), {});
  const std::uint64_t start = now_ns();
  double pass_s = 0.0;
  for (; out.passes < 3 ||
         static_cast<double>(now_ns() - start) * 1e-9 + pass_s <= seconds;
       ++out.passes) {
    const std::uint64_t pass_start = now_ns();
    for (std::size_t i = 0; i < singles.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      const std::vector<ulc::exp::CellResult> cell =
          ulc::exp::run_matrix(singles[i], matrix);
      const std::uint64_t dt = now_ns() - t0;
      out.cell_ns[i].push_back(static_cast<double>(dt));
      out.wall_s += static_cast<double>(dt) * 1e-9;
      const std::size_t refs = specs[i].trace_override->size();
      out.refs += refs;

      ulc::HierarchyStats stats = cell[0].run.stats;
      if (opt.selftest && i == 0) ++stats.misses;
      const std::string line = cell_line(specs[i], stats);
      bool ok = conserved(specs[i], stats);
      if (out.passes == 0) {
        first.push_back(line);
        out.stats.push_back(stats);
        if (check_expected) ok = ok && i < expected.size() && expected[i] == line;
      } else {
        ok = ok && line == first[i];
      }
      if (!ok) {
        ++out.failed_cells;
        out.failed_refs += refs;
      }
    }
    pass_s = static_cast<double>(now_ns() - pass_start) * 1e-9;
  }
  // Each cell's median time over passes. A request here is one reference,
  // so the latency samples are each cell's time per reference.
  std::vector<double> per_ref_ns;
  double refs_per_pass = 0.0, median_pass_ns = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double cell = median(out.cell_ns[i]);
    const double refs = static_cast<double>(specs[i].trace_override->size());
    per_ref_ns.push_back(cell / refs);
    median_pass_ns += cell;
    refs_per_pass += refs;
  }
  out.ops_per_s = refs_per_pass / (median_pass_ns * 1e-9);
  out.p50_ns = sample_quantile(per_ref_ns, 0.5);
  out.p99_ns = sample_quantile(per_ref_ns, 0.99);
  if (check_expected && expected.size() != specs.size()) ++out.failed_cells;

  if (!opt.dump_cells.empty()) {
    std::ofstream dump(opt.dump_cells);
    dump << "[\n";
    for (std::size_t i = 0; i < first.size(); ++i)
      dump << first[i] << (i + 1 < first.size() ? ",\n" : "\n");
    dump << "]\n";
  }

  std::uint64_t disk = 0, measured = 0;
  for (const ulc::HierarchyStats& s : out.stats) {
    disk += s.misses + s.writebacks;
    for (std::uint64_t r : s.reloads) disk += r;
    measured += s.references;
  }
  out.origin_io_per_kop =
      measured ? 1000.0 * static_cast<double>(disk) / static_cast<double>(measured) : 0.0;
  if (specs_out) *specs_out = std::move(specs);
  return out;
}

// ---- Common report pieces ----

namespace {

std::string pct_label(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", p * 100.0);
  return buf;
}

void report_latency(Report& report, const std::string& kind, const LatencyHistogram& h) {
  report.info(kind + "_samples", static_cast<double>(h.count()), "count");
  if (h.count() == 0) return;
  report.info(kind + "_p50_us", h.quantile(0.5) / 1000.0, "us");
  report.info(kind + "_p99_us", h.quantile(0.99) / 1000.0, "us");
  const double top = h.supported_percentile();
  if (top > 0.99)
    report.info(kind + "_" + pct_label(top) + "_us", h.quantile(top) / 1000.0, "us");
}

}  // namespace

void report_serve(Report& report, const ServeResult& r, double gen_s,
                  double rss_base_mb) {
  LatencyHistogram all = r.reads;
  all.merge(r.writes);
  const CacheRates rates = cache_rates(r.measured);
  report.metric("ops_per_s", median(r.window_ops_per_s), "ops/s");
  report.metric("p50_us", median(r.window_p50_ns) / 1000.0, "us");
  report.metric("p99_us", median(r.window_p99_ns) / 1000.0, "us");
  report.metric("origin_io_per_kop", rates.origin_io_per_kop, "io/kop");
  report.metric("setup_s", median(r.setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb() - rss_base_mb, "MiB");
  report.info("windows", static_cast<double>(r.window_ops_per_s.size()), "count");
  report.info("mean_ops_per_s", static_cast<double>(r.ops) / r.wall_s, "ops/s");
  report_latency(report, "call", all);
  report_latency(report, "read", r.reads);
  report_latency(report, "write", r.writes);
  report.info("gen_s", gen_s, "s");
  report.info("measured_s", r.wall_s, "s");
  report.info("ops_failed_ratio",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio");
  report.info("ram_hit_ratio", rates.ram_hit_ratio, "ratio");
  report.info("near_hit_ratio", rates.near_hit_ratio, "ratio");
}

void report_sim(Report& report, const SimResult& r, double rss_base_mb) {
  report.metric("ops_per_s", r.ops_per_s, "ops/s");
  report.metric("p50_us", r.p50_ns / 1000.0, "us");
  report.metric("p99_us", r.p99_ns / 1000.0, "us");
  report.metric("origin_io_per_kop", r.origin_io_per_kop, "io/kop");
  report.metric("setup_s", median(r.setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb() - rss_base_mb, "MiB");
  report.info("cells", static_cast<double>(r.cell_ns.size()), "count");
  report.info("passes", static_cast<double>(r.passes), "count");
  report.info("mean_ops_per_s", static_cast<double>(r.refs) / r.wall_s, "ops/s");
  report.info("ops_failed_ratio",
              static_cast<double>(r.failed_refs) / static_cast<double>(r.refs), "ratio");
}

}  // namespace bench
