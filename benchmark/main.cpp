// ulc_benchmark — the end-to-end driver. Times only the public entry points:
// ServingRuntime::read/write for the serve-* workloads and exp::run_matrix
// for the sim-* workloads. Prints every end-to-end metric with its unit and
// ends stdout with one JSON result line.
//
//   ulc_benchmark --workload=NAME [--seed=N] [--seconds=S] [--smoke] [--selftest]
#include "bench_core.h"

int main(int argc, char** argv) {
  using namespace bench;
  const Options opt = parse_options(argc, argv);
  const int reps = opt.smoke ? 1 : 3;
  Report report;
  if (const ServeWorkload* w = find_serve_workload(opt.workload)) {
    const std::uint64_t g0 = now_ns();
    const Streams streams = make_streams(*w, opt.seed, opt.smoke);
    const double gen_s = static_cast<double>(now_ns() - g0) * 1e-9;
    const double rss_base = peak_rss_mb();
    const ServeResult r = run_serve<RuntimeStack>(*w, streams, opt, opt.seconds, reps,
                                                  [](RuntimeStack&) {});
    report_serve(report, r, gen_s, rss_base);
    report.finish(r.failed == 0, r.attempted, r.failed);
  } else {
    const double rss_base = peak_rss_mb();
    const SimResult r = run_sim(opt, opt.seconds, reps, nullptr);
    report_sim(report, r, rss_base);
    report.finish(r.failed_cells == 0, r.refs, r.failed_refs);
  }
  return 0;
}
