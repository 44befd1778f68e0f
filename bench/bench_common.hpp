// Shared infrastructure for the perf benches: option parsing, timed
// experiment runs, and the BENCH_*.json perf-trajectory report.
//
// The paper's figure/table grids no longer live here — they are SweepSpec
// presets (`sweep_run --preset fig4` … — see src/sweep/spec.hpp), which
// run sharded, resumable, and byte-deterministic instead of via an
// in-process thread pool.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/json_mini.hpp"
#include "src/core/soc.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/registry.hpp"

namespace soc::bench {

struct BenchOptions {
  std::size_t nodes = 384;        ///< scaled default; --full → 2000
  double hours = 6.0;             ///< scaled default; --full → 24
  std::uint64_t seed = 1;
  bool full = false;
  std::string json_path;          ///< --json <path>: emit a BENCH_*.json

  static BenchOptions parse(int argc, char** argv) {
    const CliArgs args(argc, argv);
    BenchOptions o;
    o.full = args.get_bool("full", false);
    o.nodes = static_cast<std::size_t>(
        args.get_int("nodes", o.full ? 2000 : 384));
    o.hours = args.get_double("hours", o.full ? 24.0 : 6.0);
    o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    o.json_path = args.get("json", "");
    return o;
  }

  [[nodiscard]] core::ExperimentConfig base_config() const {
    core::ExperimentConfig c;
    c.nodes = nodes;
    c.duration = seconds(hours * 3600.0);
    c.sample_step = seconds(3600);
    c.seed = seed;
    return c;
  }

  void print_header(const char* what) const {
    std::printf("# %s\n", what);
    std::printf("# nodes=%zu duration=%.1fh seed=%llu%s\n", nodes, hours,
                static_cast<unsigned long long>(seed),
                full ? " (paper scale)" : " (scaled; pass --full for paper scale)");
  }
};

// ---------------------------------------------------------------------------
// Perf-trajectory JSON (--json <path>).
//
// Every bench can emit a machine-readable BENCH_*.json so successive PRs
// have a perf baseline to beat.  Schema (one object per file):
//   {
//     "bench": "<name>",            // e.g. "hotpath"
//     "nodes": 384, "hours": 6.0, "seed": 1, "full": false,
//     "peak_rss_bytes": 123456789,  // getrusage high-water mark
//     "peak_rss_bytes_per_node": 321412.0,  // per configured node
//     "experiments": [
//       { "name": "HID-CAN", "wall_seconds": 1.23,
//         "events": 1000, "events_per_sec": 813.0,
//         "messages": 500, "messages_per_sec": 406.5,
//         "t_ratio": 0.9, "f_ratio": 0.05, "msgs_per_node": 120.0,
//         "slot_span_ratio": 1.0,   // per-node map density (≥ 1.0)
//         "latency": {              // per-query tail latency (seconds)
//           "first_result": { "n": 100, "mean_s": 1.0, "p50_s": 0.8,
//                             "p95_s": 2.0, "p99_s": 3.0, "p999_s": 4.0 },
//           "finish": { ... } },
//         "traffic": [
//           { "type": "state-update", "sent": 10, "delivered": 9,
//             "lost": 1 } ] }
//     ]
//   }
//
// bench_compare diffs two such files and exits non-zero on regressions
// beyond a threshold (see bench/bench_compare.cpp).
// ---------------------------------------------------------------------------

/// One timed experiment run for the JSON report.
struct TimedRun {
  core::ExperimentResults results;
  double wall_seconds = 0.0;
};

/// Resident-set high-water mark of this process, in bytes.
inline std::uint64_t peak_rss_bytes() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(u.ru_maxrss);  // macOS reports bytes
#else
  return static_cast<std::uint64_t>(u.ru_maxrss) * 1024;  // Linux: KiB
#endif
}

/// Run one config under a wall-clock timer and record the hot-path rates.
/// With a TimeProfiler, each delivered message's handler is additionally
/// timed into the profiler's per-MsgType bucket (pure observer on the
/// trajectory, but it costs a clock pair per delivery — keep it off for
/// the rate figures the trajectory gate compares).
inline TimedRun timed_run(const core::ExperimentConfig& config,
                          obs::TimeProfiler* profiler = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  core::Experiment exp(config);
  exp.setup();
  if (profiler != nullptr) exp.bus().set_time_profiler(profiler);
  exp.run();
  core::ExperimentResults r = exp.results();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return {std::move(r), dt.count()};
}

/// One "latency" sub-object line for write_perf_json.
inline void write_latency_json(std::FILE* f, const char* key,
                               const metrics::LatencyHistogram& h,
                               const char* trailer) {
  std::fprintf(f,
               "\"%s\": { \"n\": %llu, \"mean_s\": %.6f, \"p50_s\": %.6f, "
               "\"p95_s\": %.6f, \"p99_s\": %.6f, \"p999_s\": %.6f }%s",
               key, static_cast<unsigned long long>(h.total()), h.mean_s(),
               h.percentile_s(50.0), h.percentile_s(95.0),
               h.percentile_s(99.0), h.percentile_s(99.9), trailer);
}

/// Emit the perf-trajectory JSON; returns false (with a warning) on I/O
/// failure so benches keep printing their tables regardless.
inline bool write_perf_json(const std::string& path, const char* bench_name,
                            const BenchOptions& opt,
                            const std::vector<TimedRun>& runs) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n",
               json_mini::escape(bench_name).c_str());
  std::fprintf(f, "  \"nodes\": %zu,\n", opt.nodes);
  std::fprintf(f, "  \"hours\": %.3f,\n", opt.hours);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(opt.seed));
  std::fprintf(f, "  \"full\": %s,\n", opt.full ? "true" : "false");
  const std::uint64_t rss = peak_rss_bytes();
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(rss));
  std::fprintf(f, "  \"peak_rss_bytes_per_node\": %.1f,\n",
               static_cast<double>(rss) /
                   static_cast<double>(std::max<std::size_t>(opt.nodes, 1)));
  std::fprintf(f, "  \"experiments\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const core::ExperimentResults& s = runs[i].results;
    const double wall_seconds = runs[i].wall_seconds;
    const double wall = wall_seconds > 0.0 ? wall_seconds : 1e-9;
    std::fprintf(f,
                 "    { \"name\": \"%s\", \"wall_seconds\": %.6f,\n"
                 "      \"events\": %llu, \"events_per_sec\": %.1f,\n"
                 "      \"messages\": %llu, \"messages_per_sec\": %.1f,\n"
                 "      \"t_ratio\": %.6f, \"f_ratio\": %.6f, "
                 "\"msgs_per_node\": %.3f,\n"
                 "      \"messages_partitioned\": %llu,\n"
                 "      \"stale_dead_provider\": %llu, "
                 "\"stale_misplaced\": %llu,\n"
                 "      \"slot_span_ratio\": %.3f,\n"
                 "      \"latency\": { ",
                 json_mini::escape(s.protocol).c_str(), wall_seconds,
                 static_cast<unsigned long long>(s.events_executed),
                 static_cast<double>(s.events_executed) / wall,
                 static_cast<unsigned long long>(s.total_messages),
                 static_cast<double>(s.total_messages) / wall, s.t_ratio,
                 s.f_ratio, s.msg_cost_per_node,
                 static_cast<unsigned long long>(s.messages_partitioned),
                 static_cast<unsigned long long>(s.stale_records_dead_provider),
                 static_cast<unsigned long long>(s.stale_records_misplaced),
                 s.slot_span_ratio);
    write_latency_json(f, "first_result", s.latency_first_result, ", ");
    write_latency_json(f, "finish", s.latency_finish, " },\n");
    std::fprintf(f, "      \"traffic\": [");
    for (std::size_t t = 0; t < s.traffic_by_type.size(); ++t) {
      const auto& m = s.traffic_by_type[t];
      std::fprintf(f,
                   "%s\n        { \"type\": \"%s\", \"sent\": %llu, "
                   "\"delivered\": %llu, \"lost\": %llu, "
                   "\"partitioned\": %llu }",
                   t > 0 ? "," : "", json_mini::escape(m.type).c_str(),
                   static_cast<unsigned long long>(m.sent),
                   static_cast<unsigned long long>(m.delivered),
                   static_cast<unsigned long long>(m.lost),
                   static_cast<unsigned long long>(m.partitioned));
    }
    // Registry snapshot as {"k","v"} pairs: metric names live inside
    // escaped string values (see src/obs/registry.hpp).
    std::fprintf(f, " ],\n      \"metrics\": [");
    for (std::size_t m = 0; m < s.metrics.size(); ++m) {
      std::fprintf(f, "%s\n        { \"k\": \"%s\", \"v\": %.6f }",
                   m > 0 ? "," : "",
                   json_mini::escape(s.metrics[m].name).c_str(),
                   s.metrics[m].value);
    }
    std::fprintf(f, " ] }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace soc::bench
