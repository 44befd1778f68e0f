// Host-time benchmark driver for the simulator (see NOTES.md).  One
// process makes one measurement of one workload; run.py launches it once
// per repetition, so every peak-RSS reading comes from a process that ran
// nothing else, and folds the repetitions into the BENCHMARK.json metrics.
//
//   perfbench --workload fig4-sweep|serving-zipf|scale-100k --seed N
//             --mode run|check|traced --dir WORKDIR [--tiny 1]
//             [--trace-out PATH]
//
//   run     timed and untraced: set-up, then the run up to results in
//           hand.  Prints setup_s (median of setup_reps() set-ups), run_s,
//           peak RSS growth per node and the output fingerprint.
//   check   fig4-sweep only: drive every cell through core::Experiment,
//           untraced, so each cell passes the run-end checks, and rebuild
//           the merged report from those cells.
//   traced  the per-layer pass: bus handler profiler, obs::Tracer, the
//           run driven in simulated-time slices, a CAN route probe.
//           Prints per-layer metrics and writes a Chrome trace.
//
// Every layer is timed from outside through public calls; the only hook
// inside the program is MessageBus::set_time_profiler.  Simulated
// statistics are not metrics here: they feed the fingerprint, which a
// speed-only change must leave bit-identical.
//
// The last stdout line is one JSON object; run.py reads only that line.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cli.hpp"
#include "src/common/json_mini.hpp"
#include "src/common/rng.hpp"
#include "src/core/experiment.hpp"
#include "src/core/khdn_protocol.hpp"
#include "src/core/pidcan_protocol.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/trace.hpp"
#include "src/sweep/io.hpp"
#include "src/sweep/merge.hpp"
#include "src/sweep/runner.hpp"
#include "src/workload/serving.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_HAS_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_HAS_SANITIZER 1
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

using namespace soc;
namespace fs = std::filesystem;

namespace {

/// Why this binary must not be timed, or nullptr.  Decided at compile
/// time: the library is built with the same flags as this file.
constexpr const char* build_refusal() {
#if !defined(__OPTIMIZE__)
  return "build is not optimised (__OPTIMIZE__ undefined)";
#elif !defined(NDEBUG)
  return "build keeps assertions (NDEBUG undefined)";
#elif defined(PERFBENCH_HAS_SANITIZER) || PERFBENCH_SANITIZED
  return "build is sanitized";
#else
  return nullptr;
#endif
}

// ---------------------------------------------------------------------------
// Workloads.  Sizes are chosen so that one repetition is a few seconds and
// run.py fits several into a run (medians, not single samples).
// ---------------------------------------------------------------------------

constexpr std::size_t kSweepShards = 3;   // exercises shard write + merge
constexpr int kSlices = 20;               // traced pass run_until slices
constexpr std::size_t kRouteProbes = 20000;

/// Set-up samples per run-mode process; the median is reported.  A set-up
/// takes milliseconds on the small workloads and about 2 s on scale-100k.
int setup_reps(const std::string& workload) {
  return workload == "scale-100k" ? 3 : 15;
}

core::ExperimentConfig serving_config(std::uint64_t seed, bool tiny) {
  core::ExperimentConfig c;
  c.protocol = core::ProtocolKind::kHidCan;
  c.nodes = tiny ? 64 : 2000;
  c.duration = seconds((tiny ? 0.3 : 2.0) * 3600.0);
  c.seed = seed;
  c.serving = *workload::serving_by_name("closed+zipf");
  return c;
}

core::ExperimentConfig scale_config(std::uint64_t seed, bool tiny) {
  core::ExperimentConfig c;
  c.protocol = core::ProtocolKind::kHidCan;
  c.nodes = tiny ? 400 : 100000;
  c.duration = seconds((tiny ? 0.05 : 0.01) * 3600.0);
  c.churn_dynamic_degree = 0.05;
  c.seed = seed;
  return c;
}

sweep::SweepSpec fig4_spec(std::uint64_t seed, bool tiny) {
  sweep::SweepSpec s = sweep::preset_by_name("fig4")->spec;
  s.base_seed = seed;
  if (tiny) {
    s.node_counts = {32};
    s.hours = 0.2;
  }
  return s.normalized();
}

// ---------------------------------------------------------------------------
// Clocks, memory, fingerprints.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Microseconds since the first call (the host-time lane's clock).
std::int64_t host_us() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               origin)
      .count();
}

/// Resident-set high-water mark (VmHWM), in bytes.
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kib) * 1024;
}

class Fnv {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
  void str(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// FNV over every deterministic field of the results: counters and raw
/// double bits, the hourly series, both latency histograms and the
/// deterministic registry samples.
std::uint64_t results_fingerprint(const core::ExperimentResults& r) {
  Fnv h;
  h.str(r.protocol);
  for (const std::uint64_t v :
       {r.generated, r.finished, r.failed, r.total_messages,
        r.messages_delivered, r.messages_lost, r.messages_partitioned,
        r.events_executed, r.fail_infeasible, r.fail_feasible,
        r.fail_undiscoverable, r.empty_query_results, r.dispatch_rejects,
        r.tasks_killed_by_churn, r.checkpoint_restarts,
        r.checkpoint_snapshots, r.stale_records_dead_provider,
        r.stale_records_misplaced}) {
    h.u64(v);
  }
  for (const double v :
       {r.t_ratio, r.f_ratio, r.fairness, r.msg_cost_per_node,
        r.avg_query_delay_s, r.avg_dispatch_attempts,
        r.wasted_work_rate_seconds, r.slot_span_ratio}) {
    h.f64(v);
  }
  for (const auto& t : r.traffic_by_type) {
    h.str(t.type);
    h.u64(t.sent);
    h.u64(t.delivered);
    h.u64(t.lost);
    h.u64(t.partitioned);
  }
  for (const auto& s : r.series) {
    h.f64(s.hour);
    h.u64(s.generated);
    h.u64(s.finished);
    h.u64(s.failed);
    h.f64(s.t_ratio);
    h.f64(s.f_ratio);
    h.f64(s.fairness);
  }
  h.str(r.latency_first_result.encode());
  h.str(r.latency_finish.encode());
  for (const obs::MetricSample& m : r.metrics) {
    if (!m.deterministic) continue;
    h.str(m.name);
    h.f64(m.value);
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Run-end invariants: the experiment's own accounting oracle and the
/// per-type bus conservation law
///   sent == delivered + lost + partitioned + in_flight + synthetic.
std::vector<std::string> run_end_errors(core::Experiment& e) {
  std::vector<std::string> errors;
  const std::string acct = e.check_accounting();
  if (!acct.empty()) errors.push_back("accounting: " + acct);
  const net::TrafficStats& st = e.bus().stats();
  for (std::size_t t = 0; t < static_cast<std::size_t>(net::MsgType::kCount);
       ++t) {
    const auto type = static_cast<net::MsgType>(t);
    if (st.sent(type) != st.delivered(type) + st.lost(type) +
                             st.partitioned(type) + st.in_flight(type) +
                             st.synthetic(type)) {
      errors.push_back("bus conservation broken for " +
                       std::string(net::msg_type_name(type)));
    }
  }
  if (st.total_in_flight() != e.bus().in_flight()) {
    errors.push_back("bus in-flight count disagrees with its slab");
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Output: one flat JSON object per process.
// ---------------------------------------------------------------------------

class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + json_mini::escape(v) + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    field(key, json);
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + json_mini::escape(key) + "\": " + v;
  }
  std::string body_;
};

std::string machine_context() {
  JsonOut o;
  o.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 <= 0) {
    // Containers often hide the cache sysconf; sysfs still has it.
    if (std::FILE* f = std::fopen(
            "/sys/devices/system/cpu/cpu0/cache/index3/size", "r")) {
      long kib = 0;
      if (std::fscanf(f, "%ldK", &kib) == 1) l3 = kib * 1024;
      std::fclose(f);
    }
  }
  o.num("l3_bytes", static_cast<double>(l3 > 0 ? l3 : 0));
#if defined(__clang__)
  o.str("compiler", std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  o.str("compiler", std::string("gcc ") + __VERSION__);
#else
  o.str("compiler", "unknown");
#endif
  o.str("build_type", PERFBENCH_BUILD_TYPE);
  return o.done();
}

struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  double rss_bytes_per_node = 0.0;
  double profiler_ns = 0.0;  // traced pass: profiler_outside_ns()
  std::uint64_t fingerprint = 0;
  std::size_t ops = 0;         // experiments attempted (sweep: cells)
  std::size_t failed_ops = 0;  // experiments that failed a check
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;  // traced pass only
};

// ---------------------------------------------------------------------------
// The traced pass: per-layer accumulators.
// ---------------------------------------------------------------------------

constexpr std::size_t kTypes = static_cast<std::size_t>(net::MsgType::kCount);

struct LayerTotals {
  std::array<std::uint64_t, kTypes> handler_ns{};
  std::array<std::uint64_t, kTypes> handler_n{};
  double run_s = 0.0;  // traced slices (+ results)
  double results_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t route_ns = 0, route_hops = 0, routes = 0;
  std::uint64_t nodes = 0;
  std::map<std::string, std::uint64_t> mem;  // MemBreakdown buckets, summed
  std::uint64_t mem_total = 0;
  std::uint64_t sent = 0, delivered = 0;
  std::uint64_t generated = 0, finished = 0, failed = 0;
  std::uint64_t first_results = 0, empty_results = 0, dispatch_rejects = 0;
  double dispatch_attempts_sum = 0.0;
  std::size_t experiments = 0;
};

/// Host-time spans go to lane 0 of the tracer; each experiment's own
/// (simulated-time) events go to its lane.  Switching lanes per span keeps
/// the two clocks on separate Perfetto tracks.
class HostLane {
 public:
  explicit HostLane(obs::Tracer* tracer) : tracer_(tracer) {}
  void set_sim_lane(std::uint32_t pid, std::string name) {
    sim_pid_ = pid;
    sim_name_ = std::move(name);
    if (tracer_ != nullptr) tracer_->set_lane(sim_pid_, sim_name_);
  }
  void span(const char* name, std::int64_t start_us) {
    if (tracer_ == nullptr) return;
    tracer_->set_lane(0, "perfbench host time (us)");
    tracer_->complete("perfbench", name, start_us, host_us() - start_us);
    tracer_->set_lane(sim_pid_, sim_name_);
  }

 private:
  obs::Tracer* tracer_;
  std::uint32_t sim_pid_ = 0;
  std::string sim_name_ = "perfbench host time (us)";
};

/// Time CanSpace::route from random members to seed-drawn points.
void route_probe(const can::CanSpace& space, std::uint64_t seed,
                 std::size_t probes, LayerTotals& acc) {
  if (space.size() == 0) return;
  Rng rng = Rng(seed).fork("perfbench-route-probe");
  const std::vector<NodeId> members = space.member_ids();
  std::vector<std::pair<NodeId, can::Point>> targets;
  targets.reserve(probes);
  for (std::size_t i = 0; i < probes; ++i) {
    can::Point p(space.dims());
    for (std::size_t d = 0; d < space.dims(); ++d) p[d] = rng.uniform();
    targets.emplace_back(members[rng.pick_index(members.size())], p);
  }
  std::uint64_t hops = 0;
  const std::uint64_t t0 = obs::wall_now_ns();
  for (const auto& [from, p] : targets) hops += space.route(from, p).size();
  acc.route_ns += obs::wall_now_ns() - t0;
  acc.route_hops += hops;
  acc.routes += probes;
}

const can::CanSpace* can_space_of(core::Experiment& e) {
  if (auto* p = dynamic_cast<core::PidCanProtocol*>(&e.protocol())) {
    return &p->space();
  }
  if (auto* k = dynamic_cast<core::KhdnProtocol*>(&e.protocol())) {
    return &k->space();
  }
  return nullptr;
}

/// Drive one experiment to its horizon.  With `acc`, the bus profiler is
/// attached, the run goes in kSlices simulated-time slices with a host
/// span each, and the CAN route probe runs after results().  Returns the
/// results; appends run-end check failures to `errors`.
core::ExperimentResults drive(const core::ExperimentConfig& config,
                              LayerTotals* acc, HostLane& lane,
                              std::uint64_t probe_seed, bool tiny,
                              std::vector<std::string>& errors,
                              double* traced_s) {
  const auto t_all = Clock::now();
  obs::TimeProfiler profiler(kTypes);
  const std::int64_t setup_us = host_us();
  core::Experiment e(config);
  if (acc != nullptr) e.bus().set_time_profiler(&profiler);
  e.setup();
  lane.span("setup", setup_us);

  const auto t_run = Clock::now();
  if (acc != nullptr) {
    for (int i = 1; i <= kSlices; ++i) {
      const std::int64_t slice_us = host_us();
      e.simulator().run_until(config.duration * i / kSlices);
      lane.span("run_until slice", slice_us);
    }
  }
  e.run();  // reaches the horizon (a no-op after the slices) + epilogue
  const double run_s = since(t_run);
  const auto t_results = Clock::now();
  const std::int64_t results_us = host_us();
  core::ExperimentResults r = e.results();
  lane.span("results", results_us);
  const double results_s = since(t_results);
  if (traced_s != nullptr) *traced_s += since(t_all);

  for (std::string& err : run_end_errors(e)) errors.push_back(std::move(err));
  if (acc == nullptr) return r;

  e.bus().set_time_profiler(nullptr);
  for (std::size_t t = 0; t < kTypes; ++t) {
    acc->handler_ns[t] += profiler.bucket(t).sum_us();  // ns samples
    acc->handler_n[t] += profiler.bucket(t).total();
  }
  acc->run_s += run_s + results_s;
  acc->results_s += results_s;
  acc->events += r.events_executed;
  acc->nodes += config.nodes;
  const obs::MemBreakdown mem = e.mem_breakdown();
  for (const auto& [name, bytes] : mem.items()) acc->mem[name] += bytes;
  acc->mem_total += mem.total();
  acc->sent += r.total_messages;
  acc->delivered += r.messages_delivered;
  acc->generated += r.generated;
  acc->finished += r.finished;
  acc->failed += r.failed;
  acc->first_results += r.latency_first_result.total();
  acc->empty_results += r.empty_query_results;
  acc->dispatch_rejects += r.dispatch_rejects;
  acc->dispatch_attempts_sum += r.avg_dispatch_attempts;
  ++acc->experiments;

  if (const can::CanSpace* space = can_space_of(e)) {
    const std::int64_t probe_us = host_us();
    route_probe(*space, probe_seed, tiny ? 200 : kRouteProbes, *acc);
    lane.span("can route probe", probe_us);
  }
  return r;
}

/// Host time the bus profiler adds per handled message outside the
/// interval it records: about one clock read plus record_ns().  Measured
/// by running the bus's own pair around an empty handler; the median of a
/// few rounds.  In cache, so it is a lower bound for cache-cold handlers.
double profiler_outside_ns() {
  constexpr int kRounds = 5;
  constexpr int kCalls = 100000;
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    obs::TimeProfiler p(1);
    const std::uint64_t t0 = obs::wall_now_ns();
    for (int i = 0; i < kCalls; ++i) {
      const std::uint64_t s = obs::wall_now_ns();
      p.record_ns(0, obs::wall_now_ns() - s);
    }
    const auto loop_ns = static_cast<double>(obs::wall_now_ns() - t0);
    rounds.push_back(
        (loop_ns - static_cast<double>(p.bucket(0).sum_us())) / kCalls);
  }
  return median(rounds);
}

/// The per-layer metrics, by BENCHMARK.json name.  `profiler_ns` is
/// profiler_outside_ns(), taken out of the outside-handler time.
void layer_metrics(const LayerTotals& a, double profiler_ns,
                   std::map<std::string, double>& m) {
  const auto ty = [](net::MsgType t) { return static_cast<std::size_t>(t); };
  const auto sec = [&](net::MsgType t) {
    return static_cast<double>(a.handler_ns[ty(t)]) * 1e-9;
  };
  const auto cnt = [&](net::MsgType t) {
    return static_cast<double>(a.handler_n[ty(t)]);
  };
  const auto per_node = [&](const char* bucket) {
    const auto it = a.mem.find(bucket);
    const double bytes =
        it == a.mem.end() ? 0.0 : static_cast<double>(it->second);
    return a.nodes > 0 ? bytes / static_cast<double>(a.nodes) : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  double handler_s = 0.0;
  double handled = 0.0;
  for (std::size_t t = 0; t < kTypes; ++t) {
    handler_s += static_cast<double>(a.handler_ns[t]) * 1e-9;
    handled += static_cast<double>(a.handler_n[t]);
  }
  const auto ev = static_cast<double>(a.events);

  m["sim.events"] = ev;
  m["sim.handlers_s"] = handler_s;
  m["sim.outside_handlers_ns_per_event"] =
      ratio((a.run_s - a.results_s - handler_s) * 1e9 - profiler_ns * handled,
            ev);
  m["sim.queue_bytes_per_node"] = per_node("sim.event_queue");
  m["net.pending_bytes_per_node"] = per_node("net.bus_pending");
  m["net.sent"] = static_cast<double>(a.sent);
  m["net.delivered_ratio"] =
      ratio(static_cast<double>(a.delivered), static_cast<double>(a.sent));

  using net::MsgType;
  m["index.state_update_s"] = sec(MsgType::kStateUpdate);
  m["index.state_update_n"] = cnt(MsgType::kStateUpdate);
  m["index.diffuse_s"] = sec(MsgType::kIndexDiffuse);
  m["index.diffuse_n"] = cnt(MsgType::kIndexDiffuse);
  m["index.probe_s"] = sec(MsgType::kIndexProbe);
  m["index.probe_n"] = cnt(MsgType::kIndexProbe);
  m["index.state_bytes_per_node"] = per_node("index.state");
  m["index.write_handler_share"] =
      ratio(sec(MsgType::kStateUpdate) + sec(MsgType::kIndexProbe), handler_s);

  m["index.agent_s"] = sec(MsgType::kIndexAgent);
  m["index.agent_n"] = cnt(MsgType::kIndexAgent);
  m["index.jump_s"] = sec(MsgType::kIndexJump);
  m["index.jump_n"] = cnt(MsgType::kIndexJump);
  m["query.duty_query_s"] = sec(MsgType::kDutyQuery);
  m["query.duty_query_n"] = cnt(MsgType::kDutyQuery);
  m["query.found_notice_s"] = sec(MsgType::kFoundNotice);
  m["query.found_notice_n"] = cnt(MsgType::kFoundNotice);
  m["query.handler_share"] =
      ratio(sec(MsgType::kIndexAgent) + sec(MsgType::kIndexJump) +
                sec(MsgType::kDutyQuery) + sec(MsgType::kFoundNotice),
            handler_s);
  m["query.first_result_ratio"] = ratio(static_cast<double>(a.first_results),
                                        static_cast<double>(a.generated));
  m["query.empty_results"] = static_cast<double>(a.empty_results);

  m["can.route_ns_per_hop"] = ratio(static_cast<double>(a.route_ns),
                                    static_cast<double>(a.route_hops));
  m["can.hops_per_route"] = ratio(static_cast<double>(a.route_hops),
                                  static_cast<double>(a.routes));
  m["can.space_bytes_per_node"] = per_node("can.space");

  m["gossip.exchange_s"] = sec(MsgType::kGossip);
  m["gossip.exchange_n"] = cnt(MsgType::kGossip);
  m["khdn.spread_s"] = sec(MsgType::kKhdnSpread);
  m["khdn.spread_n"] = cnt(MsgType::kKhdnSpread);

  m["psm.dispatch_s"] = sec(MsgType::kDispatch);
  m["psm.dispatch_n"] = cnt(MsgType::kDispatch);
  m["psm.dispatch_rejects"] = static_cast<double>(a.dispatch_rejects);
  m["psm.dispatch_attempts_mean"] =
      ratio(a.dispatch_attempts_sum, static_cast<double>(a.experiments));
  m["core.tasks_generated"] = static_cast<double>(a.generated);
  m["core.tasks_finished"] = static_cast<double>(a.finished);
  m["core.tasks_failed"] = static_cast<double>(a.failed);
  m["core.host_table_bytes_per_node"] = per_node("core.host_table");
  m["core.results_s"] = a.results_s;
  m["mem.accounted_bytes_per_node"] =
      ratio(static_cast<double>(a.mem_total), static_cast<double>(a.nodes));
}

// ---------------------------------------------------------------------------
// Workload drivers.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::string mode;
  std::string dir;
  std::string trace_out;
  std::uint64_t seed = 1;
  bool tiny = false;
};

/// serving-zipf and scale-100k: one experiment.
Outcome experiment_workload(const Args& a, obs::Tracer* tracer) {
  const core::ExperimentConfig config = a.workload == "serving-zipf"
                                            ? serving_config(a.seed, a.tiny)
                                            : scale_config(a.seed, a.tiny);
  Outcome out;
  out.ops = 1;
  if (a.mode == "run") {
    const std::uint64_t rss0 = obs::current_rss_bytes();
    const auto t0 = Clock::now();
    auto e = std::make_unique<core::Experiment>(config);
    e->setup();
    out.setup_s = since(t0);
    const auto t1 = Clock::now();
    e->run();
    const core::ExperimentResults r = e->results();
    out.run_s = since(t1);
    const std::uint64_t peak = peak_rss_bytes();
    out.rss_bytes_per_node =
        static_cast<double>(peak > rss0 ? peak - rss0 : 0) /
        static_cast<double>(config.nodes);
    out.errors = run_end_errors(*e);
    out.fingerprint = results_fingerprint(r);
    e.reset();
    // Extra set-up samples, taken after the peak RSS was read so they
    // cannot inflate it.
    std::vector<double> setups{out.setup_s};
    for (int i = 1; i < setup_reps(a.workload); ++i) {
      const auto ts = Clock::now();
      auto extra = std::make_unique<core::Experiment>(config);
      extra->setup();
      setups.push_back(since(ts));
    }
    out.setup_s = median(setups);
  } else {  // traced
    LayerTotals acc;
    HostLane lane(tracer);
    lane.set_sim_lane(1, a.workload + " (simulated time, us)");
    const core::ExperimentResults r =
        drive(config, &acc, lane, a.seed, a.tiny, out.errors, nullptr);
    out.fingerprint = results_fingerprint(r);
    out.run_s = acc.run_s;
    out.profiler_ns = profiler_outside_ns();
    layer_metrics(acc, out.profiler_ns, out.metrics);
    for (const char* k : {"sweep.cells_s", "sweep.report_s",
                          "sweep.merged_bytes", "sweep.newscast.run_s",
                          "sweep.sid-can.run_s", "sweep.khdn-can.run_s"}) {
      out.metrics[k] = 0.0;
    }
  }
  if (!out.errors.empty()) out.failed_ops = 1;
  return out;
}

/// The same conversion sweep::run_shard applies to a finished experiment.
sweep::CellResult cell_result(const sweep::SweepCell& cell,
                              const core::ExperimentResults& r) {
  sweep::CellResult out;
  out.key = cell.key;
  out.group = cell.group;
  out.seed = cell.config.seed;
  out.t_ratio = r.t_ratio;
  out.f_ratio = r.f_ratio;
  out.fairness = r.fairness;
  out.msgs_per_node = r.msg_cost_per_node;
  out.avg_query_delay_s = r.avg_query_delay_s;
  out.generated = r.generated;
  out.finished = r.finished;
  out.failed = r.failed;
  out.events = r.events_executed;
  out.messages = r.total_messages;
  out.messages_delivered = r.messages_delivered;
  out.messages_lost = r.messages_lost;
  out.messages_partitioned = r.messages_partitioned;
  out.stale_dead_provider = r.stale_records_dead_provider;
  out.stale_misplaced = r.stale_records_misplaced;
  out.slot_span_ratio = r.slot_span_ratio;
  out.series = r.series;
  out.latency_first_result = r.latency_first_result;
  out.latency_finish = r.latency_finish;
  for (const obs::MetricSample& m : r.metrics) {
    if (m.deterministic) out.metrics.push_back(m);
  }
  return out;
}

bool fresh_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  return fs::create_directories(dir, ec);
}

/// Merge the shard files in `dir`, write the merged report, and hash its
/// bytes.  nullopt (with an error) when any step fails.
std::optional<std::uint64_t> merge_and_hash(const std::string& dir,
                                            const sweep::SweepSpec& spec,
                                            std::vector<std::string>& errors,
                                            std::uint64_t* merged_bytes) {
  std::string err;
  const auto merged = sweep::merge_shards(dir, spec, kSweepShards, &err);
  const std::string path = dir + "/SWEEP_merged.json";
  if (!merged.has_value()) {
    errors.push_back("merge failed: " + err);
    return std::nullopt;
  }
  if (!sweep::write_merged_report(path, spec, *merged)) {
    errors.push_back("cannot write " + path);
    return std::nullopt;
  }
  const auto bytes = sweep::read_file(path);
  if (!bytes.has_value()) {
    errors.push_back("cannot read back " + path);
    return std::nullopt;
  }
  if (merged_bytes != nullptr) *merged_bytes = bytes->size();
  Fnv h;
  h.str(*bytes);
  return h.value();
}

/// fig4-sweep.  run: a set-up pass over the cells, then the in-process
/// sweep (orchestrate without a worker binary) to the merged report on
/// disk.  check/traced: every cell through core::Experiment, shard files
/// written from those results, then the same merge.
Outcome fig4_workload(const Args& a, obs::Tracer* tracer) {
  const sweep::SweepSpec spec = fig4_spec(a.seed, a.tiny);
  const std::vector<sweep::SweepCell> cells = spec.enumerate();
  Outcome out;
  out.ops = cells.size();
  if (!fresh_dir(a.dir)) {
    out.errors.push_back("cannot create " + a.dir);
    out.failed_ops = out.ops;
    return out;
  }

  if (a.mode == "run") {
    const std::uint64_t rss0 = obs::current_rss_bytes();
    std::vector<double> passes;
    for (int i = 0; i < setup_reps(a.workload); ++i) {
      double pass_s = 0.0;
      for (const sweep::SweepCell& cell : cells) {
        const auto t0 = Clock::now();
        auto e = std::make_unique<core::Experiment>(cell.config);
        e->setup();
        pass_s += since(t0);
      }
      passes.push_back(pass_s);
    }
    out.setup_s = median(passes);
    const auto t1 = Clock::now();
    sweep::OrchestrateOptions options;
    options.dir = a.dir;
    options.workers = 1;
    const auto outcome = sweep::orchestrate(spec, kSweepShards, options);
    std::optional<std::uint64_t> fp;
    if (!outcome.has_value() || !outcome->ok()) {
      out.errors.push_back("in-process sweep failed");
    } else {
      fp = merge_and_hash(a.dir, spec, out.errors, nullptr);
    }
    out.run_s = since(t1);
    const std::uint64_t peak = peak_rss_bytes();
    out.rss_bytes_per_node =
        static_cast<double>(peak > rss0 ? peak - rss0 : 0) /
        static_cast<double>(spec.node_counts.front());
    if (fp.has_value()) out.fingerprint = *fp;
    if (!out.errors.empty()) out.failed_ops = out.ops;
    return out;
  }

  const bool traced = a.mode == "traced";
  LayerTotals acc;
  HostLane lane(tracer);
  std::map<std::string, double> proto_run_s;
  double cells_s = 0.0;
  double report_s = 0.0;
  const sweep::SweepSpec norm = spec.normalized();
  std::uint32_t pid = 1;
  for (const sweep::Shard& shard : sweep::partition(norm, kSweepShards)) {
    sweep::ShardResult sr;
    sr.spec_fingerprint = norm.fingerprint();
    sr.shard_id = shard.id;
    sr.shards_total = kSweepShards;
    for (const sweep::SweepCell& cell : shard.cells) {
      lane.set_sim_lane(pid++, cell.key + " (simulated time, us)");
      std::vector<std::string> errors;
      const std::int64_t cell_us = host_us();
      const double before = acc.run_s;
      double cell_s = 0.0;
      const core::ExperimentResults r =
          drive(cell.config, traced ? &acc : nullptr, lane, a.seed, a.tiny,
                errors, &cell_s);
      lane.span("cell", cell_us);
      cells_s += cell_s;
      proto_run_s[core::protocol_name(cell.config.protocol)] +=
          acc.run_s - before;
      if (!errors.empty()) {
        ++out.failed_ops;
        for (std::string& err : errors) {
          out.errors.push_back(cell.key + ": " + std::move(err));
        }
      }
      sr.cells.push_back(cell_result(cell, r));
    }
    const auto t_write = Clock::now();
    const std::int64_t write_us = host_us();
    if (!sweep::write_shard_result(a.dir, sr)) {
      out.errors.push_back("cannot write shard " + std::to_string(shard.id));
    }
    lane.span("shard write", write_us);
    report_s += since(t_write);
  }
  const auto t_merge = Clock::now();
  const std::int64_t merge_us = host_us();
  std::uint64_t merged_bytes = 0;
  const auto fp = merge_and_hash(a.dir, spec, out.errors, &merged_bytes);
  lane.span("merge + merged write", merge_us);
  report_s += since(t_merge);
  if (fp.has_value()) out.fingerprint = *fp;
  if (!out.errors.empty() && out.failed_ops == 0) out.failed_ops = out.ops;
  if (!traced) return out;

  out.run_s = cells_s + report_s;
  out.profiler_ns = profiler_outside_ns();
  layer_metrics(acc, out.profiler_ns, out.metrics);
  out.metrics["sweep.cells_s"] = cells_s;
  out.metrics["sweep.report_s"] = report_s;
  out.metrics["sweep.merged_bytes"] = static_cast<double>(merged_bytes);
  out.metrics["sweep.newscast.run_s"] = proto_run_s["Newscast"];
  out.metrics["sweep.sid-can.run_s"] = proto_run_s["SID-CAN"];
  out.metrics["sweep.khdn-can.run_s"] = proto_run_s["KHDN-CAN"];
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig4-sweep|serving-zipf|"
               "scale-100k --seed N --mode run|check|traced --dir DIR "
               "[--tiny 1] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n", why);
    return 3;
  }
  const CliArgs cli(argc, argv);
  Args a;
  a.workload = cli.get("workload", "");
  a.mode = cli.get("mode", "run");
  a.dir = cli.get("dir", "");
  a.trace_out = cli.get("trace-out", "");
  a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  a.tiny = cli.get_bool("tiny", false);
  const bool sweep = a.workload == "fig4-sweep";
  if (!sweep && a.workload != "serving-zipf" && a.workload != "scale-100k") {
    return usage();
  }
  if (a.mode != "run" && a.mode != "traced" && !(sweep && a.mode == "check")) {
    return usage();
  }
  if (sweep && a.dir.empty()) return usage();

  obs::Tracer tracer;
  const bool traced = a.mode == "traced";
  if (traced) obs::install_tracer(&tracer);
  Outcome out = sweep ? fig4_workload(a, traced ? &tracer : nullptr)
                      : experiment_workload(a, traced ? &tracer : nullptr);
  if (traced) {
    obs::install_tracer(nullptr);
    if (!a.trace_out.empty() && !tracer.export_json(a.trace_out)) {
      out.errors.push_back("cannot write " + a.trace_out);
    }
  }

  JsonOut o;
  o.str("workload", a.workload);
  o.str("mode", a.mode);
  o.raw("context", machine_context());
  o.str("fingerprint", hex(out.fingerprint));
  o.num("ops", static_cast<double>(out.ops));
  o.num("failed_ops", static_cast<double>(out.failed_ops));
  o.num("setup_s", out.setup_s);
  o.num("run_s", out.run_s);
  o.num("rss_bytes_per_node", out.rss_bytes_per_node);
  o.num("profiler_ns_per_handler", out.profiler_ns);
  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    errors += (i > 0 ? ", \"" : "\"") + json_mini::escape(out.errors[i]) + "\"";
  }
  o.raw("errors", errors + "]");
  JsonOut metrics;
  for (const auto& [name, value] : out.metrics) metrics.num(name, value);
  o.raw("metrics", metrics.done());
  std::printf("%s\n", o.done().c_str());
  return out.errors.empty() ? 0 : 1;
}
