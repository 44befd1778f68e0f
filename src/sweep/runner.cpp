#include "src/sweep/runner.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "src/common/json_mini.hpp"
#include "src/obs/trace.hpp"
#include "src/sweep/io.hpp"

namespace soc::sweep {

ShardResult run_shard(const Shard& shard, std::uint64_t spec_fingerprint,
                      std::size_t shards_total) {
  ShardResult result;
  result.spec_fingerprint = spec_fingerprint;
  result.shard_id = shard.id;
  result.shards_total = shards_total;
  result.cells.reserve(shard.cells.size());
  for (const SweepCell& cell : shard.cells) {
    // One trace lane per cell: task/query span ids restart per experiment,
    // so sharing a lane would pair spans across unrelated cells.  Lane pids
    // come from the tracer's own counter so local mode (many shards, one
    // process) keeps them unique.
    if (obs::Tracer* t = obs::tracer()) {
      t->set_lane(static_cast<std::uint32_t>(t->lane_count()), cell.key);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const core::ExperimentResults r = core::run_experiment(cell.config);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    CellResult out;
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
    out.wall_seconds = dt.count();
    out.series = r.series;
    out.latency_first_result = r.latency_first_result;
    out.latency_finish = r.latency_finish;
    for (const obs::MetricSample& m : r.metrics) {
      if (m.deterministic) out.metrics.push_back(m);
    }
    result.cells.push_back(std::move(out));
  }
  return result;
}

bool write_shard_result(const std::string& dir, const ShardResult& result) {
  std::string out = "{\n  \"sweep_shard\": 1,\n";
  // Sized with ample headroom: a paper-scale cell line with full-width
  // %.17g metrics and a long key measures ~530 bytes.  Truncation is
  // checked anyway — a torn cell line would make the shard file
  // permanently invalid (and the sweep unable to ever complete) while the
  // worker reports success.
  char buf[2048];
  int n = std::snprintf(buf, sizeof(buf),
                        "  \"spec_fingerprint\": \"%016llx\",\n"
                        "  \"shard\": %zu,\n  \"shards_total\": %zu,\n",
                        static_cast<unsigned long long>(
                            result.spec_fingerprint),
                        result.shard_id, result.shards_total);
  if (n < 0 || static_cast<std::size_t>(n) >= sizeof(buf)) return false;
  out += buf;
  out += "  \"cells\": [";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& c = result.cells[i];
    // %.17g round-trips doubles exactly through strtod, so stats computed
    // from a parsed shard file equal stats computed from the in-memory
    // results — a prerequisite for byte-identical merges.
    n = std::snprintf(
        buf, sizeof(buf),
        "%s\n    { \"key\": \"%s\", \"group\": \"%s\", \"seed\": %llu,\n"
        "      \"t_ratio\": %.17g, \"f_ratio\": %.17g, \"fairness\": %.17g,\n"
        "      \"msgs_per_node\": %.17g, \"avg_query_delay_s\": %.17g,\n"
        "      \"generated\": %llu, \"finished\": %llu, \"failed\": %llu,\n"
        "      \"events\": %llu, \"messages\": %llu,\n"
        "      \"delivered\": %llu, \"lost\": %llu, \"partitioned\": %llu,\n"
        "      \"stale_dead_provider\": %llu, \"stale_misplaced\": %llu,\n"
        "      \"slot_span_ratio\": %.17g,\n"
        "      \"wall_seconds\": %.6f,\n",
        i > 0 ? "," : "", json_mini::escape(c.key).c_str(),
        json_mini::escape(c.group).c_str(),
        static_cast<unsigned long long>(c.seed), c.t_ratio, c.f_ratio,
        c.fairness, c.msgs_per_node, c.avg_query_delay_s,
        static_cast<unsigned long long>(c.generated),
        static_cast<unsigned long long>(c.finished),
        static_cast<unsigned long long>(c.failed),
        static_cast<unsigned long long>(c.events),
        static_cast<unsigned long long>(c.messages),
        static_cast<unsigned long long>(c.messages_delivered),
        static_cast<unsigned long long>(c.messages_lost),
        static_cast<unsigned long long>(c.messages_partitioned),
        static_cast<unsigned long long>(c.stale_dead_provider),
        static_cast<unsigned long long>(c.stale_misplaced), c.slot_span_ratio,
        c.wall_seconds);
    if (n < 0 || static_cast<std::size_t>(n) >= sizeof(buf)) return false;
    out += buf;
    // The sparse-encoded latency histograms are appended as std::string
    // concatenations, not through the fixed snprintf buffer: a dense
    // histogram string can exceed any reasonable stack buffer, and a torn
    // cell line must never reach disk.  Their alphabet (digits ; : ,)
    // needs no JSON escaping.
    out += "      \"lat_first_b\": \"" + c.latency_first_result.encode() +
           "\",\n";
    out += "      \"lat_finish_b\": \"" + c.latency_finish.encode() + "\",\n";
    // Registry metrics as {"k","v"} pairs: the name is an escaped string
    // value, so any metric name is representable.
    out += "      \"metrics\": [";
    for (std::size_t m = 0; m < c.metrics.size(); ++m) {
      n = std::snprintf(buf, sizeof(buf),
                        "%s\n        { \"k\": \"%s\", \"v\": %.17g }",
                        m > 0 ? "," : "",
                        json_mini::escape(c.metrics[m].name).c_str(),
                        c.metrics[m].value);
      if (n < 0 || static_cast<std::size_t>(n) >= sizeof(buf)) return false;
      out += buf;
    }
    out += c.metrics.empty() ? "],\n" : " ],\n";
    out += "      \"series\": [";
    for (std::size_t s = 0; s < c.series.size(); ++s) {
      const metrics::SeriesSample& p = c.series[s];
      n = std::snprintf(
          buf, sizeof(buf),
          "%s\n        { \"hour\": %.17g, \"generated\": %llu,"
          " \"finished\": %llu, \"failed\": %llu,\n"
          "          \"t_ratio\": %.17g, \"f_ratio\": %.17g,"
          " \"fairness\": %.17g }",
          s > 0 ? "," : "", p.hour,
          static_cast<unsigned long long>(p.generated),
          static_cast<unsigned long long>(p.finished),
          static_cast<unsigned long long>(p.failed), p.t_ratio, p.f_ratio,
          p.fairness);
      if (n < 0 || static_cast<std::size_t>(n) >= sizeof(buf)) return false;
      out += buf;
    }
    out += c.series.empty() ? "] }" : " ] }";
  }
  out += "\n  ]\n}\n";
  return write_atomic(shard_path(dir, result.shard_id), out);
}

std::optional<ShardResult> read_shard_result(const std::string& path) {
  const auto text = read_file(path);
  const auto doc = text.has_value() ? json_mini::Value::parse(*text)
                                    : std::nullopt;
  if (!doc.has_value()) return std::nullopt;
  json_mini::Fields f(*doc);
  ShardResult r;
  const bool version_ok = f.as_u64("sweep_shard") == 1;
  r.spec_fingerprint = f.as_hex64("spec_fingerprint");
  r.shard_id = f.as_u64("shard");
  r.shards_total = f.as_u64("shards_total");
  for (const json_mini::Value& cell : f.as_array("cells")) {
    json_mini::Fields c(cell);
    CellResult& out = r.cells.emplace_back();
    out.key = c.as_string("key");
    out.group = c.as_string("group");
    out.seed = c.as_u64("seed");
    out.t_ratio = c.as_double("t_ratio");
    out.f_ratio = c.as_double("f_ratio");
    out.fairness = c.as_double("fairness");
    out.msgs_per_node = c.as_double("msgs_per_node");
    out.avg_query_delay_s = c.as_double("avg_query_delay_s");
    out.generated = c.as_u64("generated");
    out.finished = c.as_u64("finished");
    out.failed = c.as_u64("failed");
    out.events = c.as_u64("events");
    out.messages = c.as_u64("messages");
    out.messages_delivered = c.as_u64("delivered");
    out.messages_lost = c.as_u64("lost");
    out.messages_partitioned = c.as_u64("partitioned");
    out.stale_dead_provider = c.as_u64("stale_dead_provider");
    out.stale_misplaced = c.as_u64("stale_misplaced");
    out.slot_span_ratio = c.as_double("slot_span_ratio");
    out.wall_seconds = c.as_double("wall_seconds");
    // A malformed histogram invalidates the whole file: a dropped one
    // would merge wrong percentiles.
    if (!out.latency_first_result.merge_encoded(c.as_string("lat_first_b")) ||
        !out.latency_finish.merge_encoded(c.as_string("lat_finish_b"))) {
      return std::nullopt;
    }
    for (const json_mini::Value& pair : c.as_array("metrics")) {
      json_mini::Fields m(pair);
      out.metrics.push_back(
          {m.as_string("k"), m.as_double("v"), /*deterministic=*/true});
      if (!m.ok()) return std::nullopt;
    }
    for (const json_mini::Value& sample : c.as_array("series")) {
      json_mini::Fields p(sample);
      metrics::SeriesSample& s = out.series.emplace_back();
      s.hour = p.as_double("hour");
      s.generated = p.as_u64("generated");
      s.finished = p.as_u64("finished");
      s.failed = p.as_u64("failed");
      s.t_ratio = p.as_double("t_ratio");
      s.f_ratio = p.as_double("f_ratio");
      s.fairness = p.as_double("fairness");
      if (!p.ok()) return std::nullopt;
    }
    if (!c.ok()) return std::nullopt;
  }
  if (!f.ok() || !version_ok) return std::nullopt;
  return r;
}

bool shard_result_valid(const ShardResult& result, const Shard& shard,
                        std::uint64_t spec_fingerprint,
                        std::size_t shards_total) {
  if (result.spec_fingerprint != spec_fingerprint ||
      result.shard_id != shard.id || result.shards_total != shards_total ||
      result.cells.size() != shard.cells.size()) {
    return false;
  }
  for (std::size_t i = 0; i < shard.cells.size(); ++i) {
    if (result.cells[i].key != shard.cells[i].key) return false;
  }
  return true;
}

bool shard_complete(const std::string& dir, const Shard& shard,
                    std::uint64_t spec_fingerprint,
                    std::size_t shards_total) {
  const auto result = read_shard_result(shard_path(dir, shard.id));
  return result.has_value() &&
         shard_result_valid(*result, shard, spec_fingerprint, shards_total);
}

namespace {

/// Spawn `worker_binary --mode=worker --dir=D --shards=N --shard=K <spec>`.
/// Returns the child pid, or -1.
pid_t spawn_worker(const std::string& worker_binary, const SweepSpec& spec,
                   const std::string& dir, std::size_t shards_total,
                   std::size_t shard_id) {
  std::vector<std::string> args;
  args.push_back(worker_binary);
  args.push_back("--mode=worker");
  args.push_back("--dir=" + dir);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "--shards=%zu", shards_total);
  args.push_back(buf);
  std::snprintf(buf, sizeof(buf), "--shard=%zu", shard_id);
  args.push_back(buf);
  for (std::string& a : spec.to_args()) args.push_back(std::move(a));

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    execv(argv[0], argv.data());
    std::fprintf(stderr, "sweep: execv %s failed: %s\n", argv[0],
                 std::strerror(errno));
    _exit(127);
  }
  return pid;
}

}  // namespace

std::optional<OrchestrateOutcome> orchestrate(
    const SweepSpec& spec, std::size_t shards_total,
    const OrchestrateOptions& options) {
  const SweepSpec norm = spec.normalized();
  const std::uint64_t fp = norm.fingerprint();
  const std::vector<Shard> shards = partition(norm, shards_total);

  // A directory already carrying a different sweep's manifest is a user
  // error (mixing two sweeps' shard files would merge garbage).
  if (!dir_matches_sweep(options.dir, fp, shards_total)) return std::nullopt;

  Manifest manifest;
  manifest.spec_fingerprint = fp;
  manifest.spec = norm.describe();
  manifest.shards_total = shards_total;
  manifest.shards.resize(shards_total);

  OrchestrateOutcome outcome;
  std::vector<std::size_t> queue;
  for (const Shard& shard : shards) {
    ShardStatus& st = manifest.shards[shard.id];
    st.id = shard.id;
    st.cells = shard.cells.size();
    if (shard_complete(options.dir, shard, fp, shards_total)) {
      st.state = "done";  // resume: finished before a previous crash
      ++outcome.skipped;
    } else if (shard.cells.empty()) {
      // Nothing to compute — complete it inline instead of spawning a
      // process to do nothing.
      ShardResult empty;
      empty.spec_fingerprint = fp;
      empty.shard_id = shard.id;
      empty.shards_total = shards_total;
      const bool ok = write_shard_result(options.dir, empty);
      st.state = ok ? "done" : "failed";
      ok ? ++outcome.ran : ++outcome.failed;
    } else {
      st.state = "pending";
      queue.push_back(shard.id);
    }
  }
  if (!write_manifest(options.dir, manifest)) {
    std::fprintf(stderr, "sweep: cannot write manifest in %s\n",
                 options.dir.c_str());
    return std::nullopt;
  }

  const auto finish_shard = [&](std::size_t sid, bool worker_ok) {
    const bool done = worker_ok &&
                      shard_complete(options.dir, shards[sid], fp,
                                     shards_total);
    manifest.shards[sid].state = done ? "done" : "failed";
    done ? ++outcome.ran : ++outcome.failed;
    if (!done) {
      std::fprintf(stderr, "sweep: shard %zu failed%s\n", sid,
                   worker_ok ? " (invalid result file)" : "");
    }
    write_manifest(options.dir, manifest);
  };

  if (options.worker_binary.empty()) {
    // In-process reference path: sequential, deterministic order.
    for (const std::size_t sid : queue) {
      const ShardResult result = run_shard(shards[sid], fp, shards_total);
      finish_shard(sid, write_shard_result(options.dir, result));
    }
    return outcome;
  }

  std::map<pid_t, std::size_t> running;
  std::size_t next = 0;
  const std::size_t workers = options.workers > 0 ? options.workers : 1;
  while (next < queue.size() || !running.empty()) {
    while (next < queue.size() && running.size() < workers) {
      const std::size_t sid = queue[next++];
      const pid_t pid = spawn_worker(options.worker_binary, norm, options.dir,
                                     shards_total, sid);
      if (pid < 0) {
        finish_shard(sid, false);
        continue;
      }
      running.emplace(pid, sid);
    }
    if (running.empty()) continue;
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    if (pid < 0) break;
    const auto it = running.find(pid);
    if (it == running.end()) continue;
    const std::size_t sid = it->second;
    running.erase(it);
    finish_shard(sid, WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  return outcome;
}

}  // namespace soc::sweep
