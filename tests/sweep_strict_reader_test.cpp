// Strict-reader regressions for every file the sweep and the perf gate
// read back: shard results, the sweep manifest, and BENCH_*.json / merged
// sweep reports.  Each starts from a real file, breaks it one way at a
// time, and requires the reader to reject it whole:
//
//   * a damaged shard file never merges, and orchestrate re-runs exactly
//     that shard, after which the merged bytes equal the undamaged run;
//   * a damaged manifest reads as absent, and orchestrate rewrites it;
//   * a damaged report fails to parse instead of feeding the gate wrong
//     numbers.
//
// And each reader reads the same values whatever order the keys are in.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/compare_core.hpp"
#include "src/common/json_mini.hpp"
#include "src/sweep/io.hpp"
#include "src/sweep/merge.hpp"
#include "src/sweep/runner.hpp"

namespace soc::sweep {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 2;

/// Three HID-CAN repeats of one simulated hour: long enough for hourly
/// series, latency histograms and registry metrics in every cell.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.protocols = {core::ProtocolKind::kHidCan};
  spec.lambdas = {0.5};
  spec.node_counts = {24};
  spec.scenarios = {"none"};
  spec.repeats = 3;
  spec.base_seed = 11;
  spec.hours = 1.0;
  return spec;
}

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("soc_strict_") + tag + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// `text` with its first `from` replaced by `to`.
std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "no '" << from << "' to corrupt";
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// `text` without the span from its first `begin` through the next `end`.
std::string cut(std::string text, const std::string& begin,
                const std::string& end) {
  const std::size_t at = text.find(begin);
  const std::size_t stop =
      at == std::string::npos ? at : text.find(end, at + begin.size());
  EXPECT_NE(stop, std::string::npos) << "no '" << begin << "…" << end << "'";
  if (stop != std::string::npos) text.erase(at, stop + end.size() - at);
  return text;
}

/// `text` with the number after the first `"key": ` wrapped in quotes.
std::string quote_number(std::string text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << "no '" << key << "' to quote";
  if (at == std::string::npos) return text;
  const std::size_t start = at + needle.size();
  text.insert(text.find_first_not_of("0123456789.eE+-", start), "\"");
  text.insert(start, "\"");
  return text;
}

/// Corruptions every reader must reject, named for the failure message.
/// `first_number` is a numeric field near the top of the file.
std::vector<std::pair<std::string, std::string>> common_corruptions(
    const std::string& text, const std::string& first_number) {
  std::vector<std::pair<std::string, std::string>> out = {
      {"trailing bytes", text + "{}"},
      {"string where a number belongs", quote_number(text, first_number)},
      {"bad number token",
       replace_first(text, "\"" + first_number + "\": ",
                     "\"" + first_number + "\": 0")},
  };
  // In the last string value: a field no other check covers.
  std::string escaped = text;
  escaped.insert(text.rfind("\": \"") + 4, "\\u0041");
  out.push_back({"escape no writer emits", escaped});
  for (const std::size_t at :
       {std::size_t{1}, text.size() / 4, text.size() / 2,
        3 * text.size() / 4, text.size() - 2}) {
    out.push_back({"truncated at " + std::to_string(at), text.substr(0, at)});
  }
  return out;
}

/// A shard file with every object's keys in reverse writer order.
std::string reversed_shard_json(const ShardResult& r) {
  std::string out = "{ \"cells\": [";
  char buf[1024];
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const CellResult& c = r.cells[i];
    out += i > 0 ? ", { \"series\": [" : " { \"series\": [";
    for (std::size_t s = 0; s < c.series.size(); ++s) {
      const metrics::SeriesSample& p = c.series[s];
      std::snprintf(buf, sizeof(buf),
                    "%s{ \"fairness\": %.17g, \"f_ratio\": %.17g, "
                    "\"t_ratio\": %.17g, \"failed\": %llu, "
                    "\"finished\": %llu, \"generated\": %llu, "
                    "\"hour\": %.17g }",
                    s > 0 ? ", " : "", p.fairness, p.f_ratio, p.t_ratio,
                    static_cast<unsigned long long>(p.failed),
                    static_cast<unsigned long long>(p.finished),
                    static_cast<unsigned long long>(p.generated), p.hour);
      out += buf;
    }
    out += "], \"metrics\": [";
    for (std::size_t m = 0; m < c.metrics.size(); ++m) {
      std::snprintf(buf, sizeof(buf), "%s{ \"v\": %.17g, \"k\": \"%s\" }",
                    m > 0 ? ", " : "", c.metrics[m].value,
                    json_mini::escape(c.metrics[m].name).c_str());
      out += buf;
    }
    out += "], \"lat_finish_b\": \"" + c.latency_finish.encode() +
           "\", \"lat_first_b\": \"" + c.latency_first_result.encode() + "\"";
    std::snprintf(
        buf, sizeof(buf),
        ", \"wall_seconds\": %.17g, \"slot_span_ratio\": %.17g, "
        "\"stale_misplaced\": %llu, \"stale_dead_provider\": %llu, "
        "\"partitioned\": %llu, \"lost\": %llu, \"delivered\": %llu, "
        "\"messages\": %llu, \"events\": %llu, \"failed\": %llu, "
        "\"finished\": %llu, \"generated\": %llu, "
        "\"avg_query_delay_s\": %.17g, \"msgs_per_node\": %.17g, "
        "\"fairness\": %.17g, \"f_ratio\": %.17g, \"t_ratio\": %.17g, "
        "\"seed\": %llu, ",
        c.wall_seconds, c.slot_span_ratio,
        static_cast<unsigned long long>(c.stale_misplaced),
        static_cast<unsigned long long>(c.stale_dead_provider),
        static_cast<unsigned long long>(c.messages_partitioned),
        static_cast<unsigned long long>(c.messages_lost),
        static_cast<unsigned long long>(c.messages_delivered),
        static_cast<unsigned long long>(c.messages),
        static_cast<unsigned long long>(c.events),
        static_cast<unsigned long long>(c.failed),
        static_cast<unsigned long long>(c.finished),
        static_cast<unsigned long long>(c.generated), c.avg_query_delay_s,
        c.msgs_per_node, c.fairness, c.f_ratio, c.t_ratio,
        static_cast<unsigned long long>(c.seed));
    out += buf;
    out += "\"group\": \"" + json_mini::escape(c.group) + "\", \"key\": \"" +
           json_mini::escape(c.key) + "\" }";
  }
  std::snprintf(buf, sizeof(buf),
                "], \"shards_total\": %zu, \"shard\": %zu, "
                "\"spec_fingerprint\": \"%016llx\", \"sweep_shard\": 1 }\n",
                r.shards_total, r.shard_id,
                static_cast<unsigned long long>(r.spec_fingerprint));
  return out + buf;
}

void expect_same_cells(const ShardResult& a, const ShardResult& b) {
  EXPECT_EQ(a.spec_fingerprint, b.spec_fingerprint);
  EXPECT_EQ(a.shard_id, b.shard_id);
  EXPECT_EQ(a.shards_total, b.shards_total);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& x = a.cells[i];
    const CellResult& y = b.cells[i];
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.group, y.group);
    EXPECT_EQ(x.seed, y.seed);
    EXPECT_EQ(x.t_ratio, y.t_ratio);
    EXPECT_EQ(x.f_ratio, y.f_ratio);
    EXPECT_EQ(x.fairness, y.fairness);
    EXPECT_EQ(x.msgs_per_node, y.msgs_per_node);
    EXPECT_EQ(x.avg_query_delay_s, y.avg_query_delay_s);
    EXPECT_EQ(x.generated, y.generated);
    EXPECT_EQ(x.finished, y.finished);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.events, y.events);
    EXPECT_EQ(x.messages, y.messages);
    EXPECT_EQ(x.messages_delivered, y.messages_delivered);
    EXPECT_EQ(x.messages_lost, y.messages_lost);
    EXPECT_EQ(x.messages_partitioned, y.messages_partitioned);
    EXPECT_EQ(x.stale_dead_provider, y.stale_dead_provider);
    EXPECT_EQ(x.stale_misplaced, y.stale_misplaced);
    EXPECT_EQ(x.slot_span_ratio, y.slot_span_ratio);
    EXPECT_EQ(x.wall_seconds, y.wall_seconds);
    EXPECT_EQ(x.latency_first_result.encode(),
              y.latency_first_result.encode());
    EXPECT_EQ(x.latency_finish.encode(), y.latency_finish.encode());
    ASSERT_EQ(x.metrics.size(), y.metrics.size());
    for (std::size_t m = 0; m < x.metrics.size(); ++m) {
      EXPECT_EQ(x.metrics[m].name, y.metrics[m].name);
      EXPECT_EQ(x.metrics[m].value, y.metrics[m].value);
    }
    ASSERT_EQ(x.series.size(), y.series.size());
    for (std::size_t s = 0; s < x.series.size(); ++s) {
      EXPECT_EQ(x.series[s].hour, y.series[s].hour);
      EXPECT_EQ(x.series[s].generated, y.series[s].generated);
      EXPECT_EQ(x.series[s].finished, y.series[s].finished);
      EXPECT_EQ(x.series[s].failed, y.series[s].failed);
      EXPECT_EQ(x.series[s].t_ratio, y.series[s].t_ratio);
      EXPECT_EQ(x.series[s].f_ratio, y.series[s].f_ratio);
      EXPECT_EQ(x.series[s].fairness, y.series[s].fairness);
    }
  }
}

/// One in-process sweep of tiny_spec(), kept for every case below.
class StrictReader : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.dir = dir_.path();
    const auto outcome = orchestrate(spec_, kShards, options_);
    ASSERT_TRUE(outcome.has_value() && outcome->ok());
    merged_ = merged_bytes();
    ASSERT_FALSE(merged_.empty());
    // Corrupt the shard holding the most cells.
    const std::vector<Shard> shards = partition(spec_, kShards);
    for (const Shard& s : shards) {
      if (s.cells.size() > shards[victim_].cells.size()) victim_ = s.id;
    }
    shard_text_ = read_file(shard_path(dir_.path(), victim_)).value_or("");
    ASSERT_NE(shard_text_.find("\"hour\""), std::string::npos)
        << "the victim shard must carry series samples";
    ASSERT_EQ(shard_text_.find("\"lat_first_b\": \"\""), std::string::npos)
        << "the victim shard must carry latency samples";
  }

  /// Merge the directory and return the report bytes ("" on failure).
  std::string merged_bytes() {
    std::string err;
    const auto report = merge_shards(dir_.path(), spec_, kShards, &err);
    const std::string path = dir_.path() + "/merged.json";
    if (!report.has_value() || !write_merged_report(path, spec_, *report)) {
      return "";
    }
    return read_file(path).value_or("");
  }

  const SweepSpec spec_ = tiny_spec();
  const TempDir dir_{"sweep"};
  OrchestrateOptions options_;
  std::string merged_;
  std::string shard_text_;
  std::size_t victim_ = 0;
};

TEST_F(StrictReader, DamagedShardIsNeverMergedAndIsRerun) {
  auto cases = common_corruptions(shard_text_, "seed");
  const std::string& t = shard_text_;
  cases.insert(
      cases.end(),
      {
          {"\"events\" removed", cut(t, "\"events\": ", ", ")},
          {"duplicate key",
           replace_first(t, "\"f_ratio\":", "\"t_ratio\": 0.5, \"f_ratio\":")},
          {"\"metrics\" removed", cut(t, "\"metrics\": [", "],")},
          {"\"lat_first_b\" removed", cut(t, "\"lat_first_b\": ", "\",")},
          {"series sample without \"hour\"",
           replace_first(t, "{ \"hour\": ", "{ \"hours\": ")},
          {"fingerprint of 17 hex digits",
           replace_first(t, "\"spec_fingerprint\": \"",
                         "\"spec_fingerprint\": \"0")},
          {"unknown schema version",
           replace_first(t, "\"sweep_shard\": 1", "\"sweep_shard\": 2")},
      });
  const std::string path = shard_path(dir_.path(), victim_);
  for (const auto& [what, text] : cases) {
    SCOPED_TRACE(what);
    ASSERT_NE(text, shard_text_);
    ASSERT_TRUE(write_atomic(path, text));
    EXPECT_FALSE(read_shard_result(path).has_value());
    std::string err;
    EXPECT_FALSE(merge_shards(dir_.path(), spec_, kShards, &err).has_value());
    const auto outcome = orchestrate(spec_, kShards, options_);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->ran, 1u) << "the damaged shard re-runs";
    EXPECT_EQ(outcome->skipped, kShards - 1);
    EXPECT_EQ(merged_bytes(), merged_);
  }
}

TEST_F(StrictReader, ShardKeysReadTheSameInAnyOrder) {
  const auto forward = read_shard_result(shard_path(dir_.path(), victim_));
  ASSERT_TRUE(forward.has_value());
  const std::string path = dir_.path() + "/reversed.json";
  ASSERT_TRUE(write_atomic(path, reversed_shard_json(*forward)));
  const auto reversed = read_shard_result(path);
  ASSERT_TRUE(reversed.has_value());
  expect_same_cells(*forward, *reversed);
}

TEST_F(StrictReader, DamagedManifestIsRejectedAndRewritten) {
  const std::string path = manifest_path(dir_.path());
  const std::string text = read_file(path).value_or("");
  auto cases = common_corruptions(text, "shards_total");
  cases.insert(
      cases.end(),
      {
          {"\"shards_total\" removed", cut(text, "\"shards_total\": ", ",")},
          {"duplicate key",
           replace_first(text, "\"spec\":", "\"shards_total\": 9, \"spec\":")},
          {"shard without \"state\"", cut(text, ", \"state\": ", "\"done\"")},
          {"fingerprint of 17 hex digits",
           replace_first(text, "\"spec_fingerprint\": \"",
                         "\"spec_fingerprint\": \"0")},
          {"unknown schema version",
           replace_first(text, "\"sweep_manifest\": 1",
                         "\"sweep_manifest\": 2")},
      });
  for (const auto& [what, bad] : cases) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(write_atomic(path, bad));
    EXPECT_FALSE(read_manifest(dir_.path()).has_value());
    const auto outcome = orchestrate(spec_, kShards, options_);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->skipped, kShards);
    EXPECT_EQ(read_file(path), text);
  }

  // Reversed key order reads the same values.
  const auto forward = read_manifest(dir_.path());
  ASSERT_TRUE(forward.has_value());
  std::string reversed = "{ \"shards\": [";
  for (std::size_t i = 0; i < forward->shards.size(); ++i) {
    const ShardStatus& s = forward->shards[i];
    reversed += (i > 0 ? ", { \"state\": \"" : " { \"state\": \"") +
                s.state + "\", \"cells\": " + std::to_string(s.cells) +
                ", \"id\": " + std::to_string(s.id) + " }";
  }
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(forward->spec_fingerprint));
  reversed += "], \"shards_total\": " + std::to_string(forward->shards_total) +
              ", \"spec\": \"" + json_mini::escape(forward->spec) +
              "\", \"spec_fingerprint\": \"" + fp +
              "\", \"sweep_manifest\": 1 }\n";
  ASSERT_TRUE(write_atomic(path, reversed));
  const auto back = read_manifest(dir_.path());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec_fingerprint, forward->spec_fingerprint);
  EXPECT_EQ(back->spec, forward->spec);
  EXPECT_EQ(back->shards_total, forward->shards_total);
  ASSERT_EQ(back->shards.size(), forward->shards.size());
  for (std::size_t i = 0; i < back->shards.size(); ++i) {
    EXPECT_EQ(back->shards[i].id, forward->shards[i].id);
    EXPECT_EQ(back->shards[i].cells, forward->shards[i].cells);
    EXPECT_EQ(back->shards[i].state, forward->shards[i].state);
  }
}

TEST_F(StrictReader, DamagedReportIsRejected) {
  // A merged sweep report and a bench_report-style BENCH file.
  const std::string bench_path = dir_.path() + "/BENCH_tiny.json";
  bench::BenchOptions opt;
  opt.nodes = 24;
  opt.hours = 0.2;
  ASSERT_TRUE(bench::write_perf_json(bench_path, "tiny", opt,
                                     {bench::timed_run(opt.base_config())}));
  const std::string bench_text = read_file(bench_path).value_or("");

  for (const std::string& text : {merged_, bench_text}) {
    std::string err;
    const auto good = bench::parse_report_text(text, &err);
    ASSERT_TRUE(good.has_value()) << err;
    auto cases = common_corruptions(text, "nodes");
    cases.insert(
        cases.end(),
        {
            {"\"events\" removed", cut(text, "\"events\": ", ", ")},
            {"duplicate key",
             replace_first(text, "\"wall_seconds\":",
                           "\"events\": 1, \"wall_seconds\":")},
            {"\"experiments\" removed",
             replace_first(text, "\"experiments\":", "\"experiment\":")},
            {"nesting past the depth cap",
             replace_first(text, "\"events\":",
                           "\"extra\": " + std::string(40, '[') +
                               std::string(40, ']') + ", \"events\":")},
        });
    for (const auto& [what, bad] : cases) {
      SCOPED_TRACE(what);
      EXPECT_FALSE(bench::parse_report_text(bad, &err).has_value());
    }

    // Reversed key order reads the same values.
    std::string reversed = "{ \"experiments\": [";
    char buf[512];
    for (std::size_t i = 0; i < good->experiments.size(); ++i) {
      const bench::PerfExperiment& e = good->experiments[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{ \"slot_span_ratio\": %.17g, "
                    "\"messages_per_sec\": %.17g, \"messages\": %.17g, "
                    "\"events_per_sec\": %.17g, \"events\": %.17g, "
                    "\"wall_seconds\": %.17g, \"name\": \"%s\" }",
                    i > 0 ? ", " : "", e.slot_span_ratio, e.messages_per_sec,
                    e.messages, e.events_per_sec, e.events, e.wall_seconds,
                    json_mini::escape(e.name).c_str());
      reversed += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "], \"peak_rss_bytes_per_node\": %.17g, \"seed\": %.17g, "
                  "\"hours\": %.17g, \"nodes\": %.17g }",
                  good->peak_rss_bytes_per_node, good->seed, good->hours,
                  good->nodes);
    const auto back = bench::parse_report_text(reversed + buf, &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->nodes, good->nodes);
    EXPECT_EQ(back->hours, good->hours);
    EXPECT_EQ(back->seed, good->seed);
    EXPECT_EQ(back->peak_rss_bytes_per_node, good->peak_rss_bytes_per_node);
    ASSERT_EQ(back->experiments.size(), good->experiments.size());
    for (std::size_t i = 0; i < back->experiments.size(); ++i) {
      const bench::PerfExperiment& a = back->experiments[i];
      const bench::PerfExperiment& b = good->experiments[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.wall_seconds, b.wall_seconds);
      EXPECT_EQ(a.events, b.events);
      EXPECT_EQ(a.events_per_sec, b.events_per_sec);
      EXPECT_EQ(a.messages, b.messages);
      EXPECT_EQ(a.messages_per_sec, b.messages_per_sec);
      EXPECT_EQ(a.slot_span_ratio, b.slot_span_ratio);
    }
  }

  // Only the two fields bench/BENCH_baseline.json predates may be absent.
  std::string err;
  const auto old_schema = bench::parse_report_text(
      cut(cut(bench_text, "\"peak_rss_bytes_per_node\": ", ",\n"),
          "\"slot_span_ratio\": ", ",\n"),
      &err);
  ASSERT_TRUE(old_schema.has_value()) << err;
  EXPECT_EQ(old_schema->peak_rss_bytes_per_node, 0.0);
  EXPECT_EQ(old_schema->experiments[0].slot_span_ratio, 1.0);
}

}  // namespace
}  // namespace soc::sweep
