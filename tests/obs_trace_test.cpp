// obs::Tracer invariants — the three design constraints from trace.hpp:
//
//   1. Pure observer: a traced experiment takes the exact bit-trajectory
//      of an untraced one.  Fingerprinted the same way as the golden
//      tests (raw double bits included), across all three protocols and
//      the churn scenario, so a tracer hook that draws RNG, schedules an
//      event, or perturbs iteration order fails here before it can move
//      a golden.
//   2. The emitted trace is well-formed Chrome trace-event JSON — parsed
//      whole by the same strict json_mini reader the repo's other readers
//      use (no external JSON dependency).
//   3. Span accounting is sane: every completed task/query closes its
//      async span, so 'e' events never outnumber 'b' events and at least
//      one 'e' exists per finished task.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/fnv.hpp"
#include "src/common/json_mini.hpp"
#include "src/core/experiment.hpp"
#include "src/obs/trace.hpp"

namespace soc {
namespace {

/// Same shape as the golden-trajectory config: small, churned, all
/// leave/rehome/timeout paths exercised.
core::ExperimentConfig small_config(core::ProtocolKind protocol) {
  core::ExperimentConfig c;
  c.protocol = protocol;
  c.nodes = 64;
  c.duration = seconds(3600);
  c.sample_step = seconds(600);
  c.seed = 7;
  c.churn_dynamic_degree = 0.1;
  return c;
}

/// Full-results fingerprint: counters, raw double bits, the figure series,
/// and every deterministic registry sample (names and value bits).
std::uint64_t fingerprint(const core::ExperimentResults& r) {
  Fnv64 h;
  h.add(r.generated);
  h.add(r.finished);
  h.add(r.failed);
  h.add(r.total_messages);
  h.add(r.messages_delivered);
  h.add(r.messages_lost);
  h.add(r.events_executed);
  h.add_double(r.t_ratio);
  h.add_double(r.f_ratio);
  h.add_double(r.fairness);
  h.add_double(r.avg_query_delay_s);
  for (const auto& s : r.series) {
    h.add(s.generated);
    h.add(s.finished);
    h.add(s.failed);
    h.add_double(s.t_ratio);
    h.add_double(s.f_ratio);
    h.add_double(s.fairness);
  }
  for (const auto& m : r.metrics) {
    if (!m.deterministic) continue;  // RSS/time gauges: wall-clock regime
    for (const char ch : m.name) h.add(static_cast<unsigned char>(ch));
    h.add_double(m.value);
  }
  return h.value();
}

/// Run the scenario untraced, then traced, and require bit-identical
/// results.  Returns the traced run's event counts for span accounting.
struct TracedRun {
  std::uint64_t finished = 0;
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t events = 0;
};

TracedRun expect_trace_transparent(core::ProtocolKind protocol) {
  const core::ExperimentConfig config = small_config(protocol);
  const std::uint64_t off = fingerprint(core::run_experiment(config));

  obs::Tracer tracer;
  obs::Tracer* prev = obs::install_tracer(&tracer);
  const core::ExperimentResults traced = core::run_experiment(config);
  obs::install_tracer(prev);

  EXPECT_EQ(fingerprint(traced), off)
      << "tracing perturbed the trajectory (protocol "
      << static_cast<int>(protocol) << ")";
  return TracedRun{traced.finished, tracer.count_ph('b'),
                   tracer.count_ph('e'), tracer.event_count()};
}

TEST(ObsTrace, HidCanTrajectoryIdenticalWithTracingOn) {
  const TracedRun t = expect_trace_transparent(core::ProtocolKind::kHidCan);
  // Span accounting: begins for every task and query, an end for every one
  // that completed (some spans legitimately stay open at cutoff).
  EXPECT_GT(t.ends, 0u);
  EXPECT_GE(t.begins, t.ends);
  EXPECT_GE(t.ends, t.finished) << "every finished task must close its span";
  EXPECT_GT(t.events, t.begins + t.ends) << "marks/instants missing";
}

TEST(ObsTrace, NewscastTrajectoryIdenticalWithTracingOn) {
  const TracedRun t = expect_trace_transparent(core::ProtocolKind::kNewscast);
  EXPECT_GT(t.ends, 0u);
  EXPECT_GE(t.begins, t.ends);
  EXPECT_GE(t.ends, t.finished);
}

TEST(ObsTrace, KhdnCanTrajectoryIdenticalWithTracingOn) {
  const TracedRun t = expect_trace_transparent(core::ProtocolKind::kKhdnCan);
  EXPECT_GT(t.ends, 0u);
  EXPECT_GE(t.begins, t.ends);
  EXPECT_GE(t.ends, t.finished);
}

TEST(ObsTrace, TracedTraceIsDeterministic) {
  // Same seed, same trace bytes: timestamps are simulated time and ids are
  // logical counters, so nothing wall-clock-dependent can leak in.
  const core::ExperimentConfig config =
      small_config(core::ProtocolKind::kHidCan);
  std::string first;
  for (int run = 0; run < 2; ++run) {
    obs::Tracer tracer;
    tracer.set_lane(0, "HID-CAN");
    obs::Tracer* prev = obs::install_tracer(&tracer);
    (void)core::run_experiment(config);
    obs::install_tracer(prev);
    if (run == 0) {
      first = tracer.to_json();
    } else {
      EXPECT_EQ(tracer.to_json(), first);
    }
  }
}

TEST(ObsTrace, TraceParsesAsStrictJson) {
  obs::Tracer tracer;
  obs::Tracer* prev = obs::install_tracer(&tracer);
  tracer.set_lane(3, "lane-three");
  const core::ExperimentResults r =
      core::run_experiment(small_config(core::ProtocolKind::kHidCan));
  obs::install_tracer(prev);
  ASSERT_GT(r.finished, 0u);
  ASSERT_GT(tracer.event_count(), 0u);

  const std::string json = tracer.to_json();
  const auto doc = json_mini::Value::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  json_mini::Fields trace(*doc);
  const std::vector<json_mini::Value>& events = trace.as_array("traceEvents");
  ASSERT_TRUE(trace.ok());
  // Every event carries the fields its phase needs, with the right types.
  for (const json_mini::Value& e : events) {
    json_mini::Fields f(e);
    const std::string ph = f.as_string("ph");
    ASSERT_EQ(ph.size(), 1u);
    f.as_u64("pid");
    if (ph != "M") {  // process_name metadata carries no timestamp
      f.as_double("ts");
      f.as_string("cat");
      f.as_string("name");
      if (ph == "b" || ph == "e" || ph == "n") f.as_string("id");
      if (ph == "X") f.as_double("dur");
    }
    EXPECT_TRUE(f.ok()) << "malformed '" << ph << "' event";
  }
  // Every buffered event plus the one lane-metadata record made it out.
  EXPECT_EQ(events.size(), tracer.event_count() + 1);
}

TEST(ObsTrace, GlobalSinkInstallsAndRestores) {
  ASSERT_EQ(obs::tracer(), nullptr) << "tests must leave the sink clean";
  obs::Tracer a;
  obs::Tracer b;
  EXPECT_EQ(obs::install_tracer(&a), nullptr);
  EXPECT_EQ(obs::tracer(), &a);
  EXPECT_EQ(obs::install_tracer(&b), &a);
  EXPECT_EQ(obs::tracer(), &b);
  EXPECT_EQ(obs::install_tracer(nullptr), &b);
  EXPECT_EQ(obs::tracer(), nullptr);
}

TEST(ObsTrace, PhaseCountsPartitionEventCount) {
  obs::Tracer t;
  t.begin("c", "n", 1, 10);
  t.mark("c", "m", 1, 20);
  t.end("c", "n", 1, 30);
  t.instant("p", "phase", 40);
  t.instant("p", "phase", 50, "nodes", 64);
  t.complete("w", "walk", 10, 25, "hops", 3);
  EXPECT_EQ(t.count_ph('b'), 1u);
  EXPECT_EQ(t.count_ph('n'), 1u);
  EXPECT_EQ(t.count_ph('e'), 1u);
  EXPECT_EQ(t.count_ph('i'), 2u);
  EXPECT_EQ(t.count_ph('X'), 1u);
  EXPECT_EQ(t.event_count(), 6u);
}

}  // namespace
}  // namespace soc
