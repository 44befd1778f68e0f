#include "src/sim/simulator.hpp"

#include <memory>
#include <utility>

namespace soc::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

EventHandle Simulator::schedule_at(SimTime at, EventFn fn) {
  SOC_CHECK_MSG(at >= now_, "cannot schedule into the past");
  SOC_CHECK_MSG(at < kSimTimeNever, "cannot schedule at kSimTimeNever");
  return queue_.push(at, std::move(fn));
}

EventHandle Simulator::schedule_after(SimTime delay, EventFn fn) {
  SOC_CHECK(delay >= 0);
  SOC_CHECK_MSG(delay < kSimTimeNever - now_, "delay overflows SimTime");
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventHandle h) { return queue_.cancel(h); }

// Periodic processes reschedule themselves; the shared state lets the
// caller's returned handle cancel whichever firing is currently queued.
// Each firing's closure captures only the shared_ptr (16 bytes), so the
// whole chain stays inside the event-queue slab — no per-firing allocation.
struct Simulator::PeriodicState {
  Simulator* sim;
  SimTime period;
  std::function<bool()> fn;
  double jitter;
  Rng jitter_rng;
  EventHandle current;
};

void Simulator::fire_periodic(std::shared_ptr<PeriodicState> state) {
  if (!state->fn()) return;  // process asked to stop
  SimTime delay = state->period;
  if (state->jitter > 0.0) {
    const double f =
        1.0 + state->jitter * (2.0 * state->jitter_rng.uniform() - 1.0);
    delay = static_cast<SimTime>(static_cast<double>(delay) * f);
    if (delay < 1) delay = 1;
  }
  PeriodicState* s = state.get();
  s->current = schedule_after(delay, [st = std::move(state)]() mutable {
    st->sim->fire_periodic(std::move(st));
  });
}

EventHandle Simulator::schedule_periodic(SimTime period,
                                         std::function<bool()> fn,
                                         SimTime phase, double jitter) {
  SOC_CHECK(period > 0);
  SOC_CHECK(jitter >= 0.0 && jitter < 1.0);
  auto state = std::make_shared<PeriodicState>(
      PeriodicState{this, period, std::move(fn), jitter,
                    rng_.fork("periodic-jitter").fork(queue_.size()),
                    EventHandle{}});

  const SimTime first = phase >= 0 ? phase : period;
  PeriodicState* s = state.get();
  s->current = schedule_after(first, [st = std::move(state)]() mutable {
    st->sim->fire_periodic(std::move(st));
  });
  return s->current;
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto [at, fn] = queue_.pop();
    SOC_DCHECK(at >= now_);
    now_ = at;
    fn();
    ++n;
  }
  // Advance the clock to the horizon even if no event lands exactly there,
  // so consecutive run_until calls observe monotone time.
  if (until != kSimTimeNever && until > now_) now_ = until;
  executed_ += n;
  return n;
}

std::uint64_t Simulator::run_all() { return run_until(kSimTimeNever); }

bool Simulator::step(SimTime until) {
  if (queue_.empty() || queue_.next_time() > until) return false;
  auto [at, fn] = queue_.pop();
  now_ = at;
  fn();
  ++executed_;
  return true;
}

}  // namespace soc::sim
