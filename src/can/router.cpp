#include "src/can/router.hpp"

#include <memory>
#include <utility>

#include "src/common/logging.hpp"
#include "src/obs/trace.hpp"

namespace soc::can {

namespace {

// What a multi-hop route shares, allocated once per route.  The finger
// hook and the message type ride in each hop closure instead, in bytes the
// InlineFn buffer has spare, which keeps this allocation (one per route in
// flight) as small as before the hook existed.
struct RouteState {
  ArriveFn on_arrive;
  Point target;
  CanSpace* space;
  net::MessageBus* bus;
  std::size_t bytes;
};

void step(const std::shared_ptr<RouteState>& st, const Fingers* fingers,
          net::MsgType type, NodeId at, std::size_t ttl) {
  CanSpace& space = *st->space;
  if (!space.contains(at)) return;  // current hop churned out: message lost
  if (space.zone_of(at).contains(st->target)) {
    st->on_arrive(at);
    return;
  }
  if (ttl == 0) {
    SOC_LOG(kDebug) << "[t=" << st->bus->simulator().now()
                    << "us] route TTL exhausted at node " << at.value;
    return;
  }

  // Rank by (containment, box distance, center distance); the strictly
  // decreasing key avoids cycles and resolves corner/boundary plateaus —
  // see CanSpace::next_hop for the rationale.  The scan prunes candidates
  // via the cached abutting-dimension metadata; a containing neighbor
  // skips the finger hook (no finger can displace a zone that owns the
  // target).
  NodeId best;
  double best_d = space.zone_of(at).distance_sq(st->target);
  double best_c = point_distance_sq(space.center_of(at), st->target);
  const bool contained =
      space.scan_neighbors_toward(at, st->target, best, best_d, best_c);
  if (!contained && fingers != nullptr) {
    fingers->rank_fingers(at, st->target, best, best_d, best_c);
  }
  if (!best.valid()) {
    SOC_LOG(kDebug) << "[t=" << st->bus->simulator().now()
                    << "us] route stalled at node " << at.value;
    return;
  }
  // Trace query routing hops only — periodic state updates route too and
  // would swamp the trace with O(nodes/period) events.
  if (type == net::MsgType::kDutyQuery) {
    if (obs::Tracer* t = obs::tracer()) {
      t->instant("route", "hop", st->bus->simulator().now(), "to", best.value);
    }
  }
  st->bus->send(at, best, type, st->bytes, [st, fingers, type, best, ttl] {
    step(st, fingers, type, best, ttl - 1);
  });
}

}  // namespace

void route_greedy(CanSpace& space, net::MessageBus& bus, NodeId from,
                  const Point& target, net::MsgType type, std::size_t bytes,
                  std::size_t ttl, ArriveFn on_arrive, const Fingers* fingers) {
  auto st = std::make_shared<RouteState>(
      RouteState{std::move(on_arrive), target, &space, &bus, bytes});
  step(st, fingers, type, from, ttl);
}

}  // namespace soc::can
