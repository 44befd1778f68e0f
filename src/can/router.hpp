// CAN greedy routing over the message bus: one bus message per hop,
// arriving at the owner of the target point.  Plain CAN neighbors give the
// vanilla O(n^{1/d}) rule the KHDN-CAN baseline uses; INSCAN adds its
// index-table fingers through the Fingers hook (O(log² n) routing).
#pragma once

#include <cstddef>

#include "src/can/space.hpp"
#include "src/common/inline_fn.hpp"
#include "src/net/message_bus.hpp"

namespace soc::can {

using ArriveFn = InlineFn<void(NodeId)>;

/// Extra next-hop candidates beyond a hop's CAN neighbors.  A pointer
/// rather than a stored callable keeps every hop closure slot-sized.
class Fingers {
 public:
  /// Rank `at`'s candidates into (best, best_d, best_c) with
  /// CanSpace::consider_candidate_toward.  Runs only at a hop where no
  /// neighbor zone contains the target.
  virtual void rank_fingers(NodeId at, const Point& target, NodeId& best,
                            double& best_d, double& best_c) const = 0;

 protected:
  ~Fingers() = default;
};

/// Route from `from` toward `target`; `on_arrive(duty)` runs at the zone
/// owner.  The message is silently lost if a hop churns out, greedy
/// progress stalls, or `ttl` hops are exhausted.  Duty-query hops are
/// traced as `route/hop` instants.
///
/// Per-route cost: one allocation for the shared route state (target point,
/// arrival callback); every per-hop forwarding closure is slot-sized and
/// lives inside the event-queue slab.
void route_greedy(CanSpace& space, net::MessageBus& bus, NodeId from,
                  const Point& target, net::MsgType type, std::size_t bytes,
                  std::size_t ttl, ArriveFn on_arrive,
                  const Fingers* fingers = nullptr);

}  // namespace soc::can
