#include "src/core/khdn_protocol.hpp"

#include <utility>

#include "src/common/assert.hpp"
#include "src/psm/task.hpp"

namespace soc::core {

KhdnProtocol::KhdnProtocol(sim::Simulator& sim, net::MessageBus& bus,
                           ResourceVector cmax, khdn::KhdnConfig config,
                           Rng rng)
    : cmax_(std::move(cmax)), rng_(rng.fork("khdn-protocol")),
      space_(cmax_.size(), rng.fork("khdn-space")),
      system_(sim, bus, space_, config, rng.fork("khdn-system")), bus_(bus) {
  system_.attach_to_space();
}

void KhdnProtocol::set_availability_source(AvailabilityFn fn) {
  system_.set_availability_provider(
      [this, fn = std::move(fn)](NodeId id) -> std::optional<index::Record> {
        const auto avail = fn(id);
        if (!avail.has_value()) return std::nullopt;
        index::Record r;
        r.provider = id;
        r.availability = *avail;
        r.location = can::Point::normalized(*avail, cmax_);
        // Reuse the KHDN record TTL for expiry.
        r.published_at = 0;
        r.expires_at = 0;
        return r;
      });
}

void KhdnProtocol::on_join(NodeId id) {
  space_.join(id);
  system_.add_node(id);
  bus_.stats().on_synthetic_send(id, net::MsgType::kMaintenance, 64,
                                 space_.neighbors_of(id).size());
  system_.publish_now(id);
}

void KhdnProtocol::leave_overlay(NodeId id) {
  const std::size_t msgs = space_.neighbors_of(id).size();
  system_.remove_node(id);
  space_.leave(id);
  bus_.stats().on_synthetic_send(id, net::MsgType::kMaintenance, 64, msgs);
}

void KhdnProtocol::on_leave(NodeId id) {
  // Death drops any parked partition state: there is no host left to rejoin.
  parked_.erase(id);
  if (!space_.contains(id)) return;
  leave_overlay(id);
}

void KhdnProtocol::on_partition_out(NodeId id) {
  if (!space_.contains(id)) return;
  SOC_CHECK(!parked_.contains(id));
  // Park the duty cache before teardown so the rehome listener moves
  // nothing to the takeover node.
  parked_.emplace(id, system_.park_node(id));
  leave_overlay(id);
}

void KhdnProtocol::on_rejoin(NodeId id) {
  const auto it = parked_.find(id);
  if (it == parked_.end()) {
    on_join(id);
    return;
  }
  index::RecordStore store = std::move(it->second);
  parked_.erase(it);
  space_.join(id);
  system_.restore_node(id, std::move(store));
  bus_.stats().on_synthetic_send(id, net::MsgType::kMaintenance, 64,
                                 space_.neighbors_of(id).size());
  system_.publish_now(id);
}

StaleDebt KhdnProtocol::stale_debt(
    const std::function<bool(NodeId)>& reachable, SimTime now) const {
  StaleDebt debt;
  auto& self = const_cast<KhdnProtocol&>(*this);
  for (const NodeId owner : space_.member_ids()) {
    for (const index::Record& r : self.system_.cache(owner).all_live(now)) {
      if (!reachable(r.provider)) ++debt.dead_provider;
    }
  }
  return debt;
}

void KhdnProtocol::republish(NodeId id) {
  if (space_.contains(id)) system_.publish_now(id);
}

void KhdnProtocol::query(NodeId requester, const ResourceVector& demand,
                         std::size_t want, QueryCallback cb) {
  system_.query(requester, demand, can::Point::normalized(demand, cmax_),
                want, std::move(cb));
}

}  // namespace soc::core
