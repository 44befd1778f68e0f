// KHDN-CAN baseline as a DiscoveryProtocol.
#pragma once

#include <algorithm>
#include <map>

#include "src/core/protocol.hpp"
#include "src/khdn/khdn.hpp"

namespace soc::core {

class KhdnProtocol final : public DiscoveryProtocol {
 public:
  KhdnProtocol(sim::Simulator& sim, net::MessageBus& bus, ResourceVector cmax,
               khdn::KhdnConfig config, Rng rng);

  void set_availability_source(AvailabilityFn fn) override;
  void on_join(NodeId id) override;
  void on_leave(NodeId id) override;
  void on_partition_out(NodeId id) override;
  void on_rejoin(NodeId id) override;
  [[nodiscard]] std::vector<NodeId> parked_ids() const override {
    return parked_keys(parked_);
  }
  /// Counts dead-provider records only: the K-hop spread *intentionally*
  /// replicates records away from the duty node, so "misplaced" is not a
  /// defect for KHDN and stays zero.
  [[nodiscard]] StaleDebt stale_debt(
      const std::function<bool(NodeId)>& reachable,
      SimTime now) const override;
  void query(NodeId requester, const ResourceVector& demand,
             std::size_t want, QueryCallback cb) override;
  void republish(NodeId id) override;
  [[nodiscard]] std::string name() const override { return "KHDN-CAN"; }
  [[nodiscard]] double max_slot_span_ratio() const override {
    return std::max(space_.span_ratio(), system_.span_ratio());
  }
  void mem_breakdown(obs::MemBreakdown& out) const override {
    out.add("can.space", space_.mem_bytes());
    out.add("khdn.caches", system_.mem_bytes());
    std::size_t parked = 0;
    for (const auto& [id, cache] : parked_) {
      (void)id;
      parked += cache.mem_bytes();
    }
    out.add("core.parked", parked);
  }

  [[nodiscard]] can::CanSpace& space() { return space_; }
  [[nodiscard]] khdn::KhdnSystem& system() { return system_; }
  [[nodiscard]] const ResourceVector& cmax() const { return cmax_; }

 private:
  /// Shared overlay teardown behind on_leave and on_partition_out.
  void leave_overlay(NodeId id);

  ResourceVector cmax_;
  Rng rng_;
  can::CanSpace space_;
  khdn::KhdnSystem system_;
  net::MessageBus& bus_;
  /// Partitioned-out nodes' duty caches, keyed ascending, awaiting rejoin.
  std::map<NodeId, index::RecordStore> parked_;
};

}  // namespace soc::core
