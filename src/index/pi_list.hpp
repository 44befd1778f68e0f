// PIList — the Positive Index List each node accumulates from the proactive
// index diffusion (Alg. 1/2): identifiers of nodes that currently hold
// records, received from the positive direction.  Bounded capacity with
// stale-first eviction; entries expire on a TTL so departed or drained
// index nodes fade out.
//
// Storage is a flat array kept sorted by id: the capacity is small (tens of
// entries), so binary search plus contiguous scans beat a hash map on every
// operation, and iteration order is deterministic by construction (the old
// unordered_map sorted before sampling; here the live set already comes out
// id-ordered).  Stale-first eviction ties break toward the smallest id.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace soc::index {

class PiList {
 public:
  PiList(std::size_t capacity, SimTime entry_ttl)
      : capacity_(capacity), ttl_(entry_ttl) {
    SOC_CHECK(capacity > 0);
    SOC_CHECK(entry_ttl > 0);
  }

  /// Record that `id` advertised itself at time `now` (refreshes an
  /// existing entry).  Evicts the stalest entry when full.
  void add(NodeId id, SimTime now);

  void clear() { entries_.clear(); }

  [[nodiscard]] std::size_t live_count(SimTime now) const;
  [[nodiscard]] bool contains_live(NodeId id, SimTime now) const;

  /// Up to `k` distinct random live entries (Alg. 4 line 1).
  [[nodiscard]] std::vector<NodeId> sample(std::size_t k, SimTime now,
                                           Rng& rng) const;

  /// Bytes claimed by the entry array (attribution-profiler hook).
  [[nodiscard]] std::size_t mem_bytes() const {
    return entries_.capacity() * sizeof(Entry);
  }

 private:
  struct Entry {
    NodeId id;
    SimTime heard_at = 0;
  };

  [[nodiscard]] std::vector<Entry>::iterator lower_bound(NodeId id);
  [[nodiscard]] std::vector<Entry>::const_iterator lower_bound(
      NodeId id) const;

  std::size_t capacity_;
  SimTime ttl_;
  std::vector<Entry> entries_;  // sorted by id
};

}  // namespace soc::index
