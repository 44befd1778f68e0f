// INSCAN index-node tables: per dimension and direction, sampled nodes at
// 2^k zone-hops (k = 0, 1, 2, …), refreshed by periodic directional probe
// walks.  These are the NINodes of Algorithms 1–2 and the long links that
// bring INSCAN routing to O(log² n).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/can/space.hpp"
#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace soc::index {

/// Index-node selection policies for the ablation study.  The paper's
/// design samples a random 2^k level then a random entry; alternatives keep
/// only the nearest level or draw a uniformly random known entry.
enum class IndexSelectPolicy : std::uint8_t {
  kRandomPowerLevel,  // paper: random k, then random sample at that level
  kNearestOnly,       // always the 1-hop entry (degenerates to neighbors)
  kUniformEntry,      // uniform over all stored entries regardless of level
};

class IndexTable {
 public:
  struct Entry {
    NodeId id;
    std::size_t level = 0;  // distance 2^level zone-hops
    SimTime refreshed_at = 0;
  };

  IndexTable(std::size_t dims, std::size_t samples_per_level,
             SimTime entry_ttl);

  /// Store a probe result: `id` sits 2^level hops away along (dim, dir).
  void store(std::size_t dim, can::Direction dir, std::size_t level,
             NodeId id, SimTime now);

  /// A NINode along (dim, dir) chosen per the policy; nullopt when the
  /// track is empty (e.g. at the space edge).  Allocation-free: selection
  /// runs as indexed scans over the track plus a 64-bit level mask (hence
  /// the `level < 64` bound enforced by store()), with the same RNG draw
  /// order as the original collect-into-vectors implementation.
  [[nodiscard]] std::optional<NodeId> pick(std::size_t dim,
                                           can::Direction dir,
                                           IndexSelectPolicy policy,
                                           SimTime now, Rng& rng) const;

  /// All live entries along a track (query layer may scan them).
  [[nodiscard]] std::vector<Entry> live_entries(std::size_t dim,
                                                can::Direction dir,
                                                SimTime now) const;

  /// Visit live entries along a track without allocating — the per-hop
  /// routing path uses this to treat index entries as long-link fingers.
  template <typename Fn>
  void for_each_live(std::size_t dim, can::Direction dir, SimTime now,
                     Fn&& fn) const {
    for (const Entry& e : tracks_[track_index(dim, dir)]) {
      if ((now - e.refreshed_at) < ttl_) fn(e);
    }
  }

  [[nodiscard]] std::size_t dims() const { return dims_; }
  [[nodiscard]] std::size_t total_entries() const;

  /// Bytes claimed by the per-track entry arrays
  /// (attribution-profiler hook).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t b = tracks_.capacity() * sizeof(std::vector<Entry>);
    for (const auto& t : tracks_) b += t.capacity() * sizeof(Entry);
    return b;
  }

 private:
  [[nodiscard]] std::size_t track_index(std::size_t dim,
                                        can::Direction dir) const;

  std::size_t dims_;
  std::size_t samples_per_level_;
  SimTime ttl_;
  std::vector<std::vector<Entry>> tracks_;  // [dim × direction]
};

}  // namespace soc::index
