#include "src/index/index_table.hpp"

#include <algorithm>
#include <bit>

namespace soc::index {

IndexTable::IndexTable(std::size_t dims, std::size_t samples_per_level,
                       SimTime entry_ttl)
    : dims_(dims), samples_per_level_(samples_per_level), ttl_(entry_ttl),
      tracks_(dims * 2) {
  SOC_CHECK(dims > 0);
  SOC_CHECK(samples_per_level > 0);
}

std::size_t IndexTable::track_index(std::size_t dim,
                                    can::Direction dir) const {
  SOC_CHECK(dim < dims_);
  return dim * 2 + (dir == can::Direction::kPositive ? 1 : 0);
}

void IndexTable::store(std::size_t dim, can::Direction dir, std::size_t level,
                       NodeId id, SimTime now) {
  SOC_CHECK(level < 64);  // pick() tracks the level set in a 64-bit mask
  auto& track = tracks_[track_index(dim, dir)];
  // Refresh an existing identical entry in place.
  for (auto& e : track) {
    if (e.id == id && e.level == level) {
      e.refreshed_at = now;
      return;
    }
  }
  // Enforce the per-level sample cap by evicting the stalest same-level
  // entry when full.
  std::size_t level_count = 0;
  auto stalest = track.end();
  for (auto it = track.begin(); it != track.end(); ++it) {
    if (it->level != level) continue;
    ++level_count;
    if (stalest == track.end() || it->refreshed_at < stalest->refreshed_at) {
      stalest = it;
    }
  }
  if (level_count >= samples_per_level_ && stalest != track.end()) {
    track.erase(stalest);
  }
  track.push_back(Entry{id, level, now});
}

std::vector<IndexTable::Entry> IndexTable::live_entries(
    std::size_t dim, can::Direction dir, SimTime now) const {
  std::vector<Entry> out;
  for_each_live(dim, dir, now, [&](const Entry& e) { out.push_back(e); });
  return out;
}

std::optional<NodeId> IndexTable::pick(std::size_t dim, can::Direction dir,
                                       IndexSelectPolicy policy, SimTime now,
                                       Rng& rng) const {
  // Allocation-free: one summary scan over the (tiny) track, then at most
  // two more indexed scans.  Draw order and distribution are identical to
  // the old collect-into-vectors version — live entries visit in track
  // order, the level set enumerates ascending (the sorted-unique order),
  // and each policy makes the same pick_index calls — so selection
  // trajectories are unchanged.
  std::size_t live_count = 0;
  std::uint64_t level_mask = 0;
  NodeId nearest;
  std::size_t nearest_level = ~std::size_t{0};
  for_each_live(dim, dir, now, [&](const Entry& e) {
    ++live_count;
    level_mask |= std::uint64_t{1} << e.level;
    if (e.level < nearest_level) {  // strict: keep the first minimum
      nearest_level = e.level;
      nearest = e.id;
    }
  });
  if (live_count == 0) return std::nullopt;

  // Return the k-th live entry (track order) matching `filter`.
  const auto nth_live = [&](std::size_t k, auto&& filter) {
    NodeId out;
    for_each_live(dim, dir, now, [&](const Entry& e) {
      if (out.valid() || !filter(e)) return;
      if (k-- == 0) out = e.id;
    });
    SOC_CHECK(out.valid());
    return out;
  };

  switch (policy) {
    case IndexSelectPolicy::kRandomPowerLevel: {
      // Random level among those present, then a random sample within it —
      // this is the 2^k randomized selection of the paper.
      std::size_t nth = rng.pick_index(
          static_cast<std::size_t>(std::popcount(level_mask)));
      std::uint64_t mask = level_mask;
      while (nth-- > 0) mask &= mask - 1;  // drop the lowest set bits
      const auto lvl = static_cast<std::size_t>(std::countr_zero(mask));
      std::size_t at_level = 0;
      for_each_live(dim, dir, now,
                    [&](const Entry& e) { at_level += e.level == lvl; });
      return nth_live(rng.pick_index(at_level),
                      [&](const Entry& e) { return e.level == lvl; });
    }
    case IndexSelectPolicy::kNearestOnly:
      return nearest;
    case IndexSelectPolicy::kUniformEntry:
      return nth_live(rng.pick_index(live_count),
                      [](const Entry&) { return true; });
  }
  return std::nullopt;
}

std::size_t IndexTable::total_entries() const {
  std::size_t n = 0;
  for (const auto& t : tracks_) n += t.size();
  return n;
}

}  // namespace soc::index
