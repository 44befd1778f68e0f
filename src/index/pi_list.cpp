#include "src/index/pi_list.hpp"

#include <algorithm>

namespace soc::index {

std::vector<PiList::Entry>::iterator PiList::lower_bound(NodeId id) {
  return std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, NodeId target) { return e.id < target; });
}

std::vector<PiList::Entry>::const_iterator PiList::lower_bound(
    NodeId id) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, NodeId target) { return e.id < target; });
}

void PiList::add(NodeId id, SimTime now) {
  SOC_CHECK(id.valid());
  const auto it = lower_bound(id);
  if (it != entries_.end() && it->id == id) {
    it->heard_at = now;
    return;
  }
  if (entries_.size() >= capacity_) {
    // Evict the stalest entry; ties break toward the smallest id (the scan
    // keeps the first minimum in id order).
    std::size_t stalest = 0;
    for (std::size_t e = 1; e < entries_.size(); ++e) {
      if (entries_[e].heard_at < entries_[stalest].heard_at) stalest = e;
    }
    std::size_t insert_at = static_cast<std::size_t>(it - entries_.begin());
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(stalest));
    if (stalest < insert_at) --insert_at;  // erase shifted the slot left
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(insert_at),
                    Entry{id, now});
    return;
  }
  entries_.insert(it, Entry{id, now});
}

std::size_t PiList::live_count(SimTime now) const {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += (now - e.heard_at) < ttl_;
  return n;
}

bool PiList::contains_live(NodeId id, SimTime now) const {
  const auto it = lower_bound(id);
  return it != entries_.end() && it->id == id && (now - it->heard_at) < ttl_;
}

std::vector<NodeId> PiList::sample(std::size_t k, SimTime now,
                                   Rng& rng) const {
  // Live entries come out in ascending id order (the deterministic base
  // order the old map version sorted into), then shuffle for the subset.
  std::vector<NodeId> live;
  live.reserve(entries_.size());
  for (const Entry& e : entries_) {
    if ((now - e.heard_at) < ttl_) live.push_back(e.id);
  }
  rng.shuffle(live.begin(), live.end());
  if (live.size() > k) live.resize(k);
  return live;
}

}  // namespace soc::index
