#include "src/can/space.hpp"

#include <algorithm>

namespace soc::can {

CanSpace::CanSpace(std::size_t dims, Rng rng) : dims_(dims), rng_(rng) {
  SOC_CHECK(dims > 0 && dims <= kMaxDims);
}

CanSpace::Member& CanSpace::member(NodeId id) {
  Member* m = members_.find(id);
  SOC_CHECK_MSG(m != nullptr, "unknown member");
  return *m;
}

const CanSpace::Member& CanSpace::member(NodeId id) const {
  const Member* m = members_.find(id);
  SOC_CHECK_MSG(m != nullptr, "unknown member");
  return *m;
}

void CanSpace::upsert_link(Member& m, NodeId id, std::uint8_t dim,
                           bool positive) {
  const auto it = std::lower_bound(m.neighbors.begin(), m.neighbors.end(), id);
  const auto pos = it - m.neighbors.begin();
  if (it == m.neighbors.end() || *it != id) {
    m.neighbors.insert(it, id);
    m.links.insert(m.links.begin() + pos, NeighborLink{id, dim, positive});
    return;
  }
  // Already neighbors: the abutting dimension/side may have changed with a
  // zone update, so always rewrite the cached metadata.
  m.links[static_cast<std::size_t>(pos)] = NeighborLink{id, dim, positive};
}

void CanSpace::erase_link(Member& m, NodeId id) {
  const auto it = std::lower_bound(m.neighbors.begin(), m.neighbors.end(), id);
  if (it != m.neighbors.end() && *it == id) {
    m.links.erase(m.links.begin() + (it - m.neighbors.begin()));
    m.neighbors.erase(it);
  }
}

void CanSpace::refresh_against(NodeId id,
                               const std::vector<NodeId>& candidates) {
  Member& m = member(id);
  for (const NodeId c : candidates) {
    if (c == id || !members_.contains(c)) continue;
    Member& other = member(c);
    const auto adim = m.zone.adjacency_dim(other.zone);
    if (adim.has_value()) {
      const auto dim = static_cast<std::uint8_t>(*adim);
      const bool positive = m.zone.positive_side(other.zone, *adim);
      upsert_link(m, c, dim, positive);
      upsert_link(other, id, dim, !positive);
    } else {
      erase_link(m, c);
      erase_link(other, id);
    }
  }
}

void CanSpace::drop_from_all_neighbors(NodeId id) {
  for (const NodeId n : member(id).neighbors) {
    erase_link(member(n), id);
  }
}

Point CanSpace::join(NodeId id, std::optional<Point> point_hint) {
  SOC_CHECK(id.valid());
  SOC_CHECK_MSG(!members_.contains(id), "node already joined");

  Point p = point_hint.value_or(Point(dims_));
  if (!point_hint.has_value()) {
    for (std::size_t i = 0; i < dims_; ++i) p[i] = rng_.uniform();
  }

  if (!tree_.has_value()) {
    tree_.emplace(dims_, id);
    const Zone unit = Zone::unit(dims_);
    members_.emplace(id, Member{unit, unit.center(), {}, {}});
    return p;
  }

  const NodeId owner = tree_->owner_of(p);
  tree_->split(owner, id, p);

  // Candidates for both halves: the splitter's old neighborhood plus the
  // two halves against each other.
  std::vector<NodeId> candidates = member(owner).neighbors;
  candidates.push_back(owner);

  // Insert the joiner before touching the owner again: DenseNodeMap growth
  // invalidates outstanding references.
  const Zone joiner_zone = tree_->zone_of(id);
  members_.emplace(id, Member{joiner_zone, joiner_zone.center(), {}, {}});
  set_zone(member(owner), tree_->zone_of(owner));

  refresh_against(owner, candidates);
  candidates.push_back(id);  // not used against itself; harmless
  refresh_against(id, candidates);

  // Records of the splitter that now fall in the joiner's half move over.
  if (listener_.on_rehome) listener_.on_rehome(owner, id);
  return p;
}

void CanSpace::leave(NodeId id) {
  SOC_CHECK_MSG(members_.contains(id), "unknown member");
  if (members_.size() == 1) {
    members_.clear();
    tree_.reset();
    return;
  }

  const PartitionTree::Repair repair = tree_->leave(id);

  // Collect every node whose zone or neighborhood may change, with their
  // pre-repair neighbor sets as candidate pools.
  std::vector<NodeId> affected;
  affected.push_back(repair.merge_survivor);
  if (repair.reassigned_to.valid()) affected.push_back(repair.reassigned_to);

  std::vector<NodeId> candidates = member(id).neighbors;
  for (const NodeId a : affected) {
    if (!members_.contains(a)) continue;
    const auto& ns = member(a).neighbors;
    candidates.insert(candidates.end(), ns.begin(), ns.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Records of the departing node move to whoever now owns its old zone:
  // the reassigned node when there is one, else the merge survivor.
  const NodeId heir = repair.reassigned_to.valid() ? repair.reassigned_to
                                                   : repair.merge_survivor;
  if (listener_.on_rehome) listener_.on_rehome(id, heir);

  drop_from_all_neighbors(id);
  members_.erase(id);

  // Apply new zones, then refresh adjacency for all affected nodes against
  // the combined candidate pool.
  for (const NodeId a : affected) {
    set_zone(member(a), tree_->zone_of(a));
  }
  // The candidate pool (old neighborhoods of the departed node and of every
  // affected node) covers all adjacency pairs that can appear or disappear:
  // zone growth never loses neighbors, and the relocated node's new
  // neighborhood is a subset of the departed node's old one.
  for (const NodeId a : affected) {
    refresh_against(a, candidates);
  }
  // When y (reassigned_to) vacated its old zone to z, records y held move
  // to z as part of the same repair.
  if (repair.reassigned_to.valid() && listener_.on_rehome) {
    listener_.on_rehome(repair.reassigned_to, repair.merge_survivor);
  }

  // Safe point: every Member& taken during the repair is dead and all
  // listener callbacks have returned.  Reclaim departed-node holes so
  // long churn keeps iteration O(live), not O(total joins ever).
  members_.maybe_compact();
}

const Zone& CanSpace::zone_of(NodeId id) const { return member(id).zone; }

const Point& CanSpace::center_of(NodeId id) const { return member(id).center; }

NodeId CanSpace::owner_of(const Point& p) const {
  SOC_CHECK(tree_.has_value());
  return tree_->owner_of(p);
}

const std::vector<NodeId>& CanSpace::neighbors_of(NodeId id) const {
  return member(id).neighbors;
}

const std::vector<CanSpace::NeighborLink>& CanSpace::neighbor_links(
    NodeId id) const {
  return member(id).links;
}

void CanSpace::directional_neighbors(NodeId id, std::size_t dim, Direction dir,
                                     std::vector<NodeId>& out) const {
  SOC_CHECK(dim < dims_);
  out.clear();
  const bool want_positive = dir == Direction::kPositive;
  for (const NeighborLink& l : member(id).links) {
    if (l.dim == dim && l.positive == want_positive) out.push_back(l.id);
  }
}

std::vector<NodeId> CanSpace::directional_neighbors(NodeId id, std::size_t dim,
                                                    Direction dir) const {
  std::vector<NodeId> out;
  directional_neighbors(id, dim, dir, out);
  return out;
}

bool CanSpace::scan_neighbors_toward(NodeId from, const Point& target,
                                     NodeId& best, double& best_d,
                                     double& best_c) const {
  const Member& m = member(from);
  for (const NeighborLink& l : m.links) {
    // Exact prune: the neighbor's zone starts at our boundary along its
    // abutting dimension, so that axis alone contributes at least gap² to
    // its box distance (an fp lower bound: distance_sq sums the identical
    // subtraction's square with non-negative terms).  Strict > keeps
    // plateau ties — resolved by center distance then id — intact, and a
    // containing neighbor always has gap <= 0, so it is never pruned.
    const double gap = l.positive ? m.zone.hi(l.dim) - target[l.dim]
                                  : target[l.dim] - m.zone.lo(l.dim);
    if (gap > 0.0 && gap * gap > best_d) continue;
    if (consider_candidate_toward(l.id, target, best, best_d, best_c)) {
      return true;
    }
  }
  return false;
}

bool CanSpace::consider_candidate_toward(NodeId cand, const Point& target,
                                         NodeId& best, double& best_d,
                                         double& best_c) const {
  const Member& cm = member(cand);
  const Zone& z = cm.zone;
  if (z.contains(target)) {
    best = cand;
    best_d = -1.0;
    best_c = -1.0;
    return true;
  }
  const double d = z.distance_sq(target);
  const double c = point_distance_sq(cm.center, target);
  if (d < best_d || (d == best_d && c < best_c) ||
      (d == best_d && c == best_c && best.valid() && cand < best)) {
    best = cand;
    best_d = d;
    best_c = c;
  }
  return false;
}

NodeId CanSpace::next_hop(NodeId from, const Point& target) const {
  const Member& m = member(from);
  if (m.zone.contains(target)) return from;
  // Candidates are ranked by (containment, box distance, center distance):
  // a zone owning the target wins outright; otherwise strictly smaller box
  // distance wins; center distance breaks plateaus — in particular targets
  // on zone corners, where several non-owning zones all report box
  // distance 0 and the owner may not be adjacent to the current node.
  // The key strictly decreases every hop, so routing cannot cycle.
  NodeId best;  // invalid until a neighbor strictly improves on our zone
  double best_d = m.zone.distance_sq(target);
  double best_c = point_distance_sq(m.center, target);
  scan_neighbors_toward(from, target, best, best_d, best_c);
  SOC_CHECK_MSG(best.valid(), "greedy routing stalled");
  return best;
}

std::vector<NodeId> CanSpace::route(NodeId from, const Point& target) const {
  std::vector<NodeId> path;
  NodeId cur = from;
  while (!member(cur).zone.contains(target)) {
    cur = next_hop(cur, target);
    path.push_back(cur);
    SOC_CHECK_MSG(path.size() <= members_.size(), "routing loop");
  }
  return path;
}

NodeId CanSpace::random_member(Rng& rng) const {
  const auto ids = member_ids();
  SOC_CHECK(!ids.empty());
  return ids[rng.pick_index(ids.size())];
}

double CanSpace::total_volume() const {
  double sum = 0.0;
  for (const auto& [id, m] : members_) sum += m.zone.volume();
  return sum;
}

bool CanSpace::verify_adjacency_cache() const {
  for (const auto& [id, m] : members_) {
    if (!(m.center == m.zone.center())) return false;
    if (m.links.size() != m.neighbors.size()) return false;
    for (std::size_t i = 0; i < m.links.size(); ++i) {
      const NeighborLink& l = m.links[i];
      if (l.id != m.neighbors[i]) return false;
      const Member* other = members_.find(l.id);
      if (other == nullptr) return false;
      const auto adim = m.zone.adjacency_dim(other->zone);
      if (!adim.has_value() || *adim != l.dim) return false;
      if (m.zone.positive_side(other->zone, *adim) != l.positive) return false;
    }
  }
  return true;
}

bool CanSpace::verify_invariants() const {
  if (members_.empty()) return true;
  if (!tree_->tiles_unit_cube()) return false;
  if (!verify_adjacency_cache()) return false;
  const auto ids = member_ids();
  for (const NodeId a : ids) {
    if (member(a).zone == tree_->zone_of(a)) continue;
    return false;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Member& mi = member(ids[i]);
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const Member& mj = member(ids[j]);
      const bool adjacent = mi.zone.adjacency_dim(mj.zone).has_value();
      const bool listed_ij = std::binary_search(mi.neighbors.begin(),
                                                mi.neighbors.end(), ids[j]);
      const bool listed_ji = std::binary_search(mj.neighbors.begin(),
                                                mj.neighbors.end(), ids[i]);
      if (adjacent != listed_ij || adjacent != listed_ji) return false;
      if (mi.zone.overlaps(mj.zone)) return false;
    }
  }
  return true;
}

}  // namespace soc::can
