#include "src/net/link_model.hpp"

#include <algorithm>

namespace soc::net {

LinkModel::LinkModel(const Topology& topo, LinkFaultConfig config, Rng rng)
    : topo_(topo), config_(config), rng_(rng),
      straggler_rng_(rng_.fork("stragglers")) {
  SOC_CHECK(config_.straggler_multiplier >= 1.0);
}

double LinkModel::straggler_multiplier_of(NodeId id) {
  if (config_.straggler_fraction <= 0.0) return 1.0;
  if (id.value >= straggler_cache_.size()) {
    straggler_cache_.resize(id.value + 1, 0.0);
  }
  double& cached = straggler_cache_[id.value];
  if (cached == 0.0) {
    // One fork per id: the assignment is a pure function of (seed, id), not
    // of which messages happened to flow first.
    Rng r = straggler_rng_.fork(id.value);
    cached = r.chance(config_.straggler_fraction)
                 ? config_.straggler_multiplier
                 : 1.0;
  }
  return cached;
}

LinkModel::Fate LinkModel::apply(NodeId from, NodeId to) {
  Fate fate;

  // Step the Gilbert–Elliott chain of the link class this message crosses,
  // then draw loss at the post-step state's rate.  One chain per class (not
  // per link pair) is the correlation: a bad spell on the WAN hits every
  // concurrent cross-LAN message.
  const bool wan = !topo_.same_lan(from, to);
  const GilbertElliott& ge = wan ? config_.wan : config_.lan;
  bool& bad = wan ? wan_bad_ : lan_bad_;
  if (bad) {
    if (rng_.chance(ge.p_exit_bad)) bad = false;
  } else {
    if (rng_.chance(ge.p_enter_bad)) bad = true;
  }
  fate.lost = rng_.chance(bad ? ge.loss_bad : ge.loss_good);

  if (config_.reorder_probability > 0.0 &&
      rng_.chance(config_.reorder_probability)) {
    fate.extra_delay =
        seconds(rng_.uniform(0.0, config_.reorder_extra_delay_s));
  }
  if (config_.duplicate_probability > 0.0 &&
      rng_.chance(config_.duplicate_probability)) {
    fate.duplicate = true;
    fate.duplicate_delay_factor = rng_.uniform(1.0, 2.0);
  }
  fate.delay_multiplier = std::max(straggler_multiplier_of(from),
                                   straggler_multiplier_of(to));
  return fate;
}

}  // namespace soc::net
