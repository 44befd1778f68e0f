// Deterministic random number generation.
//
// Every experiment owns a single root seed; all stochastic components fork
// named sub-streams from it (`rng.fork("churn")`), so adding a new consumer
// of randomness never perturbs the draws seen by existing components.  The
// generator is xoshiro256++ (Blackman & Vigna), seeded via SplitMix64, both
// reimplemented here so results are identical on every platform (libstdc++'s
// distributions are not portable, so we provide our own).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/assert.hpp"

namespace soc {

/// SplitMix64: used for seeding and for integer-keyed forks.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ PRNG with portable, reproducible output.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Fork an independent stream whose seed depends on this stream's seed and
  /// the given name (order-insensitive w.r.t. other forks).
  [[nodiscard]] Rng fork(std::string_view name) const;
  /// Fork an independent stream keyed by an integer (e.g. a node id).
  [[nodiscard]] Rng fork(std::uint64_t key) const;

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli draw.
  bool chance(double p);
  /// Exponential with the given mean (inter-arrival times of the Poisson
  /// task generation process use mean 3000 s).
  double exponential(double mean);

  /// Pick a uniformly random element index from a non-empty container size.
  std::size_t pick_index(std::size_t size);

  /// Pick and return a copy of a random element.
  template <typename Container>
  auto pick(const Container& c) -> typename Container::value_type {
    SOC_CHECK(!c.empty());
    auto it = c.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick_index(c.size())));
    return *it;
  }

  /// Fisher–Yates shuffle (std::shuffle is not portable across libs).
  template <typename RandomIt>
  void shuffle(RandomIt first, RandomIt last) {
    const auto n = last - first;
    for (auto i = n - 1; i > 0; --i) {
      const auto j = static_cast<decltype(i)>(
          uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(first[i], first[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k may exceed n; then all n are
  /// returned).  Order is random.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t s_[4];
};

}  // namespace soc
