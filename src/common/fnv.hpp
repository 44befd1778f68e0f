// 64-bit FNV-1a, the one content hash of the project: RNG stream names,
// sweep spec fingerprints, cell seeds and shard ids, and the results
// fingerprints the golden tests, the fuzzer and bench_scale compare.  The
// byte stream is platform-independent: integers enter as 8 little-endian
// bytes and doubles as their raw bits.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace soc {

class Fnv64 {
 public:
  /// `v` as 8 little-endian bytes.
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// The raw bits of `d`, as add() takes them.
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add_bytes(std::string_view bytes) {
    for (const char c : bytes) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// FNV-1a of one byte string.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) {
  Fnv64 h;
  h.add_bytes(bytes);
  return h.value();
}

}  // namespace soc
