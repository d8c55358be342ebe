// Incremental 64-bit state hashing for simulation-state digests.
//
// Two combiners with different algebra:
//  * StateHash -- order-DEPENDENT FNV-1a style mixing, for state whose
//    sequence matters (LRU stacks, replica lists, op streams);
//  * mix independent contributions with operator^= / += on the caller
//    side for state stored in unordered containers, where the digest
//    must not depend on hash-table iteration order.
//
// These digests gate the harness's steady-state fast-forward: equality
// must imply "behaviourally identical state" up to hash collision, so
// every contributor hashes *values*, never addresses or iterator
// positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace repro {

/// FNV-1a 64 offset basis and prime.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

/// FNV-1a 64 over `size` bytes, continuing from `seed`: the digest of
/// record for RTRC chunks, RSVC frames, result-cache entries and the
/// canonical trace dump.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t size,
                                         std::uint64_t seed = kFnvOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes,
                                         std::uint64_t seed = kFnvOffset) {
  return fnv1a(bytes.data(), bytes.size(), seed);
}

class StateHash {
 public:
  /// FNV-1a offset basis; `seed` lets callers chain digests.
  explicit StateHash(std::uint64_t seed = kFnvOffset) : hash_(seed) {}

  /// Mixes one 64-bit value, byte by byte (FNV-1a), order-dependent.
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= kFnvPrime;
    }
  }

  /// Mixes a double through its bit pattern (digests must be exact, so
  /// fractional-ns carries hash their representation, not a rounding).
  void mix_double(double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_;
};

/// One-shot avalanche of a 64-bit key (splitmix64 finalizer): used to
/// hash the *elements* of unordered containers before combining them
/// with a commutative operation, so that different (key, value) sets
/// do not cancel out under XOR/addition.
[[nodiscard]] inline std::uint64_t avalanche64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace repro
