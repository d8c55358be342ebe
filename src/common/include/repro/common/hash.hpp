// Incremental 64-bit state hashing for simulation-state digests, and
// the word-at-a-time stream hash behind trace digests and RSVC frames.
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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace repro {

/// FNV-1a 64 offset basis and prime.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

/// FNV-1a 64 over `size` bytes, continuing from `seed`: the digest of
/// record for RTRC chunks and result-cache entries.
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

/// Word-at-a-time 64-bit stream hash: XXH64's per-word step (its round
/// on the input word, folded into the state by a rotate, multiply and
/// add) and its final avalanche. finish() folds in the word count
/// first, so streams that differ only by trailing zero words differ.
/// The trace digest and the RSVC frame digest. Not a cryptographic
/// hash: it fences determinism and torn writes, not adversaries.
class WordHash {
 public:
  void add(std::uint64_t word) {
    hash_ = step(hash_, word);
    ++words_;
  }

  /// Adds a byte string as its length word, then its bytes as
  /// little-endian words, the last one zero-padded.
  void add_bytes(std::string_view bytes) {
    add(bytes.size());
    std::size_t at = 0;
    for (; at + 8 <= bytes.size(); at += 8) {
      add(load_le(bytes.data() + at, 8));
    }
    if (at < bytes.size()) {
      add(load_le(bytes.data() + at, bytes.size() - at));
    }
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t h = step(hash_, words_);
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
  static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
  static constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
  static constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
  static constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

  static std::uint64_t step(std::uint64_t h, std::uint64_t word) {
    h ^= std::rotl(word * kPrime2, 31) * kPrime1;
    return std::rotl(h, 27) * kPrime1 + kPrime4;
  }

  /// `size` (1..8) bytes as a little-endian word, zero-extended.
  static std::uint64_t load_le(const char* bytes, std::size_t size) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, size);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    return word;
  }

  std::uint64_t hash_ = kPrime5;
  std::uint64_t words_ = 0;
};

/// WordHash of one byte string (add_bytes, then finish).
[[nodiscard]] inline std::uint64_t word_hash(std::string_view bytes) {
  WordHash hash;
  hash.add_bytes(bytes);
  return hash.finish();
}

}  // namespace repro
