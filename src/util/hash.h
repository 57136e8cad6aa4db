// Hash-combining utilities shared by all tdlib containers.
#ifndef TDLIB_UTIL_HASH_H_
#define TDLIB_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace tdlib {

/// Mixes `value` into `seed` (boost::hash_combine-style, 64-bit constants).
inline void HashCombine(std::size_t* seed, std::size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// Hashes a range of hashable elements into a single value.
template <typename It>
std::size_t HashRange(It first, It last) {
  std::size_t seed = 0xcbf29ce484222325ULL;
  for (; first != last; ++first) {
    HashCombine(&seed, std::hash<typename std::iterator_traits<It>::value_type>{}(*first));
  }
  return seed;
}

/// std::hash specialization helper for pairs of hashable types.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const {
    std::size_t seed = std::hash<A>{}(p.first);
    HashCombine(&seed, std::hash<B>{}(p.second));
    return seed;
  }
};

/// std::hash for vectors of hashable types.
struct VectorHash {
  template <typename T>
  std::size_t operator()(const std::vector<T>& v) const {
    return HashRange(v.begin(), v.end());
  }
};

/// SplitMix64 finalizer: a full-avalanche bijection on 64 bits, used to
/// decorrelate the two lanes of HashBytes128 and Hasher128 below.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A 128-bit content hash (two finalized 64-bit lanes). Not cryptographic:
/// it addresses content in trusted stores (the result cache's canonical-form
/// fingerprints, the wire checksum), where 128 bits make accidental
/// collisions negligible but no adversary is feeding inputs.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

/// Hashes a byte range into 128 bits: two FNV-1a-style lanes walked over the
/// same bytes with different seeds and mixing orders, cross-finalized with
/// SplitMix64 so each output word depends on both lanes and the length.
inline Hash128 HashBytes128(const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t a = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t b = 0x9ae16a3b2f90404fULL;  // independent second seed
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a prime
  for (std::size_t i = 0; i < len; ++i) {
    a = (a ^ p[i]) * kPrime;
    b = (b + p[i] + 1) * kPrime;
  }
  Hash128 h;
  h.hi = SplitMix64(a ^ (static_cast<std::uint64_t>(len) * kPrime));
  h.lo = SplitMix64(b ^ (a << 32 | a >> 32));
  return h;
}

/// Streaming 128-bit hash over 64-bit words: the word-at-a-time sibling of
/// HashBytes128, for callers that produce a token stream rather than bytes
/// (the result cache's canonical walk). Two lanes with different seeds and
/// round functions — an xxHash64-style accumulate-rotate-multiply and a
/// multiply-xor-rotate — cross-finalized with SplitMix64 so each output word
/// depends on both lanes and the word count. Each lane's round is a
/// bijection of its state for a fixed word, so streams that differ in one
/// word always reach different states.
class Hasher128 {
 public:
  void Add(std::uint64_t word) {
    a_ = Rotl(a_ + word * kPrime2, 31) * kPrime1;
    b_ = Rotl((b_ ^ word) * kPrime3, 29) + kPrime4;
    ++words_;
  }

  Hash128 Finish() const {
    Hash128 h;
    h.hi = SplitMix64(a_ ^ (words_ * kPrime3));
    h.lo = SplitMix64(b_ ^ Rotl(a_, 32));
    return h;
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }

  // xxHash64's primes; all odd, so each multiply is invertible.
  static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  static constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
  static constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;

  std::uint64_t a_ = 0xcbf29ce484222325ULL;  // same seeds as HashBytes128
  std::uint64_t b_ = 0x9ae16a3b2f90404fULL;
  std::uint64_t words_ = 0;
};

}  // namespace tdlib

#endif  // TDLIB_UTIL_HASH_H_
