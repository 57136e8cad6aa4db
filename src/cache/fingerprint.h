// Canonical-form fingerprints: the content address of one implication
// problem.
//
// A CacheFingerprint is the 128-bit hash of the canonical token stream of a
// job's (D, D0, solver budgets), each dependency entering as the digest its
// Build computed from its canonical walk — see cache/canonical.h. Two jobs
// that differ only by variable or attribute renaming canonicalize
// identically and therefore share a fingerprint; the result cache, the
// in-flight dedup table and (next on the roadmap) the multi-process
// router's consistent hashing all key on this value. The struct is deliberately dependency-free so the
// engine's job plumbing can carry one without pulling in cache headers.
#ifndef TDLIB_CACHE_FINGERPRINT_H_
#define TDLIB_CACHE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace tdlib {

/// 128-bit content address of a canonicalized implication problem. `valid`
/// distinguishes "fingerprint of something" from the default state (jobs
/// the cache ignores: cache off, wall-clock deadlines, etc.).
struct CacheFingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool valid = false;

  friend bool operator==(const CacheFingerprint& a, const CacheFingerprint& b) {
    return a.valid == b.valid && a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const CacheFingerprint& a, const CacheFingerprint& b) {
    return !(a == b);
  }

  /// 32 lowercase hex digits (hi then lo); "-" for an invalid fingerprint.
  std::string ToHex() const {
    if (!valid) return "-";
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return std::string(buf);
  }
};

/// Hash functor for unordered containers keyed on fingerprints. The value
/// is already uniform (SplitMix64-finalized), so folding the words is enough.
struct CacheFingerprintHash {
  std::size_t operator()(const CacheFingerprint& f) const {
    return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
  }
};

}  // namespace tdlib

#endif  // TDLIB_CACHE_FINGERPRINT_H_
