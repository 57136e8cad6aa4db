// Consistent-hash ring over worker slots.
//
// The router keys each job on its canonical-form fingerprint
// (cache/canonical.h), so isomorphic jobs land on the same worker and its
// result cache pays off across tenants. A plain `fingerprint % N` would
// reshuffle almost every key when a worker dies; the classic fix is a ring
// of virtual nodes — each worker owns kVirtualNodes pseudo-random points on
// a 64-bit circle, and a key maps to the first point at or after it.
//
// The router builds the ring once, over every configured slot, and never
// changes it. A slot that is down is skipped at pick time by walking on to
// the first usable successor point, so a down worker only reassigns the
// keys that pointed at ITS points (about 1/N of the keyspace), and a key
// whose owner is usable maps to that owner no matter which other workers
// are up, starting or restarting. That keeps every worker's cache warm
// through start-up and crash/restart cycles alike.
//
// Not thread-safe; the router's dispatcher thread owns the ring.
#ifndef TDLIB_CLUSTER_RING_H_
#define TDLIB_CLUSTER_RING_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace tdlib {

class HashRing {
 public:
  /// Points each member contributes. 64 keeps the per-member keyspace share
  /// within a few percent of uniform at single-digit member counts.
  static constexpr int kVirtualNodes = 64;

  /// Adds `member` (an opaque non-negative slot id). Adding an existing
  /// member is a no-op.
  void Add(int member);

  /// Maps `key` to a member: the owner of the first ring point at or after
  /// `key`, wrapping around. Returns -1 when the ring is empty.
  int Pick(std::uint64_t key) const;

  /// Like Pick, but walks on past every point whose member fails `usable`:
  /// the first usable member at or after `key`. Returns -1 when no member
  /// is usable. When Pick(key) is usable the two agree.
  int Pick(std::uint64_t key, const std::function<bool(int)>& usable) const;

  bool Contains(int member) const;

 private:
  struct Point {
    std::uint64_t position;
    int member;
    bool operator<(const Point& other) const {
      // Tie-break on member id so the ring order is deterministic even in
      // the (astronomically unlikely) event of a position collision.
      return position != other.position ? position < other.position
                                        : member < other.member;
    }
  };

  std::vector<Point> points_;   ///< sorted by position
  std::vector<int> members_;    ///< sorted member ids
};

}  // namespace tdlib

#endif  // TDLIB_CLUSTER_RING_H_
