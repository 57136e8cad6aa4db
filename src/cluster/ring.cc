#include "cluster/ring.h"

#include <algorithm>

#include "util/hash.h"

namespace tdlib {
namespace {

std::uint64_t PointPosition(int member, int replica) {
  // Decorrelate (member, replica) pairs through one splitmix64 round; the
  // odd multiplier keeps distinct members' point sets disjoint in practice.
  return SplitMix64(static_cast<std::uint64_t>(member) * 1000003u +
                    static_cast<std::uint64_t>(replica));
}

}  // namespace

void HashRing::Add(int member) {
  if (Contains(member)) return;
  members_.insert(
      std::lower_bound(members_.begin(), members_.end(), member), member);
  for (int replica = 0; replica < kVirtualNodes; ++replica) {
    Point p{PointPosition(member, replica), member};
    points_.insert(std::lower_bound(points_.begin(), points_.end(), p), p);
  }
}

int HashRing::Pick(std::uint64_t key) const {
  return Pick(key, [](int) { return true; });
}

int HashRing::Pick(std::uint64_t key,
                   const std::function<bool(int)>& usable) const {
  if (points_.empty()) return -1;
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const Point& p, std::uint64_t k) { return p.position < k; });
  for (std::size_t walked = 0; walked < points_.size(); ++walked, ++it) {
    if (it == points_.end()) it = points_.begin();  // wrap around
    if (usable(it->member)) return it->member;
  }
  return -1;
}

bool HashRing::Contains(int member) const {
  return std::binary_search(members_.begin(), members_.end(), member);
}

}  // namespace tdlib
