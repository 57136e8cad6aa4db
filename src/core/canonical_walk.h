// The canonical walk of one dependency: its rows with every variable
// relabeled by first occurrence, which erases variable names, the
// allocation order of variable ids and attribute names while keeping the
// equality pattern.
//
// Each dependency is relabeled on its own, so its token run depends on that
// dependency alone — and a Dependency is immutable after Build(). So
// Dependency::Builder::Build runs the walk once and keeps a 128-bit digest
// of the run (Dependency::CanonicalDigest); the result cache's fingerprint
// combines those digests without reading a row, and its debug text renders
// the same walk (cache/canonical.h). One walk definition serves both, which
// is what keeps them from drifting: equal texts <=> equal digests.
#ifndef TDLIB_CORE_CANONICAL_WALK_H_
#define TDLIB_CORE_CANONICAL_WALK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "logic/tableau.h"

namespace tdlib {

/// The scalar tokens of a dependency's canonical walk.
enum class CanonicalTok : std::uint8_t {
  kDep,   // arity of the dependency
  kBody,  // body row count; that many rows follow
  kHead,  // head row count; that many rows follow
};

/// Walks one dependency given as its body and head (which share one
/// variable space): sink(kDep, arity), sink(kBody, rows) and each relabeled
/// body row as sink.Row(labels, arity), then sink(kHead, rows) and each
/// head row. Within each attribute, variables are relabeled by first
/// occurrence, body rows first, then head rows, each row left to right. The
/// labels are shared between body and head, so a universal head variable
/// resolves to the index its body occurrence introduced.
template <typename Sink>
void WalkCanonicalDependency(const Tableau& body, const Tableau& head,
                             Sink& sink) {
  const int arity = body.schema().arity();
  int vars = 0;
  for (int attr = 0; attr < arity; ++attr) vars += body.NumVars(attr);
  // One buffer, sized once: base[attr] is where attr's variables start in
  // label, next[attr] the next index to hand out, out the current relabeled
  // row, and label[base[attr] + var] the canonical index of variable id
  // `var` of `attr` (kUnseen until it occurs; ids are dense below
  // Tableau::NumVars).
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  std::vector<std::uint32_t> scratch(3 * static_cast<std::size_t>(arity) +
                                     static_cast<std::size_t>(vars));
  std::uint32_t* const base = scratch.data();
  std::uint32_t* const next = base + arity;
  std::uint32_t* const out = next + arity;
  std::uint32_t* const label = out + arity;
  std::uint32_t offset = 0;
  for (int attr = 0; attr < arity; ++attr) {
    base[attr] = offset;
    offset += static_cast<std::uint32_t>(body.NumVars(attr));
  }
  std::fill(label, label + vars, kUnseen);
  auto walk_tableau = [&](const Tableau& t, CanonicalTok tag) {
    sink(tag, static_cast<std::uint64_t>(t.num_rows()));
    for (const Row& row : t.rows()) {
      for (int attr = 0; attr < arity; ++attr) {
        std::uint32_t& l = label[base[attr] + row[attr]];
        if (l == kUnseen) l = next[attr]++;
        out[attr] = l;
      }
      sink.Row(out, arity);
    }
  };
  sink(CanonicalTok::kDep, static_cast<std::uint64_t>(arity));
  walk_tableau(body, CanonicalTok::kBody);
  walk_tableau(head, CanonicalTok::kHead);
}

}  // namespace tdlib

#endif  // TDLIB_CORE_CANONICAL_WALK_H_
