#include "core/dependency.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "core/canonical_walk.h"
#include "core/satisfaction.h"

namespace tdlib {
namespace {

// Hashes a dependency's canonical walk into 128 bits: one word per scalar
// token, the token kind in the top byte, and a row's labels packed two to a
// word. The run parses back unambiguously (every count precedes what it
// counts and every row holds exactly `arity` labels), so distinct runs give
// distinct word sequences.
class DigestSink {
 public:
  void operator()(CanonicalTok tok, std::uint64_t value) {
    hasher_.Add((static_cast<std::uint64_t>(tok) << 56) ^ value);
  }

  void Row(const std::uint32_t* labels, int arity) {
    int attr = 0;
    for (; attr + 1 < arity; attr += 2) {
      hasher_.Add(labels[attr] |
                  static_cast<std::uint64_t>(labels[attr + 1]) << 32);
    }
    if (attr < arity) hasher_.Add(labels[attr]);
  }

  Hash128 Finish() const { return hasher_.Finish(); }

 private:
  Hasher128 hasher_;
};

}  // namespace

int Dependency::Builder::Var(int attr, std::string name) {
  int id = body_.NewVariable(attr, name);
  int id2 = head_.NewVariable(attr, body_.VarName(attr, id));
  (void)id2;
  return id;
}

Result<Dependency> Dependency::Builder::Build() && {
  if (body_.num_rows() == 0) {
    return Result<Dependency>::Error("dependency has no antecedents");
  }
  if (head_.num_rows() == 0) {
    return Result<Dependency>::Error("dependency has no conclusion");
  }
  if (std::string err = body_.CheckInvariants(); !err.empty()) {
    return Result<Dependency>::Error("body: " + err);
  }
  if (std::string err = head_.CheckInvariants(); !err.empty()) {
    return Result<Dependency>::Error("head: " + err);
  }
  std::vector<std::vector<bool>> universal(body_.schema().arity());
  for (int attr = 0; attr < body_.schema().arity(); ++attr) {
    universal[attr].assign(body_.NumVars(attr), false);
  }
  for (const Row& r : body_.rows()) {
    for (int attr = 0; attr < body_.schema().arity(); ++attr) {
      universal[attr][r[attr]] = true;
    }
  }
  std::vector<std::pair<int, int>> head_universals;
  for (const Row& r : head_.rows()) {
    for (int attr = 0; attr < head_.schema().arity(); ++attr) {
      if (universal[attr][r[attr]]) head_universals.emplace_back(attr, r[attr]);
    }
  }
  // Sorted, each once: a variable shared by several head rows is one
  // position of the key.
  std::sort(head_universals.begin(), head_universals.end());
  head_universals.erase(
      std::unique(head_universals.begin(), head_universals.end()),
      head_universals.end());
  DigestSink digest;
  WalkCanonicalDependency(body_, head_, digest);
  return Dependency(std::make_shared<const Rep>(
      Rep{std::move(body_), std::move(head_), std::move(universal),
          std::move(head_universals), digest.Finish()}));
}

bool Dependency::IsFull() const {
  for (const Row& r : head().rows()) {
    for (int attr = 0; attr < schema().arity(); ++attr) {
      if (!rep_->universal[attr][r[attr]]) return false;
    }
  }
  return true;
}

bool Dependency::IsTrivial() const {
  // Trivial iff the head maps into the frozen body while fixing every
  // universal variable: the identity body match is already witnessed.
  Instance frozen = body().Freeze();
  HomSearchStats stats;
  return HeadChecker(*this, frozen, HomSearchOptions{})
      .Witnessed(Valuation::Identity(body()), &stats);
}

std::string Dependency::ToString() const {
  auto render = [&](const Tableau& t) {
    std::vector<std::string> atoms;
    for (const Row& r : t.rows()) {
      std::string atom = "R(";
      for (int attr = 0; attr < schema().arity(); ++attr) {
        if (attr > 0) atom += ",";
        atom += t.VarName(attr, r[attr]);
      }
      atom += ")";
      atoms.push_back(std::move(atom));
    }
    std::string out;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) out += " & ";
      out += atoms[i];
    }
    return out;
  };
  return render(body()) + " => " + render(head());
}

std::string Dependency::CheckInvariants() const {
  if (std::string err = body().CheckInvariants(); !err.empty()) return err;
  if (std::string err = head().CheckInvariants(); !err.empty()) return err;
  for (int attr = 0; attr < schema().arity(); ++attr) {
    if (body().NumVars(attr) != head().NumVars(attr)) {
      return "body/head variable space mismatch";
    }
    for (int v = 0; v < body().NumVars(attr); ++v) {
      if (body().VarName(attr, v) != head().VarName(attr, v)) {
        return "body/head variable name mismatch";
      }
    }
  }
  if (body().num_rows() == 0) return "empty body";
  if (head().num_rows() == 0) return "empty head";
  return "";
}

Dependency Dependency::RenameVariables(const std::string& suffix) const {
  Builder b(schema_ptr());
  for (int attr = 0; attr < schema().arity(); ++attr) {
    for (int v = 0; v < body().NumVars(attr); ++v) {
      b.Var(attr, body().VarName(attr, v) + suffix);
    }
  }
  for (const Row& r : body().rows()) b.AddBodyRow(r);
  for (const Row& r : head().rows()) b.AddHeadRow(r);
  Result<Dependency> result = std::move(b).Build();
  // Renaming a valid dependency cannot fail.
  return std::move(result).value();
}

void DependencySet::Add(Dependency d, std::string name) {
  items.push_back(std::move(d));
  names.push_back(std::move(name));
}

std::string DependencySet::ToString() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i < names.size() && !names[i].empty()) oss << names[i] << ": ";
    oss << items[i].ToString() << "\n";
  }
  return oss.str();
}

}  // namespace tdlib
