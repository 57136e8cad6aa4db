#include "cache/store.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/fingerprint.h"

namespace tdlib {
namespace {

constexpr char kMagic[] = "tdlib-result-cache";
// Version 2: fingerprints hash the canonical token stream (tag
// "tdlib-canonical 3"), so no version-1 key can be reached any more; a
// version-1 file is refused rather than loaded as unreachable entries.
// Version 3: the chase matches each pass in dependency waves, so stored
// hom_nodes (and match_tasks, carried_passes) are no longer what a solve
// reports; a version-2 file would serve stale counters and is refused.
// Version 4: the chase keeps one pending step per head key and skips the
// head checks of repeated keys, so stored hom_nodes (and hom_candidates)
// moved again; a version-3 file is refused the same way.
// Version 5: fingerprints hash each dependency's digest instead of its rows
// (tag "tdlib-canonical 4"), so no version-4 key can be reached any more.
constexpr int kVersion = 5;

// Upper bound on a plausible entry count: far above any real cache (a
// 4M-entry cache would model at 1 GiB) and far below anything that could
// make a corrupted count allocate the process to death.
constexpr std::int64_t kMaxEntries = std::int64_t{1} << 22;

Result<int> Corrupt(const std::string& what) {
  return Result<int>::Error(ErrorCode::kCorrupt,
                            "result-cache store: " + what);
}

bool ParseHex64(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

}  // namespace

void SaveResultCache(std::ostream& os, const ResultCache& cache) {
  const CacheStats stats = cache.Stats();
  os << kMagic << ' ' << kVersion << '\n' << stats.entries << '\n';
  char hex[17];
  cache.ForEach([&os, &hex](const CacheFingerprint& fp,
                            const CachedVerdict& v) {
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp.hi));
    os << hex << ' ';
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp.lo));
    os << hex << ' ' << static_cast<int>(v.verdict) << ' ' << v.rounds_used
       << ' ' << v.chase_steps << ' ' << v.chase_passes << ' ' << v.hom_nodes
       << ' ' << v.match_tasks << ' ' << v.carried_passes << ' '
       << v.candidates_checked << '\n';
  });
  os << "end\n";
}

Result<int> LoadResultCache(std::istream& is, ResultCache* cache) {
  std::string magic;
  int version = 0;
  if (!(is >> magic) || magic != kMagic) return Corrupt("bad magic");
  if (!(is >> version) || version != kVersion) {
    return Corrupt("unsupported version");
  }
  std::int64_t count = 0;
  if (!(is >> count) || count < 0 || count > kMaxEntries) {
    return Corrupt("implausible entry count");
  }
  int loaded = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    std::string hi_hex, lo_hex;
    int verdict = 0, rounds = 0;
    std::uint64_t steps = 0, passes = 0, hom = 0, match = 0, carried = 0,
                  cands = 0;
    if (!(is >> hi_hex >> lo_hex >> verdict >> rounds >> steps >> passes >>
          hom >> match >> carried >> cands)) {
      return Corrupt("truncated or unparseable entry " + std::to_string(i));
    }
    CacheFingerprint fp;
    if (!ParseHex64(hi_hex, &fp.hi) || !ParseHex64(lo_hex, &fp.lo)) {
      return Corrupt("bad fingerprint in entry " + std::to_string(i));
    }
    fp.valid = true;
    if (verdict < static_cast<int>(DualVerdict::kImplied) ||
        verdict > static_cast<int>(DualVerdict::kUnknown)) {
      return Corrupt("verdict out of range in entry " + std::to_string(i));
    }
    if (rounds < 0) {
      return Corrupt("negative rounds in entry " + std::to_string(i));
    }
    CachedVerdict v;
    v.verdict = static_cast<DualVerdict>(verdict);
    v.rounds_used = rounds;
    v.chase_steps = steps;
    v.chase_passes = passes;
    v.hom_nodes = hom;
    v.match_tasks = match;
    v.carried_passes = carried;
    v.candidates_checked = cands;
    cache->Insert(fp, v);
    ++loaded;
  }
  std::string terminator;
  if (!(is >> terminator) || terminator != "end") {
    return Corrupt("missing end marker");
  }
  if (is >> terminator) return Corrupt("trailing garbage after end");
  return loaded;
}

Result<int> LoadResultCacheFile(const std::string& path, ResultCache* cache) {
  std::ifstream in(path);
  if (!in) {
    return Result<int>::Error(ErrorCode::kNotFound,
                              "cannot open result-cache file: " + path);
  }
  return LoadResultCache(in, cache);
}

Result<int> SaveResultCacheFile(const std::string& path,
                                const ResultCache& cache) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Result<int>::Error(ErrorCode::kNotFound,
                              "cannot write result-cache file: " + path);
  }
  SaveResultCache(out, cache);
  out.flush();
  if (!out) {
    return Result<int>::Error(ErrorCode::kUnknown,
                              "short write to result-cache file: " + path);
  }
  const CacheStats stats = cache.Stats();
  return static_cast<int>(stats.entries);
}

}  // namespace tdlib
