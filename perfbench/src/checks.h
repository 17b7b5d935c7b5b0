#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "core/microdata.h"

namespace perfbench {

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string Digest(std::string_view bytes);
/// Digest of several fields, each length-prefixed so boundaries count.
std::string DigestFields(const std::vector<std::string_view>& fields);

/// Checks a release against its input, cell by cell. Returns "" when the
/// release keeps the row count and header, leaves non-identifying and
/// weight cells byte-unchanged, changes quasi-identifier cells only into
/// labelled nulls, and keeps identifier cells or replaces them with
/// "<dropped>" (the declarative path drops them). Otherwise describes the
/// first violation.
std::string CheckRelease(const vadasa::CsvTable& input, const vadasa::CsvTable& release,
                         const std::vector<vadasa::core::AttributeCategory>& categories);

/// Per-column categories of a categorized table.
std::vector<vadasa::core::AttributeCategory> Categories(
    const vadasa::core::MicrodataTable& table);

/// Remembers the payload digest first seen for each request key and flags
/// any later payload for that key that differs (cache hits must replay the
/// first miss byte for byte). Safe to share across client threads.
class PayloadLedger {
 public:
  enum class Verdict { kFirst, kSame, kDifferent };
  /// kFirst for a new key; otherwise whether `digest` matches the first.
  Verdict Observe(const std::string& key, const std::string& digest);

 private:
  std::mutex mu_;
  std::map<std::string, std::string> first_;
};

/// Release digests recorded for one seed (perfbench/digests.json). A run
/// with that seed must reproduce every digest it computes.
class DigestBook {
 public:
  /// Loads `path`; a missing file yields an empty book for seed 0.
  static DigestBook Load(const std::string& path);

  uint64_t seed() const { return seed_; }
  /// "" when `digest` matches the recorded one; otherwise the reason.
  std::string Check(const std::string& key, const std::string& digest) const;
  void Record(const std::string& key, const std::string& digest) {
    digests_[key] = digest;
  }
  void set_seed(uint64_t seed) { seed_ = seed; }
  /// Merges into the file at `path` (other workloads' entries are kept).
  bool Save(const std::string& path) const;

 private:
  uint64_t seed_ = 0;
  std::map<std::string, std::string> digests_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
