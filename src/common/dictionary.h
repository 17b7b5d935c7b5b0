#ifndef VADASA_COMMON_DICTIONARY_H_
#define VADASA_COMMON_DICTIONARY_H_

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace vadasa {

/// Labelled nulls occupy the upper half of the code space: codes in
/// [kNullCodeBase, 2^32) are nulls, codes below are regular values. The band
/// split makes "is this cell suppressed?" a single unsigned compare on the
/// packed code — no dictionary probe — while distinct labels still intern to
/// distinct codes, so ⊥_i ≠ ⊥_j survives the encoding for free.
inline constexpr uint32_t kNullCodeBase = 0x80000000u;

inline constexpr bool IsNullCode(uint32_t code) { return code >= kNullCodeBase; }

/// splitmix64-style hash over a packed code row — the key hash of every
/// code-space grouping table (pattern collapse, projection indexes, SUDA
/// counts). Only hash-table layout depends on it, never results; equality is
/// plain vector equality, which coincides with Value::Equals on the decoded
/// cells.
struct CodeVecHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ v.size();
    for (const uint32_t x : v) {
      uint64_t z = (h ^ x) + 0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h = z ^ (z >> 31);
    }
    return static_cast<size_t>(h);
  }
};

/// A term interner: maps each distinct Value to a dense uint32_t code such
/// that code equality coincides exactly with Value::Equals — including the
/// cross-kind numeric identity Int(2) == Double(2.0), which the underlying
/// hash map inherits from ValueHash/Value::operator==.
///
/// Codes are assigned in first-intern order (dense from 0 for values, dense
/// from kNullCodeBase for labelled nulls), so a single-threaded interning
/// pass is deterministic. Thread safety: Intern takes a shared lock on the
/// hit path and upgrades to exclusive only to insert; Decode/TryCode/size
/// are shared-locked, so concurrent readers never block each other. Hot
/// loops should operate on materialized code arrays (core::ColumnarView) and
/// touch the dictionary only to translate query patterns.
class Dictionary {
 public:
  Dictionary() = default;
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Code of `v`, interning it if absent.
  uint32_t Intern(const Value& v);

  /// Replaces this dictionary's contents with a snapshot of `other` (the
  /// delta-clone path of core::ColumnarView: a child view inherits the parent
  /// column's code assignments so untouched code arrays stay valid verbatim).
  /// Thread-safe on both sides; no output ever depends on the numeric value
  /// of a code, only on code equality, so inherited codes are free.
  void CopyFrom(const Dictionary& other);

  /// Code of `v` without interning; false when absent.
  bool TryCode(const Value& v, uint32_t* code) const;

  /// The value a code decodes to. Codes come from this dictionary; passing a
  /// foreign code is undefined (guarded by a bounds check returning ⊥_0).
  Value Decode(uint32_t code) const;

  /// Distinct non-null values interned so far.
  size_t num_values() const;
  /// Distinct null labels interned so far.
  size_t num_nulls() const;
  /// num_values() + num_nulls().
  size_t size() const;

 private:
  uint32_t InternLocked(const Value& v);

  mutable std::shared_mutex mutex_;
  std::unordered_map<Value, uint32_t, ValueHash> value_codes_;
  std::unordered_map<uint64_t, uint32_t> null_codes_;  // label -> dense index
  std::vector<Value> values_;                          // decode, value band
  std::vector<uint64_t> null_labels_;                  // decode, null band
};

}  // namespace vadasa

#endif  // VADASA_COMMON_DICTIONARY_H_
