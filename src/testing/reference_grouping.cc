#include "testing/reference_grouping.h"

#include <algorithm>
#include <cstdint>

namespace vadasa::testing {

namespace {

bool CellsMatch(const Value& a, const Value& b, core::NullSemantics semantics) {
  return semantics == core::NullSemantics::kMaybeMatch ? a.MaybeEquals(b) : a.Equals(b);
}

/// Rows `a` and `b` agree under strict equality on every column of `mask`
/// (bit i = qi_columns[i]).
bool RowsAgreeOn(const core::MicrodataTable& table, const std::vector<size_t>& qi_columns,
                 size_t a, size_t b, uint32_t mask) {
  for (size_t i = 0; i < qi_columns.size(); ++i) {
    if ((mask & (1u << i)) == 0) continue;
    if (!table.cell(a, qi_columns[i]).Equals(table.cell(b, qi_columns[i]))) return false;
  }
  return true;
}

}  // namespace

core::GroupStats ReferenceGroupStats(const core::MicrodataTable& table,
                                     const std::vector<size_t>& qi_columns,
                                     core::NullSemantics semantics) {
  const size_t n = table.num_rows();
  core::GroupStats stats;
  stats.frequency.assign(n, 0.0);
  stats.weight_sum.assign(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> pattern;
    for (const size_t c : qi_columns) pattern.push_back(table.cell(r, c));
    const core::PatternMass mass =
        ReferencePatternMass(table, qi_columns, pattern, semantics);
    stats.frequency[r] = mass.count;
    stats.weight_sum[r] = mass.weight;
  }
  return stats;
}

core::PatternMass ReferencePatternMass(const core::MicrodataTable& table,
                                       const std::vector<size_t>& qi_columns,
                                       const std::vector<Value>& pattern,
                                       core::NullSemantics semantics) {
  core::PatternMass mass;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool match = true;
    for (size_t i = 0; i < qi_columns.size() && match; ++i) {
      match = CellsMatch(table.cell(r, qi_columns[i]), pattern[i], semantics);
    }
    if (match) {
      mass.count += 1.0;
      mass.weight += table.RowWeight(r);
    }
  }
  return mass;
}

std::vector<std::vector<core::MinimalSampleUnique>> ReferenceMsus(
    const core::MicrodataTable& table, const std::vector<size_t>& qi_columns,
    int max_size) {
  const size_t n = table.num_rows();
  const int q = static_cast<int>(qi_columns.size());
  std::vector<std::vector<core::MinimalSampleUnique>> msus(n);
  const uint32_t full = (1u << q) - 1;  // q <= 20, as SudaRisk enforces.

  // Unique on `mask`: no other row agrees on every masked column.
  auto unique_on = [&](size_t r, uint32_t mask) {
    for (size_t o = 0; o < n; ++o) {
      if (o != r && RowsAgreeOn(table, qi_columns, r, o, mask)) return false;
    }
    return true;
  };
  auto touches_null = [&](size_t r, uint32_t mask) {
    for (int i = 0; i < q; ++i) {
      if ((mask & (1u << i)) != 0 && table.cell(r, qi_columns[i]).is_null()) return true;
    }
    return false;
  };

  for (size_t r = 0; r < n; ++r) {
    if (q == 0 || !unique_on(r, full)) continue;
    std::vector<uint32_t> uniques;  // Null-free sample uniques found so far.
    for (int s = 1; s <= std::min(max_size, q); ++s) {
      for (uint32_t mask = 1; mask <= full; ++mask) {
        if (__builtin_popcount(mask) != s) continue;
        if (touches_null(r, mask) || !unique_on(r, mask)) continue;
        const bool minimal =
            std::none_of(uniques.begin(), uniques.end(),
                         [mask](uint32_t u) { return (u & mask) == u; });
        uniques.push_back(mask);
        if (minimal) msus[r].push_back(core::MinimalSampleUnique{mask, s});
      }
    }
  }
  return msus;
}

}  // namespace vadasa::testing
