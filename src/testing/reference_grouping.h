#ifndef VADASA_TESTING_REFERENCE_GROUPING_H_
#define VADASA_TESTING_REFERENCE_GROUPING_H_

#include <cstddef>
#include <vector>

#include "common/value.h"
#include "core/group_index.h"
#include "core/microdata.h"
#include "core/suda.h"

namespace vadasa::testing {

/// Reference implementations of the grouping the risk measures rest on
/// (Section 4.2, Algorithms 3–6), written as literal transcriptions of the
/// per-tuple match relation: no hashing, no dictionary codes, no pattern
/// collapse. They are quadratic (or worse) on purpose and exist only to check
/// the optimized code-space path in src/core against the definition.
///
/// Two cells match under kStandard iff Value::Equals (labelled nulls match
/// only the same label) and under kMaybeMatch iff Value::MaybeEquals (a null
/// matches anything). Weights are Value-space RowWeight values summed in
/// ascending row order; with integer weights (the generators draw them) the
/// sums are exact, so results compare bit-for-bit against any summation
/// order.

/// Per-row frequency and weight mass of the rows whose QI projection matches
/// the row's own: O(n²·|qi|) pairwise scan.
core::GroupStats ReferenceGroupStats(const core::MicrodataTable& table,
                                     const std::vector<size_t>& qi_columns,
                                     core::NullSemantics semantics);

/// Row count and weight mass of the rows whose QI projection matches
/// `pattern` (one entry per qi column; nulls are wildcards under
/// kMaybeMatch): O(n·|qi|) linear scan.
core::PatternMass ReferencePatternMass(const core::MicrodataTable& table,
                                       const std::vector<size_t>& qi_columns,
                                       const std::vector<Value>& pattern,
                                       core::NullSemantics semantics);

/// Per-row minimal sample uniques (Algorithm 6) by brute-force enumeration
/// of every column mask of size 1..max_size:
///   - only rows unique on the full AnonSet under strict equality have MSUs;
///   - a mask touching a null cell of the row is skipped (a suppressed cell
///     cannot single the row out);
///   - a mask is a sample unique of the row iff no other row agrees with it
///     on every masked column under strict equality;
///   - a sample unique is minimal iff no proper subset of it is one.
/// Each row's MSUs are ordered by size, then by ascending mask.
std::vector<std::vector<core::MinimalSampleUnique>> ReferenceMsus(
    const core::MicrodataTable& table, const std::vector<size_t>& qi_columns,
    int max_size);

}  // namespace vadasa::testing

#endif  // VADASA_TESTING_REFERENCE_GROUPING_H_
