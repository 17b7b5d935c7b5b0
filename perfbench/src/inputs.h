#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "core/datagen.h"
#include "core/delta.h"

namespace perfbench {

/// One generated input table: an Inflation-&-Growth-style CSV written by
/// core::GenerateInflationGrowth. The system only ever sees the file.
struct DatasetSpec {
  std::string label;  ///< Also the file name stem, e.g. "u100k".
  size_t rows = 0;
  int num_qi = 4;
  vadasa::core::DistributionKind distribution =
      vadasa::core::DistributionKind::kUnbalanced;
};

struct Dataset {
  DatasetSpec spec;
  std::string path;  ///< Relative to the run directory.
  uint64_t seed = 0;
};

/// A seed for stream `stream` of the run seeded by `seed` (splitmix64), so
/// every table and client draw is a pure function of --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Generates and writes `spec` as `<label>.csv` in the current directory.
vadasa::Result<Dataset> WriteDataset(const DatasetSpec& spec, uint64_t seed);

/// One row operation of a streaming feed, in CSV cell form.
struct FeedOp {
  vadasa::core::DeltaOpKind kind = vadasa::core::DeltaOpKind::kAppend;
  uint32_t row = 0;
  std::vector<std::string> cells;
};

/// A delta batch of `ops` operations against `rows` (the feed's current
/// content): about half updates, a quarter appends and a quarter deletes,
/// on distinct rows, with every new row copied from an existing one.
std::vector<FeedOp> MakeFeedBatch(std::mt19937_64& rng,
                                  const std::vector<std::vector<std::string>>& rows,
                                  size_t ops);

/// Applies a batch to the mirror under DeltaBatch's documented semantics:
/// updates, then deletes, then appends; survivors keep their order.
void ApplyFeedBatch(const std::vector<FeedOp>& batch,
                    std::vector<std::vector<std::string>>* rows);

/// The batch as the library's validated DeltaBatch.
vadasa::Result<vadasa::core::DeltaBatch> ToDeltaBatch(const std::vector<FeedOp>& batch,
                                                      size_t num_columns);

/// The batch as a protocol-v2 apply_delta request line (no newline).
std::string ApplyDeltaLine(const std::vector<FeedOp>& batch, const std::string& dataset);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
