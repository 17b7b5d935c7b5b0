#include "inputs.h"

#include <algorithm>
#include <unordered_set>

#include "trace.h"

namespace perfbench {

using vadasa::core::DeltaOpKind;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

vadasa::Result<Dataset> WriteDataset(const DatasetSpec& spec, uint64_t seed) {
  Dataset dataset;
  dataset.spec = spec;
  dataset.path = spec.label + ".csv";
  dataset.seed = seed;
  const auto table = vadasa::core::GenerateInflationGrowth(
      spec.label, spec.rows, spec.num_qi, spec.distribution, seed);
  VADASA_RETURN_NOT_OK(vadasa::WriteCsvFile(dataset.path, table.ToCsv()));
  return dataset;
}

std::vector<FeedOp> MakeFeedBatch(std::mt19937_64& rng,
                                  const std::vector<std::vector<std::string>>& rows,
                                  size_t ops) {
  std::vector<FeedOp> batch;
  std::unordered_set<uint32_t> touched;
  std::uniform_int_distribution<uint32_t> pick(0, static_cast<uint32_t>(rows.size() - 1));
  std::uniform_real_distribution<double> kind(0.0, 1.0);
  for (size_t i = 0; i < ops; ++i) {
    FeedOp op;
    const double u = kind(rng);
    op.kind = u < 0.5 ? DeltaOpKind::kUpdate
                      : (u < 0.75 ? DeltaOpKind::kAppend : DeltaOpKind::kDelete);
    if (op.kind != DeltaOpKind::kAppend) {
      do {
        op.row = pick(rng);
      } while (!touched.insert(op.row).second);
    }
    if (op.kind != DeltaOpKind::kDelete) op.cells = rows[pick(rng)];
    batch.push_back(std::move(op));
  }
  return batch;
}

void ApplyFeedBatch(const std::vector<FeedOp>& batch,
                    std::vector<std::vector<std::string>>* rows) {
  std::vector<bool> deleted(rows->size(), false);
  for (const FeedOp& op : batch) {
    if (op.kind == DeltaOpKind::kUpdate) (*rows)[op.row] = op.cells;
  }
  for (const FeedOp& op : batch) {
    if (op.kind == DeltaOpKind::kDelete) deleted[op.row] = true;
  }
  size_t kept = 0;
  for (size_t r = 0; r < rows->size(); ++r) {
    if (deleted[r]) continue;
    if (kept != r) (*rows)[kept] = std::move((*rows)[r]);
    ++kept;
  }
  rows->resize(kept);
  for (const FeedOp& op : batch) {
    if (op.kind == DeltaOpKind::kAppend) rows->push_back(op.cells);
  }
}

vadasa::Result<vadasa::core::DeltaBatch> ToDeltaBatch(const std::vector<FeedOp>& batch,
                                                      size_t num_columns) {
  vadasa::core::DeltaBatchBuilder builder(num_columns);
  for (const FeedOp& op : batch) {
    std::vector<vadasa::Value> values;
    for (const std::string& cell : op.cells) values.push_back(vadasa::CellToValue(cell));
    switch (op.kind) {
      case DeltaOpKind::kAppend:
        builder.Append(std::move(values));
        break;
      case DeltaOpKind::kUpdate:
        builder.Update(op.row, std::move(values));
        break;
      case DeltaOpKind::kDelete:
        builder.Delete(op.row);
        break;
    }
  }
  return builder.Build();
}

std::string ApplyDeltaLine(const std::vector<FeedOp>& batch, const std::string& dataset) {
  std::string line = "{\"op\": \"apply_delta\", \"v\": 2, \"dataset\": " +
                     JsonString(dataset) + ", \"ops\": [";
  for (size_t i = 0; i < batch.size(); ++i) {
    const FeedOp& op = batch[i];
    if (i > 0) line += ", ";
    const char* kind = op.kind == DeltaOpKind::kAppend
                           ? "append"
                           : (op.kind == DeltaOpKind::kUpdate ? "update" : "delete");
    line += std::string("{\"kind\": \"") + kind + "\"";
    if (op.kind != DeltaOpKind::kAppend) line += ", \"row\": " + std::to_string(op.row);
    if (op.kind != DeltaOpKind::kDelete) {
      line += ", \"values\": [";
      for (size_t c = 0; c < op.cells.size(); ++c) {
        line += (c > 0 ? ", " : "") + JsonString(op.cells[c]);
      }
      line += "]";
    }
    line += "}";
  }
  line += "]}";
  return line;
}

}  // namespace perfbench
