#include "checks.h"

#include <cinttypes>
#include <cstdio>

#include "common/json.h"
#include "trace.h"

namespace perfbench {

using vadasa::core::AttributeCategory;

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

bool IsLabelledNull(const std::string& cell) {
  return vadasa::CellToValue(cell).is_null();
}

}  // namespace

std::string Digest(std::string_view bytes) { return Hex(Fnv(kFnvOffset, bytes)); }

std::string DigestFields(const std::vector<std::string_view>& fields) {
  uint64_t h = kFnvOffset;
  for (std::string_view f : fields) {
    h = Fnv(h, std::to_string(f.size()) + ":");
    h = Fnv(h, f);
  }
  return Hex(h);
}

std::string CheckRelease(const vadasa::CsvTable& input, const vadasa::CsvTable& release,
                         const std::vector<AttributeCategory>& categories) {
  if (release.header != input.header) return "release header differs from input";
  if (categories.size() != input.header.size()) return "category count differs from header";
  if (release.rows.size() != input.rows.size()) {
    return "release has " + std::to_string(release.rows.size()) + " rows, input " +
           std::to_string(input.rows.size());
  }
  for (size_t r = 0; r < input.rows.size(); ++r) {
    const auto& in = input.rows[r];
    const auto& out = release.rows[r];
    if (out.size() != in.size()) return "row " + std::to_string(r) + " changed width";
    for (size_t c = 0; c < in.size(); ++c) {
      if (out[c] == in[c] && !IsLabelledNull(out[c])) continue;
      const std::string where = "row " + std::to_string(r) + " column " + input.header[c];
      switch (categories[c]) {
        case AttributeCategory::kQuasiIdentifier:
          if (!IsLabelledNull(out[c])) return where + ": QI cell changed to a non-null";
          break;
        case AttributeCategory::kIdentifier:
          if (out[c] != "<dropped>") return where + ": identifier cell rewritten";
          break;
        default:
          return where + (IsLabelledNull(out[c]) ? ": labelled null outside the QIs"
                                                 : ": non-QI cell changed");
      }
    }
  }
  return "";
}

std::vector<AttributeCategory> Categories(const vadasa::core::MicrodataTable& table) {
  std::vector<AttributeCategory> out;
  for (const auto& a : table.attributes()) out.push_back(a.category);
  return out;
}

PayloadLedger::Verdict PayloadLedger::Observe(const std::string& key,
                                             const std::string& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = first_.emplace(key, digest);
  if (inserted) return Verdict::kFirst;
  return it->second == digest ? Verdict::kSame : Verdict::kDifferent;
}

DigestBook DigestBook::Load(const std::string& path) {
  DigestBook book;
  std::string text;
  if (!ReadFile(path, &text)) return book;
  auto json = vadasa::Json::Parse(text);
  if (!json.ok()) return book;
  book.seed_ = static_cast<uint64_t>(json->GetInt("seed", 0));
  for (const auto& [key, value] : (*json)["digests"].AsObject()) {
    book.digests_[key] = value.AsString();
  }
  return book;
}

std::string DigestBook::Check(const std::string& key, const std::string& digest) const {
  auto it = digests_.find(key);
  if (it == digests_.end()) return key + ": no digest recorded for seed " + std::to_string(seed_);
  if (it->second != digest) {
    return key + ": digest " + digest + " differs from recorded " + it->second;
  }
  return "";
}

bool DigestBook::Save(const std::string& path) const {
  DigestBook merged = Load(path);
  if (merged.seed_ != seed_) merged.digests_.clear();
  for (const auto& [key, value] : digests_) merged.digests_[key] = value;
  std::string out = "{\n  \"seed\": " + std::to_string(seed_) + ",\n  \"digests\": {";
  bool first = true;
  for (const auto& [key, value] : merged.digests_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += JsonString(key) + ": " + JsonString(value);
  }
  out += "\n  }\n}\n";
  return WriteFile(path, out);
}

}  // namespace perfbench
