#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/json.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::string tag, bool on_path)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  SpanRecord span;
  span.id = tracer_->next_id_++;
  span.parent = tracer_->stack_.empty() ? 0 : tracer_->stack_.back();
  span.job = tracer_->job_;
  span.name = name;
  span.on_path = on_path;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(span);
  tracer_->tags_.push_back(std::move(tag));
  tracer_->stack_.push_back(span.id);
  tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->stack_.pop_back();
}

int64_t Tracer::Scope::elapsed_ns() const {
  if (tracer_ == nullptr) return 0;
  return NowNs() - tracer_->spans_[index_].start_ns;
}

uint64_t Tracer::Record(const char* name, std::string tag, int64_t start_ns,
                        int64_t end_ns, uint64_t parent) {
  if (!enabled_) return 0;
  SpanRecord span;
  span.id = next_id_++;
  span.parent = parent;
  span.job = job_;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  tags_.push_back(std::move(tag));
  return span.id;
}

void Tracer::Merge(const Tracer& other) {
  const uint64_t offset = next_id_ - 1;
  for (size_t i = 0; i < other.spans_.size(); ++i) {
    SpanRecord span = other.spans_[i];
    span.id += offset;
    if (span.parent != 0) span.parent += offset;
    spans_.push_back(span);
    tags_.push_back(other.tags_[i]);
    next_id_ = std::max(next_id_, span.id + 1);
  }
}

std::string Tracer::ToChromeJson() const {
  std::string out = "{\"traceEvents\": [";
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n{\"name\": " + JsonString(tags_[i].empty()
                                            ? std::string(s.name)
                                            : std::string(s.name) + "." + tags_[i]);
    std::snprintf(buf, sizeof(buf),
                  ", \"ph\": \"X\", \"pid\": 1, \"tid\": %" PRIu64
                  ", \"ts\": %.3f, \"dur\": %.3f",
                  s.job, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.duration()) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                  ", \"on_path\": %s}}",
                  s.id, s.parent, s.on_path ? "true" : "false");
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

double SumSeconds(const Tracer& tracer, const std::string& name,
                  const std::string* tag, const bool* on_path) {
  int64_t total = 0;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& s = tracer.spans()[i];
    if (name != s.name) continue;
    if (tag != nullptr && *tag != tracer.tags()[i]) continue;
    if (on_path != nullptr && *on_path != s.on_path) continue;
    total += s.duration();
  }
  return Seconds(total);
}

std::vector<double> DurationsSeconds(const Tracer& tracer, const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : tracer.spans()) {
    if (name == s.name) out.push_back(Seconds(s.duration()));
  }
  return out;
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.first;
}

std::string Report::ResultLine() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + FormatNumber(metric.first) +
           ", \"unit\": " + JsonString(metric.second) + "}";
  }
  out += "}}";
  return out;
}

std::string Report::DetailJson() const {
  std::string out = ResultLine();
  out.pop_back();
  out += ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(failures_[i]);
  }
  out += "]";
  for (const auto& [key, value] : notes_) {
    out += ", " + JsonString(key) + ": " + value;
  }
  out += "}\n";
  return out;
}

std::string SummaryJson(const Summary& s, double scale) {
  return "{\"n\": " + std::to_string(s.n) + ", \"p50\": " +
         FormatNumber(s.p50 * scale) + ", \"p90\": " + FormatNumber(s.p90 * scale) +
         ", \"p90_samples_beyond\": " + std::to_string(SamplesBeyond(s.n, 90.0)) +
         ", \"top_percentile\": " + std::to_string(s.top_percentile) +
         ", \"top\": " + FormatNumber(s.top * scale) + "}";
}

std::string JsonString(const std::string& s) { return vadasa::Json(s).Dump(); }

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  text->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

}  // namespace perfbench
