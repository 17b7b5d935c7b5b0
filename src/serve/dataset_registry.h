#ifndef VADASA_SERVE_DATASET_REGISTRY_H_
#define VADASA_SERVE_DATASET_REGISTRY_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/vadasa.h"
#include "common/result.h"
#include "core/delta.h"
#include "core/group_index.h"
#include "core/metadata.h"
#include "core/microdata.h"

namespace vadasa::serve {

class ResultCache;

/// The warm state of one dataset version: per null semantics, the group index
/// whose statistics and columnar view every job over that version shares.
/// The first job that needs it builds it (concurrent jobs wait for that one
/// build), or DatasetRegistry::ApplyDelta carries it over from the previous
/// version. It lives and dies with its LoadedDataset. Thread-safe.
class WarmState {
 public:
  /// Warms `session`, which must be cold and over this version's table:
  /// adopts the ready state for its semantics, waits for one being built, or
  /// builds it with Session::Warm(). Returns true when this call built it. A
  /// failed build is kept and not retried; the session then stays cold and
  /// its own call path reports the error.
  bool Warm(api::Session* session);

  /// The built index for `semantics`; null when cold, building or failed.
  std::shared_ptr<const core::GroupIndex> Ready(
      core::NullSemantics semantics) const;

  /// Gives `next`, the unpublished version `new_table` of a delta, this
  /// version's built indexes patched with GroupIndex::ApplyDelta over `plan`
  /// (Stats() computed, so jobs only read them). Other slots stay cold.
  void CarryTo(const core::MicrodataTable& new_table,
               const core::DeltaRowPlan& plan, WarmState* next) const;

 private:
  struct Slot {
    bool building = false;
    bool done = false;
    std::shared_ptr<const core::GroupIndex> index;  ///< Null if it failed.
  };

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  Slot slots_[2];  ///< Indexed by core::NullSemantics.
};

/// One loaded, categorized, immutable dataset — the unit the registry shares
/// (refcounted) across every job that names the same path.
struct LoadedDataset {
  std::string path;
  std::shared_ptr<const core::MicrodataTable> table;
  std::shared_ptr<const core::MetadataDictionary> dictionary;
  /// Content fingerprint (serve/result_cache.h): schema + every cell.
  /// Computed once per load; the result-cache key embeds it, so a reloaded
  /// dataset with different bytes can never serve a stale cached payload.
  uint64_t fingerprint = 0;
  /// Monotonic dataset version: 1 at first load/registration, +1 per applied
  /// delta (ApplyDelta). Purely informational — cache correctness rides the
  /// fingerprint; the version lets clients confirm which generation of a
  /// streamed dataset served their job.
  uint64_t version = 1;
  /// Shared group statistics of this version (built lazily, so mutable).
  mutable WarmState warm;
};

/// Loads microdata tables + metadata dictionaries once and hands out shared
/// const snapshots, so a thousand jobs against the same CSV parse and
/// categorize it exactly once. Thread-safe; lookups after the first load are
/// a map hit under a mutex. Metrics: serve.registry.loads / .hits /
/// .load_failures / .quarantined.
///
/// Fault containment (docs/robustness.md): a dataset whose load or
/// categorization fails `quarantine_after` consecutive times is quarantined —
/// further loads return a structured FailedPrecondition carrying the last
/// error instead of re-parsing a poisoned file forever. A successful load
/// clears the failure streak; Clear() lifts every quarantine. Failpoint
/// sites: serve.registry.load, serve.registry.categorize.
class DatasetRegistry {
 public:
  DatasetRegistry();
  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// The dataset at `path`, loading and categorizing on first use.
  Result<std::shared_ptr<const LoadedDataset>> Load(const std::string& path);

  /// Registers an in-memory table under a name (tests, generated corpora).
  /// Fails on a name collision.
  Status Register(const std::string& name, core::MicrodataTable table);

  /// Drops the cached snapshot for `path` (and its result-cache entries) and
  /// loads it fresh — the operator's "the file changed on disk" hook.
  /// In-flight jobs keep their old snapshot refcounts.
  Result<std::shared_ptr<const LoadedDataset>> Reload(const std::string& path);

  /// Replaces (or creates) an in-memory registration, invalidating the
  /// dataset's result-cache entries — the reload path for Register()ed
  /// tables.
  Status Replace(const std::string& name, core::MicrodataTable table);

  /// Applies a validated DeltaBatch to the dataset's current snapshot and
  /// publishes the post-delta generation under the same name: version + 1,
  /// fresh content fingerprint (so ResultCache keys stay coherent — a job
  /// submitted after the delta can never hit a pre-delta payload), result
  /// cache invalidated as hygiene. Warm state carries over: each ready index
  /// of the base version is patched with GroupIndex::ApplyDelta (bit-identical
  /// to a cold build) and published as the new version's; a cold base yields
  /// a cold version. In-flight jobs keep their pre-delta snapshot refcounts
  /// and serve bit-identical pre-delta results. Concurrent ApplyDelta calls
  /// against one name are last-write-wins; serialize on the caller side when
  /// deltas must compose. Returns the new snapshot.
  Result<std::shared_ptr<const LoadedDataset>> ApplyDelta(
      const std::string& name, const core::DeltaBatch& batch);

  /// A Session over the dataset at `path` with the given policy.
  Result<api::Session> OpenSession(const std::string& path,
                                   api::SessionOptions options);

  /// Paths/names currently cached, in load order.
  std::vector<std::string> Catalog() const;

  /// Drops every cached dataset (in-flight shared_ptrs stay valid) and
  /// lifts every quarantine.
  void Clear();

  /// Consecutive failures before a path is quarantined (default 3; minimum 1).
  void set_quarantine_after(size_t n) { quarantine_after_ = n < 1 ? 1 : n; }
  /// Whether `path` is currently quarantined.
  bool IsQuarantined(const std::string& path) const;

  /// Attach the serving result cache: Reload/Replace/Clear and a quarantine
  /// transition invalidate the affected entries (hygiene — correctness
  /// already rides the content fingerprint in every key). Not owned; must
  /// outlive the registry. Null detaches.
  void set_result_cache(ResultCache* cache);

 private:
  /// The uncached load+categorize pipeline (no bookkeeping).
  Result<std::shared_ptr<const LoadedDataset>> LoadUncached(
      const std::string& path);

  /// Load-failure streak for one path.
  struct FailureRecord {
    size_t failures = 0;
    bool quarantined = false;
    Status last_error;
  };

  mutable std::mutex mutex_;
  ResultCache* result_cache_ = nullptr;
  size_t quarantine_after_ = 3;
  std::vector<std::string> order_;
  std::map<std::string, std::shared_ptr<const LoadedDataset>> datasets_;
  std::map<std::string, FailureRecord> failures_;
};

}  // namespace vadasa::serve

#endif  // VADASA_SERVE_DATASET_REGISTRY_H_
