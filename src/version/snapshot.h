#ifndef WG_VERSION_SNAPSHOT_H_
#define WG_VERSION_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "snode/snode_repr.h"
#include "version/delta_log.h"
#include "version/manifest.h"
#include "version/overlay.h"

// The versioned snapshot store: a directory of immutable generations that
// share unchanged sections whole, plus one write-ahead delta log, with
// LevelDB-style atomic publication.
//
//   <dir>/gen-000000.000 ...   pack files (never modified once written)
//   <dir>/MANIFEST-000000 ...  one manifest per generation
//   <dir>/CURRENT              name of the live manifest (swapped by
//                              write-temp-then-rename, the atomic flip)
//   <dir>/deltas.log           CRC-framed crawl deltas (version/delta_log.h)
//
// Lifecycle: Create() runs a full S-Node build over the base crawl and
// publishes generation 0. Crawl increments arrive via AppendDeltas()
// (durable in the log before acknowledgement). Readers between
// compactions see base-plus-deltas through BuildPendingOverlay() +
// OverlayRepresentation. Compact() folds the unapplied log suffix into
// generation N+1 incrementally (version/incremental.h), re-encoding only
// dirty sections and sharing the rest byte-identically, then atomically
// repoints CURRENT.
//
// Concurrency: current() hands out shared_ptr<const Generation>; a reader
// (QueryService request) copies it once and keeps querying that immutable
// generation while Compact() publishes the next -- no stop-the-world. An
// old generation's repr, store, and pinned cache views stay alive until
// the last reader's shared_ptr drops. Log appends and compactions are
// serialized on an admin mutex; the published-generation pointer has its
// own mutex so readers never wait on a compaction.

namespace wg::version {

struct Generation {
  Manifest manifest;
  // Mutable pointee behind the const Generation: SNodeRepr's read path is
  // internally synchronized (its cache/IO locks), so concurrent cursors
  // through a shared const Generation are safe.
  std::unique_ptr<SNodeRepr> repr;
};

using GenerationPtr = std::shared_ptr<const Generation>;

// Aliasing view of the generation's repr that shares the Generation's
// lifetime: hand this to query code and the generation cannot be torn
// down underneath it.
inline std::shared_ptr<GraphRepresentation> ReprOf(const GenerationPtr& gen) {
  return std::shared_ptr<GraphRepresentation>(gen, gen->repr.get());
}

struct SnapshotOptions {
  SNodeBuildOptions build;
  // Scrub (pread + CRC) every section of a generation before installing it.
  // A corrupt generation then fails Open()/Refresh()/Compact() with
  // Corruption while the previously installed generation keeps serving
  // (degraded mode), instead of the corruption surfacing mid-query later.
  // Costs one full sequential read of the store per flip; wgserve turns
  // it on, batch/bench paths leave it off.
  bool verify_before_install = false;
};

class SnapshotManager {
 public:
  // Creates <dir>, runs a full build over `base`, publishes generation 0,
  // and opens the (empty) delta log.
  static Result<std::unique_ptr<SnapshotManager>> Create(
      const std::string& dir, const WebGraph& base,
      const SnapshotOptions& options);

  // Re-attaches to an existing snapshot directory: reads CURRENT, loads
  // that generation, and recovers the delta log (truncating any torn
  // tail). Records past manifest.log_applied are simply pending again.
  static Result<std::unique_ptr<SnapshotManager>> Open(
      const std::string& dir, const SnapshotOptions& options);

  // The live generation. Cheap (one mutex hop + shared_ptr copy); copy it
  // once per request and read through the copy.
  GenerationPtr current() const;

  // Validates the batch against base-plus-pending state and appends it to
  // the log with one sync at the end. All-or-nothing: an invalid record
  // rejects the whole batch with nothing appended.
  Status AppendDeltas(const std::vector<DeltaRecord>& batch);

  // Replays the unapplied log suffix into *overlay (which must be freshly
  // constructed over current()'s page count by the caller -- or use the
  // convenience overload).
  Status BuildPendingOverlay(DeltaOverlay* overlay) const;

  // Folds all pending deltas into a new generation and publishes it
  // atomically. Returns the new (or unchanged, if nothing was pending)
  // generation.
  Result<GenerationPtr> Compact();

  // Re-reads CURRENT and, if it names a different generation than the one
  // published in this process, loads and installs it. Returns the
  // (possibly unchanged) live generation. This is how a serving process
  // follows compactions performed by another process against the same
  // directory -- poll Refresh() and SwapForward on a generation change.
  Result<GenerationPtr> Refresh();

  // Accounts delta records another process appended to the log since it
  // was opened, so pending_records() reflects the on-disk backlog -- a
  // long-running server polls this before deciding whether to Compact().
  Status TailLog();

  uint64_t log_records() const { return log_->num_records(); }
  uint64_t pending_records() const;
  const std::string& dir() const { return dir_; }

 private:
  SnapshotManager(std::string dir, SnapshotOptions options);

  Result<GenerationPtr> LoadGeneration(const std::string& manifest_name) const;
  Status Publish(const Manifest& manifest);
  Status OpenLog();

  std::string dir_;
  SnapshotOptions options_;
  std::unique_ptr<DeltaLog> log_;

  mutable std::mutex admin_mu_;  // serializes AppendDeltas / Compact
  mutable std::mutex state_mu_;  // guards current_
  GenerationPtr current_;

  // wg_version_* series (bound per manager instance).
  obs::Gauge generation_gauge_;
  obs::Counter log_records_total_;
  obs::Counter deltas_applied_total_;
  obs::Counter sections_shared_total_;
  obs::Counter sections_written_total_;
  obs::Counter compactions_total_;
};

}  // namespace wg::version

#endif  // WG_VERSION_SNAPSHOT_H_
