#include "version/snapshot.h"

#include <cstdio>
#include <utility>

#include "obs/trace.h"
#include "version/content_hash.h"
#include "version/incremental.h"

namespace wg::version {

namespace {

std::string ManifestName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%06llu",
                static_cast<unsigned long long>(generation));
  return buf;
}

std::string PackBasePath(const std::string& dir, uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "gen-%06llu",
                static_cast<unsigned long long>(generation));
  return dir + "/" + buf;
}

}  // namespace

SnapshotManager::SnapshotManager(std::string dir, SnapshotOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  obs::Labels labels = {{"instance", std::to_string(obs::NextInstanceId())}};
  // Bind (not assign) the counters: Counter assignment is value-semantic
  // and would leave the registry series dead (see server/query_service.cc).
  generation_gauge_ = registry.GetGauge("wg_version_generation", labels,
                                        "Published snapshot generation");
  log_records_total_.Bind(registry, "wg_version_log_records_total", labels,
                          "Delta records appended to the write-ahead log");
  deltas_applied_total_.Bind(registry, "wg_version_deltas_applied_total",
                             labels,
                             "Delta records folded into a generation");
  blobs_shared_total_.Bind(
      registry, "wg_version_blobs_shared_total", labels,
      "Blobs shared byte-identically with an earlier generation");
  blobs_written_total_.Bind(registry, "wg_version_blobs_written_total",
                            labels, "Blobs newly written by compactions");
  compactions_total_.Bind(registry, "wg_version_compactions_total", labels,
                          "Completed compactions");
}

Result<std::unique_ptr<SnapshotManager>> SnapshotManager::Create(
    const std::string& dir, const WebGraph& base,
    const SnapshotOptions& options) {
  WG_RETURN_IF_ERROR(EnsureDirectory(dir));
  RefinementStats stats;
  WG_ASSIGN_OR_RETURN(
      std::unique_ptr<SNodeRepr> built,
      SNodeRepr::Build(base, PackBasePath(dir, 0), options.build, &stats));

  // Generation 0's manifest: every blob is this generation's own, hashed
  // so the first compaction has the full sharing table.
  Manifest manifest;
  manifest.generation = 0;
  manifest.log_applied = 0;
  const GraphStore& store = built->store();
  manifest.files.reserve(store.num_files());
  for (uint32_t f = 0; f < store.num_files(); ++f) {
    manifest.files.push_back(store.FilePath(f).substr(dir.size() + 1));
  }
  manifest.blobs.reserve(store.num_blobs());
  std::vector<uint8_t> bytes;
  for (uint32_t id = 0; id < store.num_blobs(); ++id) {
    WG_RETURN_IF_ERROR(store.ReadBlob(id, &bytes));
    GraphStore::BlobLocation loc = store.Location(id);
    manifest.blobs.push_back(
        {loc.file_index, loc.offset, loc.length, loc.crc, HashBlob(bytes)});
  }
  manifest.blobs_written = store.num_blobs();

  // Resident state through the public surface (the repr is about to be
  // dropped; every generation is loaded uniformly from its manifest).
  SNodeResidentState state;
  state.num_edges = built->num_edges();
  size_t n = built->num_pages();
  state.new_of_orig.resize(n);
  for (size_t p = 0; p < n; ++p) {
    state.new_of_orig[p] = static_cast<PageId>(built->LocalityKey(p));
  }
  state.supernodes = built->supernode_graph();
  state.Serialize(&manifest.resident);
  // The manifest is about to reference these pack bytes; they must be on
  // the platter before CURRENT can point at them.
  WG_RETURN_IF_ERROR(store.SyncAll());
  built.reset();

  std::unique_ptr<SnapshotManager> manager(
      new SnapshotManager(dir, options));
  WG_RETURN_IF_ERROR(manager->Publish(manifest));
  WG_ASSIGN_OR_RETURN(manager->current_,
                      manager->LoadGeneration(ManifestName(0)));
  WG_RETURN_IF_ERROR(manager->OpenLog());
  manager->generation_gauge_.Set(0);
  return manager;
}

Result<std::unique_ptr<SnapshotManager>> SnapshotManager::Open(
    const std::string& dir, const SnapshotOptions& options) {
  WG_ASSIGN_OR_RETURN(std::string name, ReadCurrentName(dir));
  std::unique_ptr<SnapshotManager> manager(
      new SnapshotManager(dir, options));
  WG_ASSIGN_OR_RETURN(manager->current_, manager->LoadGeneration(name));
  WG_RETURN_IF_ERROR(manager->OpenLog());
  manager->generation_gauge_.Set(
      static_cast<double>(manager->current_->manifest.generation));
  return manager;
}

Status SnapshotManager::OpenLog() {
  DeltaLogRecoveryStats recovery;
  WG_ASSIGN_OR_RETURN(log_, DeltaLog::Open(dir_ + "/deltas.log", &recovery));
  log_records_total_ += recovery.records;
  return Status::OK();
}

GenerationPtr SnapshotManager::current() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return current_;
}

Result<GenerationPtr> SnapshotManager::LoadGeneration(
    const std::string& manifest_name) const {
  WG_ASSIGN_OR_RETURN(Manifest manifest,
                      Manifest::ReadFrom(dir_ + "/" + manifest_name));
  WG_ASSIGN_OR_RETURN(SNodeResidentState state, manifest.ParseResident());
  WG_ASSIGN_OR_RETURN(std::unique_ptr<GraphStore> store,
                      manifest.OpenStore(dir_));
  if (options_.verify_before_install) {
    for (uint32_t id = 0; id < store->num_blobs(); ++id) {
      WG_RETURN_IF_ERROR(store->VerifyBlob(id));
    }
  }
  WG_ASSIGN_OR_RETURN(
      std::unique_ptr<SNodeRepr> repr,
      SNodeRepr::FromParts(std::move(state), std::move(store),
                           PackBasePath(dir_, manifest.generation),
                           options_.build));
  auto generation = std::make_shared<Generation>();
  generation->manifest = std::move(manifest);
  generation->repr = std::move(repr);
  return GenerationPtr(std::move(generation));
}

Status SnapshotManager::Publish(const Manifest& manifest) {
  obs::Span span("version.publish", "version");
  span.AddArg("generation", manifest.generation);
  std::string name = ManifestName(manifest.generation);
  WG_RETURN_IF_ERROR(manifest.WriteTo(dir_ + "/" + name));
  // WriteTo fsynced the manifest's bytes; the directory fsync makes its
  // (and any new pack files') directory entries durable. Without it a
  // power cut could publish a CURRENT pointing at a manifest whose entry
  // never reached the disk.
  WG_RETURN_IF_ERROR(SyncDirectory(dir_));

  // The atomic flip: CURRENT is replaced by rename, so a concurrent
  // Open() sees either the old complete generation or the new one.
  std::string tmp_path = dir_ + "/CURRENT.tmp";
  WG_RETURN_IF_ERROR(RemoveFileIfExists(tmp_path));
  {
    WG_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> tmp,
                        RandomAccessFile::Open(tmp_path));
    std::string line = name + "\n";
    WG_RETURN_IF_ERROR(tmp->Append(line.data(), line.size()));
    WG_RETURN_IF_ERROR(tmp->Sync());
  }
  WG_RETURN_IF_ERROR(RenameFile(tmp_path, dir_ + "/CURRENT"));
  // Second directory fsync: the rename itself is durable, so a reopening
  // process cannot land back on the previous generation after we told
  // the caller the flip succeeded.
  return SyncDirectory(dir_);
}

Status SnapshotManager::AppendDeltas(const std::vector<DeltaRecord>& batch) {
  if (batch.empty()) return Status::OK();
  std::lock_guard<std::mutex> admin(admin_mu_);
  // Validate the whole batch against base-plus-pending state before any
  // byte hits the log: an invalid record rejects the batch atomically.
  DeltaOverlay overlay(current()->repr->num_pages());
  WG_RETURN_IF_ERROR(BuildPendingOverlay(&overlay));
  for (const DeltaRecord& record : batch) {
    WG_RETURN_IF_ERROR(overlay.Apply(record));
  }
  for (const DeltaRecord& record : batch) {
    WG_RETURN_IF_ERROR(log_->Append(record));
  }
  WG_RETURN_IF_ERROR(log_->Sync());
  log_records_total_ += batch.size();
  return Status::OK();
}

Status SnapshotManager::BuildPendingOverlay(DeltaOverlay* overlay) const {
  uint64_t applied = current()->manifest.log_applied;
  return DeltaLog::Replay(
      log_->path(), applied,
      [overlay](const DeltaRecord& record) { return overlay->Apply(record); });
}

Result<GenerationPtr> SnapshotManager::Compact() {
  std::lock_guard<std::mutex> admin(admin_mu_);
  GenerationPtr base = current();
  uint64_t applied = base->manifest.log_applied;
  uint64_t total = log_->num_records();
  if (total == applied) return base;  // nothing pending

  obs::Span span("version.compact", "version");
  span.AddArg("generation", base->manifest.generation + 1);
  span.AddArg("pending", total - applied);

  // Replay exactly the `total - applied` records this compaction claims
  // as log_applied in the new manifest: an external writer may append
  // more frames while we run, and folding those here without accounting
  // them would double-apply them at the next compaction.
  DeltaOverlay overlay(base->repr->num_pages());
  uint64_t remaining = total - applied;
  WG_RETURN_IF_ERROR(
      DeltaLog::Replay(log_->path(), applied, [&](const DeltaRecord& r) {
        if (remaining == 0) return Status::OK();
        --remaining;
        return overlay.Apply(r);
      }));

  // Exact edge count of the mutated graph, through the same overlay the
  // incremental build encodes from.
  WG_ASSIGN_OR_RETURN(
      std::unique_ptr<OverlayRepresentation> merged,
      OverlayRepresentation::Make(base->repr.get(), &overlay));
  uint64_t num_edges = merged->num_edges();
  merged.reset();

  RefinementStats stats;
  MaintainedPartition maintained = MaintainPartition(
      *base->repr, overlay, options_.build.refinement, &stats);
  WG_ASSIGN_OR_RETURN(
      Manifest manifest,
      BuildIncrementalGeneration(*base->repr, base->manifest, overlay,
                                 maintained, base->manifest.generation + 1,
                                 total, num_edges, dir_, options_.build,
                                 &stats));
  WG_RETURN_IF_ERROR(Publish(manifest));
  WG_ASSIGN_OR_RETURN(GenerationPtr next,
                      LoadGeneration(ManifestName(manifest.generation)));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    current_ = next;
  }
  generation_gauge_.Set(static_cast<double>(manifest.generation));
  deltas_applied_total_ += total - applied;
  blobs_shared_total_ += manifest.blobs_shared;
  blobs_written_total_ += manifest.blobs_written;
  ++compactions_total_;
  return next;
}

Result<GenerationPtr> SnapshotManager::Refresh() {
  std::lock_guard<std::mutex> admin(admin_mu_);
  WG_ASSIGN_OR_RETURN(std::string name, ReadCurrentName(dir_));
  GenerationPtr base = current();
  if (name == ManifestName(base->manifest.generation)) return base;
  WG_ASSIGN_OR_RETURN(GenerationPtr next, LoadGeneration(name));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    current_ = next;
  }
  generation_gauge_.Set(static_cast<double>(next->manifest.generation));
  return next;
}

uint64_t SnapshotManager::pending_records() const {
  return log_->num_records() - current()->manifest.log_applied;
}

Status SnapshotManager::TailLog() {
  std::lock_guard<std::mutex> admin(admin_mu_);
  return log_->TailFromDisk();
}

}  // namespace wg::version
