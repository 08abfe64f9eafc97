#ifndef WG_STORAGE_GRAPH_STORE_H_
#define WG_STORAGE_GRAPH_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/file.h"
#include "storage/serial.h"
#include "util/status.h"

// The on-disk home of S-Node's intranode and superedge graphs (Section 3.3
// of the paper): a sequence of bounded-size "index files" (packs), each
// holding whole sections back to back in the caller's linear order. A
// section is one supernode's intranode graph followed by its outgoing
// superedge graphs, so one seek loads a query's working set. No section
// spans two packs: the paper's "a given intranode or superedge graph was
// completely located within a single file", lifted from graphs to
// sections.
//
// The section is the one unit the store writes, reads and checks. The
// directory holds one entry per section (pack, offset, length, CRC32) and
// a 4-byte length per graph, the paper's Fig. 10 pointer. It is kept in
// memory and charged to the representation's resident-index budget, like
// the paper's PageID/domain indexes.
//
// Every read is ReadSection: one pread of one whole section, checked by
// one CRC, every byte through the Env fault seam (storage/env.h) and the
// disk model (RandomAccessFile's seek/transfer counters). What a read
// means above this layer belongs to SNodeRepr::ReadSectionBlobs
// (snode/snode_repr.h): section quarantine, the disk-model lock and the
// load counters.

namespace wg {

class GraphStore {
 public:
  struct Options {
    // The paper used 500 MB index files; our data sets are 1000x smaller,
    // so default to 512 KB to preserve the multi-file structure. At 1M+
    // pages the default produces thousands of files -- raise it (wgtool
    // build --max-file-size). Only Create reads it.
    uint64_t max_file_size = 512 * 1024;
  };

  // Physical home of one section. file_index is internal to whoever lists
  // the section: a store's own file list, or a snapshot manifest's.
  struct Section {
    uint32_t file_index = 0;
    uint32_t num_graphs = 0;
    uint64_t offset = 0;
    uint32_t length = 0;  // the sum of its graphs' lengths
    uint32_t crc = 0;     // CRC32 of its bytes, checked on every read
  };

  // Where every section lives and how each splits into graphs: the form a
  // store's `.meta` and a snapshot MANIFEST persist. Graph ids are dense
  // in layout order, so section s holds the num_graphs graphs after those
  // of sections [0, s).
  struct Directory {
    std::vector<Section> sections;
    std::vector<uint32_t> graph_lengths;  // every graph's bytes, by id

    // Per section: file index, offset, CRC, graph count and the graphs'
    // lengths (varints). The section length is not written: it is derived.
    void Serialize(std::string* out) const;
    // Corruption when a field is missing, a count exceeds the bytes left,
    // or a section's length overflows 32 bits.
    static Result<Directory> Parse(SerialCursor* cursor);
  };

  // Creates a store writing files `<base_path>.000`, `<base_path>.001`, ...
  // Existing files with those names are truncated.
  static Result<std::unique_ptr<GraphStore>> Create(std::string base_path,
                                                    Options options);

  // Re-attaches to the files `<base_path>.NNN` using a directory
  // previously produced by SerializeDirectory: parses it and hands it to
  // OpenFiles. The store is read-only (appending after attach would
  // corrupt the serialized directory of any other reader and is
  // rejected).
  static Result<std::unique_ptr<GraphStore>> OpenExisting(
      const std::string& base_path, SerialCursor* cursor);

  // Read-only store over an explicit set of files with an explicit
  // directory: section s lives in paths[sections[s].file_index]. The one
  // attach path: it opens every file without creating any (a missing one
  // is NotFound) and rejects a section that names an unknown file, lies
  // outside its file, or whose length is not its graphs' sum. A snapshot
  // generation reads this way too: its manifest's sections span pack
  // files written by several earlier generations, shared whole.
  static Result<std::unique_ptr<GraphStore>> OpenFiles(
      const std::vector<std::string>& paths, Directory directory);

  // Appends the file count and the directory to *payload (varints), for
  // the owner's metadata file.
  void SerializeDirectory(std::string* payload) const;

  // Appends one section, `graphs` back to back in order, and returns its
  // index. A section that would push a non-empty pack past max_file_size
  // starts a new pack, so no section spans two packs and a section larger
  // than max_file_size gets a pack of its own. Rejected on a store
  // attached via OpenExisting or OpenFiles.
  Result<uint32_t> AppendSection(
      const std::vector<std::vector<uint8_t>>& graphs);

  // A borrowed view of one graph's bytes in the caller's scratch buffer
  // (valid until that buffer changes). data is never null for length > 0.
  struct GraphSpan {
    const uint8_t* data = nullptr;
    uint32_t length = 0;
  };

  // The store's one read path: reads section `s` with one pread into
  // *scratch, checks its CRC (Corruption on a mismatch), and points
  // (*graphs)[k] at its k-th graph. Not thread-safe: concurrent readers
  // serialize on their own lock (SNodeRepr's io_mutex_), which also
  // guards the disk-model counters every read bumps.
  Status ReadSection(uint32_t s, std::vector<uint8_t>* scratch,
                     std::vector<GraphSpan>* graphs) const;

  // fsyncs every store file. Writers must call this before publishing a
  // manifest that references the sections. (Logically const: nothing
  // about the store's state changes, only its durability.)
  Status SyncAll() const;

  // Best-effort page-cache eviction of every store file (cold-read
  // benchmarks; see RandomAccessFile::EvictFromPageCache).
  void EvictFromPageCache() const;

  const Directory& directory() const { return directory_; }
  size_t num_sections() const { return directory_.sections.size(); }
  size_t num_graphs() const { return directory_.graph_lengths.size(); }
  size_t num_files() const { return files_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }
  const Section& section(uint32_t s) const { return directory_.sections[s]; }
  const std::string& FilePath(uint32_t file_index) const {
    return files_[file_index]->path();
  }

  // In-memory size of the directory (a resident index).
  size_t DirectoryMemoryUsage() const {
    return directory_.sections.size() * sizeof(Section) +
           (directory_.graph_lengths.size() + first_graph_.size()) *
               sizeof(uint32_t);
  }

  // Disk-model seeks / transferred bytes across all files.
  uint64_t seek_ops() const;
  uint64_t transferred_bytes() const;

 private:
  GraphStore(std::string base_path, Options options)
      : base_path_(std::move(base_path)), options_(options) {}

  Status OpenNextFile();

  std::string base_path_;
  Options options_;
  std::vector<std::unique_ptr<RandomAccessFile>> files_;
  Directory directory_;
  // Id of each section's first graph, derived; size sections + 1.
  std::vector<uint32_t> first_graph_ = {0};
  uint64_t total_bytes_ = 0;
  bool read_only_ = false;
};

}  // namespace wg

#endif  // WG_STORAGE_GRAPH_STORE_H_
