#ifndef WG_SNODE_GRAPH_CACHE_H_
#define WG_SNODE_GRAPH_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/webgraph.h"
#include "snode/codecs.h"
#include "util/status.h"

// The decoded-graph cache behind SNodeRepr, rebuilt for concurrent readers
// (the server/QueryService thread pool). Three ideas:
//
//  * Sharding: entries are spread over N mutex-guarded shards by graph id,
//    each with its own LRU list and a 1/N slice of the byte budget, so
//    concurrent hits on different graphs never contend on one lock.
//  * Read-through with singleflight: a miss claims an in-flight "load
//    ticket" for its key; concurrent misses on the same key block on the
//    ticket instead of decoding the same lower-level graph N times. The
//    claimant decodes outside any shard lock and publishes the result.
//  * Shared-ownership entries: lookups return shared_ptrs, so eviction
//    (under the byte budget) never invalidates a graph a reader is still
//    walking -- the old raw-pointer-into-the-LRU scheme cannot survive
//    concurrent eviction.

namespace wg {

class ShardedGraphCache {
 public:
  // An assembled per-supernode adjacency: the fully remapped, sorted
  // external out-links of every page in one supernode, laid out as a
  // small CSR. SNodeRepr caches these (keyed past the blob-id space) so
  // warm cursor reads can hand out LinkViews straight into `targets`
  // with a refcounted pin on the owning Entry -- no decode, no remap, no
  // copy per request.
  struct AssembledAdjacency {
    std::vector<uint32_t> offsets;  // per local page, size pages+1
    std::vector<PageId> targets;    // external ids, sorted per page
    size_t MemoryUsage() const {
      return offsets.capacity() * sizeof(uint32_t) +
             targets.capacity() * sizeof(PageId);
    }
  };

  // A decoded lower-level graph (exactly one of intranode/superedge set)
  // or an assembled adjacency block.
  struct Entry {
    std::unique_ptr<IntranodeGraph> intranode;
    std::unique_ptr<SuperedgeGraph> superedge;
    std::unique_ptr<AssembledAdjacency> assembled;
    size_t bytes = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  ShardedGraphCache(size_t num_shards, size_t budget_bytes);

  // Total byte budget across all shards; shrinking evicts immediately.
  void set_budget(size_t bytes);
  size_t budget() const;
  size_t bytes_used() const;
  size_t num_shards() const { return shards_.size(); }

  // Entries whose shared_ptr is held outside the cache right now (a
  // LinkView pin or a reader mid-walk). Eviction never frees these --
  // shared ownership keeps the bytes alive until the last pin drops --
  // so this must return 0 once all views are gone.
  size_t PinnedEntries() const;

  // Drops every cached entry (in-flight loads are unaffected and will
  // publish into the emptied cache).
  void Clear();

  // Returns the cached entry (touching its LRU position) or nullptr.
  EntryPtr Lookup(uint32_t key);

  // Singleflight claim for `key`:
  //  * kHit    -- entry was cached, or another thread's in-flight load
  //               completed while we waited; `entry` is set.
  //  * kOwner  -- the caller now owns the load and MUST call Publish or
  //               Abort for `key`.
  //  * kFailed -- another thread owned the load and it failed; `status`
  //               carries its error.
  enum class ClaimKind { kHit, kOwner, kFailed };
  struct Claim {
    ClaimKind kind;
    EntryPtr entry;   // set iff kHit
    Status status;    // non-OK iff kFailed
  };
  Claim BeginLoad(uint32_t key);

  // Claims, without blocking, every one of `keys` that is neither cached
  // nor already in flight (a section fetch: the caller reads the whole
  // section with one sequential I/O and decodes just its claimed keys).
  // Each returned key MUST be resolved with Publish or Abort.
  std::vector<uint32_t> ClaimKeys(const std::vector<uint32_t>& keys);

  // Resolves a claim: inserts the entry, wakes waiters, evicts to budget.
  EntryPtr Publish(uint32_t key, Entry&& entry);

  // Resolves a failed claim: wakes waiters with `status`.
  void Abort(uint32_t key, const Status& status);

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    EntryPtr entry;
  };

  struct Node {
    EntryPtr entry;
    std::list<uint32_t>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint32_t, Node> map;
    std::list<uint32_t> lru;  // front = most recently used
    size_t used = 0;
    std::unordered_map<uint32_t, std::shared_ptr<Flight>> flights;
    // Entries evicted while a reader still held them; tracked weakly so
    // PinnedEntries() stays honest about bytes kept alive past eviction.
    std::vector<std::weak_ptr<const Entry>> evicted_pinned;
  };

  Shard& shard_of(uint32_t key) { return shards_[key % shards_.size()]; }
  const Shard& shard_of(uint32_t key) const {
    return shards_[key % shards_.size()];
  }
  size_t shard_budget() const;
  // Evicts `shard` down to its budget slice. Caller holds shard.mu.
  void EvictToBudget(Shard& shard);
  std::shared_ptr<Flight> TakeFlight(Shard& shard, uint32_t key);

  std::vector<Shard> shards_;
  std::atomic<size_t> budget_;
};

}  // namespace wg

#endif  // WG_SNODE_GRAPH_CACHE_H_
