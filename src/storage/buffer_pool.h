// LRU buffer pool over the pager. Thread-safe for the concurrent server
// (DESIGN.md §7): a single internal latch serializes frame-table mutations
// (lookup/pin/unpin/evict), which are short; page *bytes* are read outside
// the latch through pinned frames, whose storage never moves (the frame
// vector's capacity is reserved up front) and which eviction cannot touch
// while pinned. Writes (encode time) are single-threaded by contract.
//
// Pages are pinned through RAII PageHandles; checksums are sealed on flush
// and verified on load.

#ifndef SSDB_STORAGE_BUFFER_POOL_H_
#define SSDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "storage/pager.h"
#include "util/statusor.h"

namespace ssdb::storage {

class BufferPool;

// Pinned page reference; unpins on destruction. MarkDirty() must be called
// after mutating the page bytes.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame, PageId id);
  ~PageHandle();

  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  uint8_t* data();
  const uint8_t* data() const;
  void MarkDirty();

 private:
  void Release();

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId id_ = kInvalidPageId;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
};

class BufferPool {
 public:
  BufferPool(Pager* pager, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Fetches (pinning) an existing page.
  StatusOr<PageHandle> Fetch(PageId id);

  // Allocates a fresh zeroed page and pins it.
  StatusOr<PageHandle> NewPage();

  // Writes back all dirty pages (does not fsync; see Pager::Sync).
  Status FlushAll();

  const BufferPoolStats& stats() const { return stats_; }
  Pager* pager() { return pager_; }

 private:
  friend class PageHandle;

  struct Frame {
    PageBuf buf;
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    uint64_t last_used = 0;
  };

  StatusOr<size_t> GetFrame(PageId id, bool load);
  // Frees the least recently used unpinned frame and returns its index.
  StatusOr<size_t> EvictOne();
  Status FlushFrame(Frame* frame);
  void Unpin(size_t frame);

  Pager* pager_;
  size_t capacity_;
  // Guards every member below (DESIGN.md §7). Held across page loads for
  // simplicity — misses serialize, warm-cache hits are short critical
  // sections. Innermost lock in the server stack; never held while calling
  // out of the pool.
  std::mutex latch_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  uint64_t clock_ = 0;
  BufferPoolStats stats_;
};

}  // namespace ssdb::storage

#endif  // SSDB_STORAGE_BUFFER_POOL_H_
