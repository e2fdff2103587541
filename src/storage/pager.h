// File-backed page manager: allocation, free list, raw page IO, and a meta
// page (page 0) with a small number of user slots in which higher layers
// (catalog) persist their roots.

#ifndef SSDB_STORAGE_PAGER_H_
#define SSDB_STORAGE_PAGER_H_

#include <memory>
#include <string>

#include "storage/page.h"
#include "util/statusor.h"

namespace ssdb::storage {

inline constexpr int kMetaUserSlots = 16;

class Pager {
 public:
  // Opens or creates a database file. A fresh file gets an initialized meta
  // page; an existing file is validated (magic + version + checksum). A
  // file that fails validation is closed unmodified.
  static StatusOr<std::unique_ptr<Pager>> Open(const std::string& path,
                                               bool create_if_missing);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  Status ReadPage(PageId id, PageBuf* buf);
  Status WritePage(PageId id, const PageBuf& buf);

  // Returns a zeroed page, reusing the free list when possible.
  StatusOr<PageId> AllocatePage();
  Status FreePage(PageId id);

  // Total pages including meta.
  uint32_t page_count() const { return page_count_; }
  uint64_t file_bytes() const {
    return static_cast<uint64_t>(page_count_) * kPageSize;
  }

  uint64_t GetMetaSlot(int slot) const;
  Status SetMetaSlot(int slot, uint64_t value);

  // Flushes the meta page and fsyncs the file.
  Status Sync();

 private:
  Pager() = default;

  // Initializes a fresh file or validates an existing one's meta page
  // (magic, version, checksum) and loads it.
  Status LoadMeta();
  Status FlushMeta();

  int fd_ = -1;
  std::string path_;
  uint32_t page_count_ = 0;
  PageId free_list_head_ = kInvalidPageId;
  uint64_t meta_slots_[kMetaUserSlots] = {};
};

}  // namespace ssdb::storage

#endif  // SSDB_STORAGE_PAGER_H_
