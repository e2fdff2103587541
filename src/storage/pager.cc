#include "storage/pager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.h"

namespace ssdb::storage {
namespace {

constexpr uint64_t kMagic = 0x7373646231000000ULL;  // "ssdb1"
// 2: word-at-a-time page checksum (page.h). Version 1 pages carry a
// byte-serial FNV-1a sum that this build does not read.
constexpr uint32_t kVersion = 2;

// Meta page layout (after the common 8-byte header):
//   [8..16)   magic
//   [16..20)  version
//   [20..24)  page_count
//   [24..28)  free_list_head
//   [32..)    user slots (16 x u64)
constexpr size_t kMagicOff = 8;
constexpr size_t kVersionOff = 16;
constexpr size_t kPageCountOff = 20;
constexpr size_t kFreeHeadOff = 24;
constexpr size_t kUserSlotsOff = 32;

Status ErrnoError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                             bool create_if_missing) {
  int flags = O_RDWR | (create_if_missing ? O_CREAT : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoError("open " + path);

  auto pager = std::unique_ptr<Pager>(new Pager());
  pager->fd_ = fd;
  pager->path_ = path;
  Status loaded = pager->LoadMeta();
  if (!loaded.ok()) {
    // Close the rejected file as it was found: ~Pager would write a fresh
    // meta page over it.
    ::close(pager->fd_);
    pager->fd_ = -1;
    return loaded;
  }
  return pager;
}

Status Pager::LoadMeta() {
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return ErrnoError("lseek " + path_);

  if (size == 0) {
    // Fresh file: write meta page.
    page_count_ = 1;
    free_list_head_ = kInvalidPageId;
    return FlushMeta();
  }

  if (size % kPageSize != 0) {
    return Status::Corruption(path_ + ": size not a multiple of page size");
  }
  PageBuf meta;
  SSDB_RETURN_IF_ERROR(ReadPage(0, &meta));
  // Magic and version first: an older format's pages carry a different
  // checksum, and the error should name the version, not the checksum.
  if (LoadU64(meta.data() + kMagicOff) != kMagic) {
    return Status::Corruption(path_ + ": bad magic (not an ssdb file)");
  }
  uint32_t version = LoadU32(meta.data() + kVersionOff);
  if (version != kVersion) {
    return Status::Corruption(
        path_ + ": page format version " + std::to_string(version) +
        " is not supported (this build reads version " +
        std::to_string(kVersion) + "); re-encode the database");
  }
  if (!VerifyPage(meta.data())) {
    return Status::Corruption(path_ + ": meta page checksum mismatch");
  }
  page_count_ = LoadU32(meta.data() + kPageCountOff);
  free_list_head_ = LoadU32(meta.data() + kFreeHeadOff);
  for (int i = 0; i < kMetaUserSlots; ++i) {
    meta_slots_[i] = LoadU64(meta.data() + kUserSlotsOff + 8 * i);
  }
  if (page_count_ * static_cast<uint64_t>(kPageSize) >
      static_cast<uint64_t>(size)) {
    return Status::Corruption(path_ + ": page count exceeds file size");
  }
  return Status::OK();
}

Pager::~Pager() {
  if (fd_ >= 0) {
    // Best effort; callers that care about durability call Sync().
    FlushMeta();
    ::close(fd_);
  }
}

Status Pager::ReadPage(PageId id, PageBuf* buf) {
  if (id >= page_count_ && id != 0) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(id));
  }
  ssize_t n = ::pread(fd_, buf->data(), kPageSize,
                      static_cast<off_t>(id) * kPageSize);
  if (n < 0) return ErrnoError("pread page " + std::to_string(id));
  if (n == 0) {
    // Page allocated but never written: treat as zeroed.
    buf->fill(0);
    return Status::OK();
  }
  if (static_cast<size_t>(n) != kPageSize) {
    return Status::IOError("short read on page " + std::to_string(id));
  }
  return Status::OK();
}

Status Pager::WritePage(PageId id, const PageBuf& buf) {
  if (id >= page_count_) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(id));
  }
  ssize_t n = ::pwrite(fd_, buf.data(), kPageSize,
                       static_cast<off_t>(id) * kPageSize);
  if (n < 0) return ErrnoError("pwrite page " + std::to_string(id));
  if (static_cast<size_t>(n) != kPageSize) {
    return Status::IOError("short write on page " + std::to_string(id));
  }
  return Status::OK();
}

StatusOr<PageId> Pager::AllocatePage() {
  if (free_list_head_ != kInvalidPageId) {
    PageId id = free_list_head_;
    PageBuf buf;
    SSDB_RETURN_IF_ERROR(ReadPage(id, &buf));
    // A free page stores the next free id right after the common header.
    free_list_head_ = LoadU32(buf.data() + kPageHeaderSize);
    buf.fill(0);
    SSDB_RETURN_IF_ERROR(WritePage(id, buf));
    return id;
  }
  PageId id = page_count_++;
  PageBuf zero;
  zero.fill(0);
  SSDB_RETURN_IF_ERROR(WritePage(id, zero));
  return id;
}

Status Pager::FreePage(PageId id) {
  if (id == 0 || id >= page_count_) {
    return Status::InvalidArgument("cannot free page " + std::to_string(id));
  }
  PageBuf buf;
  buf.fill(0);
  SetPageType(buf.data(), PageType::kFree);
  StoreU32(buf.data() + kPageHeaderSize, free_list_head_);
  SealPage(buf.data());
  SSDB_RETURN_IF_ERROR(WritePage(id, buf));
  free_list_head_ = id;
  return Status::OK();
}

uint64_t Pager::GetMetaSlot(int slot) const {
  SSDB_CHECK(slot >= 0 && slot < kMetaUserSlots);
  return meta_slots_[slot];
}

Status Pager::SetMetaSlot(int slot, uint64_t value) {
  SSDB_CHECK(slot >= 0 && slot < kMetaUserSlots);
  meta_slots_[slot] = value;
  return Status::OK();
}

Status Pager::FlushMeta() {
  PageBuf meta;
  meta.fill(0);
  SetPageType(meta.data(), PageType::kMeta);
  StoreU64(meta.data() + kMagicOff, kMagic);
  StoreU32(meta.data() + kVersionOff, kVersion);
  StoreU32(meta.data() + kPageCountOff, page_count_);
  StoreU32(meta.data() + kFreeHeadOff, free_list_head_);
  for (int i = 0; i < kMetaUserSlots; ++i) {
    StoreU64(meta.data() + kUserSlotsOff + 8 * i, meta_slots_[i]);
  }
  SealPage(meta.data());
  ssize_t n = ::pwrite(fd_, meta.data(), kPageSize, 0);
  if (n < 0) return ErrnoError("pwrite meta");
  if (static_cast<size_t>(n) != kPageSize) {
    return Status::IOError("short write on meta page");
  }
  return Status::OK();
}

Status Pager::Sync() {
  SSDB_RETURN_IF_ERROR(FlushMeta());
  if (::fsync(fd_) != 0) return ErrnoError("fsync");
  return Status::OK();
}

}  // namespace ssdb::storage
