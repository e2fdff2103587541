#include "storage/buffer_pool.h"

#include "util/logging.h"

namespace ssdb::storage {

PageHandle::PageHandle(BufferPool* pool, size_t frame, PageId id)
    : pool_(pool), frame_(frame), id_(id) {}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_), id_(other.id_) {
  other.pool_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    other.pool_ = nullptr;
  }
  return *this;
}

uint8_t* PageHandle::data() {
  SSDB_DCHECK(valid());
  return pool_->frames_[frame_].buf.data();
}

const uint8_t* PageHandle::data() const {
  SSDB_DCHECK(valid());
  return pool_->frames_[frame_].buf.data();
}

void PageHandle::MarkDirty() {
  SSDB_DCHECK(valid());
  std::lock_guard<std::mutex> lock(pool_->latch_);
  pool_->frames_[frame_].dirty = true;
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : pager_(pager), capacity_(capacity) {
  SSDB_CHECK(capacity_ >= 8) << "buffer pool too small for B+tree descent";
  frames_.reserve(capacity_);
}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  if (!s.ok()) {
    SSDB_LOG(ERROR) << "buffer pool flush on destruction failed: "
                    << s.ToString();
  }
}

StatusOr<PageHandle> BufferPool::Fetch(PageId id) {
  SSDB_ASSIGN_OR_RETURN(size_t frame, GetFrame(id, /*load=*/true));
  return PageHandle(this, frame, id);
}

StatusOr<PageHandle> BufferPool::NewPage() {
  SSDB_ASSIGN_OR_RETURN(PageId id, pager_->AllocatePage());
  SSDB_ASSIGN_OR_RETURN(size_t frame, GetFrame(id, /*load=*/false));
  {
    std::lock_guard<std::mutex> lock(latch_);
    frames_[frame].buf.fill(0);
    frames_[frame].dirty = true;
  }
  return PageHandle(this, frame, id);
}

StatusOr<size_t> BufferPool::GetFrame(PageId id, bool load) {
  std::lock_guard<std::mutex> lock(latch_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    ++stats_.hits;
    Frame& frame = frames_[it->second];
    ++frame.pin_count;
    frame.last_used = ++clock_;
    return it->second;
  }
  ++stats_.misses;

  size_t frame_index;
  if (frames_.size() < capacity_) {
    frames_.emplace_back();
    frame_index = frames_.size() - 1;
  } else {
    SSDB_ASSIGN_OR_RETURN(frame_index, EvictOne());
  }

  Frame& frame = frames_[frame_index];
  frame.page_id = id;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.last_used = ++clock_;
  if (load) {
    SSDB_RETURN_IF_ERROR(pager_->ReadPage(id, &frame.buf));
    if (!VerifyPage(frame.buf.data())) {
      frame.page_id = kInvalidPageId;
      frame.pin_count = 0;
      return Status::Corruption("checksum mismatch on page " +
                                std::to_string(id));
    }
  }
  page_table_[id] = frame_index;
  return frame_index;
}

StatusOr<size_t> BufferPool::EvictOne() {
  size_t victim = frames_.size();
  uint64_t oldest = UINT64_MAX;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& frame = frames_[i];
    if (frame.pin_count == 0 && frame.last_used < oldest) {
      oldest = frame.last_used;
      victim = i;
    }
  }
  if (victim == frames_.size()) {
    return Status::FailedPrecondition(
        "buffer pool exhausted: all pages pinned");
  }
  Frame& frame = frames_[victim];
  if (frame.dirty) {
    SSDB_RETURN_IF_ERROR(FlushFrame(&frame));
  }
  page_table_.erase(frame.page_id);
  frame.page_id = kInvalidPageId;
  ++stats_.evictions;
  return victim;
}

Status BufferPool::FlushFrame(Frame* frame) {
  SealPage(frame->buf.data());
  SSDB_RETURN_IF_ERROR(pager_->WritePage(frame->page_id, frame->buf));
  frame->dirty = false;
  ++stats_.flushes;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(latch_);
  for (Frame& frame : frames_) {
    if (frame.page_id != kInvalidPageId && frame.dirty) {
      SSDB_RETURN_IF_ERROR(FlushFrame(&frame));
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(latch_);
  Frame& f = frames_[frame];
  SSDB_DCHECK(f.pin_count > 0);
  --f.pin_count;
}

}  // namespace ssdb::storage
