#include "storage/table.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>

#include "prg/prg.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/varint.h"

namespace ssdb::storage {
namespace {

// Catalog keys.
constexpr char kHeapFirst[] = "heap_first";
constexpr char kHeapLast[] = "heap_last";
constexpr char kPreRoot[] = "pre_root";
constexpr char kParentRoot[] = "parent_root";
constexpr char kPostRoot[] = "post_root";
constexpr char kNodeCount[] = "node_count";
constexpr char kPayloadBytes[] = "payload_bytes";
constexpr char kStructureBytes[] = "structure_bytes";
constexpr char kDocVersion[] = "doc_version";
constexpr char kNextNonce[] = "next_nonce";

// Journal file magic (DESIGN.md §12): 8 bytes, then varint txn, then the
// length-prefixed plan, then a fixed32 FNV-1a over everything after the
// magic. Written tmp + fsync + rename + directory fsync, so a crash leaves
// either no journal or a whole one, and an acknowledged journal survives.
constexpr char kJournalMagic[] = "SSDBJRN1";
constexpr size_t kJournalMagicBytes = 8;

uint32_t Fnv1a(std::string_view data) {
  uint32_t h = 2166136261u;
  for (unsigned char c : data) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

// The directory holding `path` ("." for a bare file name).
std::string ParentDirectory(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

// Whole-file durable write: tmp file, fsync, atomic rename into place, then
// fsync of the parent directory — without it the rename (and so a prepare
// the coordinator was told is durable) can be lost on power failure.
Status WriteFileDurable(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("open " + tmp + " failed");
  size_t written = 0;
  while (written < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + written,
                        contents.size() - written);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError("write " + tmp + " failed");
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError("fsync " + tmp + " failed");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("rename " + tmp + " -> " + path + " failed");
  }
  const std::string dir = ParentDirectory(path);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return Status::IOError("open directory " + dir + " failed");
  int synced = ::fsync(dir_fd);
  ::close(dir_fd);
  if (synced != 0) return Status::IOError("fsync directory " + dir + " failed");
  return Status::OK();
}

uint64_t CompositeKey(uint32_t column_value, uint32_t pre) {
  return (static_cast<uint64_t>(column_value) << 32) | pre;
}

std::string ColumnStorePath(const std::string& path) { return path + ".cols"; }

}  // namespace

StatusOr<std::unique_ptr<DiskNodeStore>> DiskNodeStore::Create(
    const std::string& path, const DiskStoreOptions& options) {
  auto store = std::unique_ptr<DiskNodeStore>(new DiskNodeStore());
  SSDB_ASSIGN_OR_RETURN(store->pager_, Pager::Open(path, true));
  if (store->pager_->GetMetaSlot(0) != 0) {
    return Status::AlreadyExists(path + " already contains a database");
  }
  store->pool_ = std::make_unique<BufferPool>(store->pager_.get(),
                                              options.buffer_pool_pages);
  SSDB_ASSIGN_OR_RETURN(Catalog catalog, Catalog::Create(store->pool_.get()));
  store->catalog_ = std::move(catalog);
  SSDB_RETURN_IF_ERROR(
      store->pager_->SetMetaSlot(0, store->catalog_->page()));

  SSDB_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(store->pool_.get()));
  store->heap_ = std::move(heap);
  SSDB_ASSIGN_OR_RETURN(BTree pre, BTree::Create(store->pool_.get()));
  store->pre_index_ = std::move(pre);
  SSDB_ASSIGN_OR_RETURN(BTree parent, BTree::Create(store->pool_.get()));
  store->parent_index_ = std::move(parent);
  SSDB_ASSIGN_OR_RETURN(BTree post, BTree::Create(store->pool_.get()));
  store->post_index_ = std::move(post);

  store->path_ = path;
  store->next_nonce_ = prg::kFirstMutationNonce;
  SSDB_ASSIGN_OR_RETURN(
      store->columns_,
      colstore::ColumnStore::Create(ColumnStorePath(path),
                                    options.buffer_pool_pages));
  SSDB_RETURN_IF_ERROR(store->SaveRoots());
  return store;
}

StatusOr<std::unique_ptr<DiskNodeStore>> DiskNodeStore::Open(
    const std::string& path, const DiskStoreOptions& options) {
  auto store = std::unique_ptr<DiskNodeStore>(new DiskNodeStore());
  SSDB_ASSIGN_OR_RETURN(store->pager_, Pager::Open(path, false));
  PageId catalog_page = static_cast<PageId>(store->pager_->GetMetaSlot(0));
  if (catalog_page == 0) {
    return Status::Corruption(path + " has no catalog");
  }
  store->pool_ = std::make_unique<BufferPool>(store->pager_.get(),
                                              options.buffer_pool_pages);
  SSDB_ASSIGN_OR_RETURN(Catalog catalog,
                        Catalog::Load(store->pool_.get(), catalog_page));
  store->catalog_ = std::move(catalog);

  SSDB_ASSIGN_OR_RETURN(uint64_t heap_first, store->catalog_->Get(kHeapFirst));
  SSDB_ASSIGN_OR_RETURN(uint64_t heap_last, store->catalog_->Get(kHeapLast));
  SSDB_ASSIGN_OR_RETURN(
      HeapFile heap,
      HeapFile::Open(store->pool_.get(), static_cast<PageId>(heap_first),
                     static_cast<PageId>(heap_last)));
  store->heap_ = std::move(heap);

  SSDB_ASSIGN_OR_RETURN(uint64_t pre_root, store->catalog_->Get(kPreRoot));
  store->pre_index_ =
      BTree::Open(store->pool_.get(), static_cast<PageId>(pre_root));
  SSDB_ASSIGN_OR_RETURN(uint64_t parent_root,
                        store->catalog_->Get(kParentRoot));
  store->parent_index_ =
      BTree::Open(store->pool_.get(), static_cast<PageId>(parent_root));
  SSDB_ASSIGN_OR_RETURN(uint64_t post_root, store->catalog_->Get(kPostRoot));
  store->post_index_ =
      BTree::Open(store->pool_.get(), static_cast<PageId>(post_root));

  store->node_count_ = store->catalog_->GetOr(kNodeCount, 0);
  store->payload_bytes_ = store->catalog_->GetOr(kPayloadBytes, 0);
  store->structure_bytes_ = store->catalog_->GetOr(kStructureBytes, 0);
  store->version_ = store->catalog_->GetOr(kDocVersion, 0);
  store->next_nonce_ =
      store->catalog_->GetOr(kNextNonce, prg::kFirstMutationNonce);

  store->path_ = path;
  // Pre-§12 databases have no column store; their blobs are in-row and
  // GetColumns falls back accordingly.
  if (FileExists(ColumnStorePath(path))) {
    SSDB_ASSIGN_OR_RETURN(
        store->columns_,
        colstore::ColumnStore::Open(ColumnStorePath(path),
                                    options.buffer_pool_pages));
  }

  // Crash recovery (DESIGN.md §12): a journal on disk is a mutation that
  // prepared but never heard commit/abort. If the catalog already shows the
  // txn committed, the crash hit between sync and unlink — the journal is
  // stale. Otherwise surface it as pending for the coordinator's recovery
  // sweep. A torn or corrupt journal can only come from a prepare that
  // never acked, so discarding it is safe.
  const std::string journal = store->JournalPath();
  if (FileExists(journal)) {
    StatusOr<std::string> contents = ReadFileToString(journal);
    SSDB_RETURN_IF_ERROR(contents.status());
    bool keep = false;
    std::string_view data(*contents);
    if (data.size() > kJournalMagicBytes + 4 &&
        data.substr(0, kJournalMagicBytes) == kJournalMagic) {
      std::string_view payload =
          data.substr(kJournalMagicBytes, data.size() - kJournalMagicBytes - 4);
      std::string_view tail = data.substr(data.size() - 4);
      uint32_t stored = 0;
      if (GetFixed32(&tail, &stored).ok() && stored == Fnv1a(payload)) {
        uint64_t txn = 0;
        std::string_view plan_bytes;
        if (GetVarint64(&payload, &txn).ok() &&
            GetLengthPrefixed(&payload, &plan_bytes).ok()) {
          StatusOr<MutationPlan> plan = DecodeMutationPlan(plan_bytes);
          if (plan.ok() && txn > store->version_) {
            store->pending_txn_ = txn;
            store->pending_plan_ = std::move(*plan);
            keep = true;
          }
        }
      }
    }
    if (!keep) {
      SSDB_LOG(INFO) << "dropping stale or torn mutation journal " << journal;
      SSDB_RETURN_IF_ERROR(RemoveFileIfExists(journal));
    }
  }
  return store;
}

DiskNodeStore::~DiskNodeStore() {
  Status s = Flush();
  if (!s.ok()) {
    SSDB_LOG(ERROR) << "DiskNodeStore flush on close failed: " << s.ToString();
  }
}

Status DiskNodeStore::SaveRoots() {
  catalog_->Set(kHeapFirst, heap_->first_page());
  catalog_->Set(kHeapLast, heap_->last_page());
  catalog_->Set(kPreRoot, pre_index_->root());
  catalog_->Set(kParentRoot, parent_index_->root());
  catalog_->Set(kPostRoot, post_index_->root());
  catalog_->Set(kNodeCount, node_count_);
  catalog_->Set(kPayloadBytes, payload_bytes_);
  catalog_->Set(kStructureBytes, structure_bytes_);
  catalog_->Set(kDocVersion, version_);
  catalog_->Set(kNextNonce, next_nonce_);
  return catalog_->Save();
}

Status DiskNodeStore::Insert(const NodeRow& row) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return InsertLocked(row);
}

Status DiskNodeStore::InsertLocked(const NodeRow& row) {
  if (row.pre == 0) {
    return Status::InvalidArgument("pre numbering starts at 1");
  }
  // Column-store layout (DESIGN.md §12): the heap row keeps the fixed
  // columns; the §8/§9 blobs go to the column store keyed by share nonce,
  // which is what frees the row from the one-page record ceiling.
  std::string encoded;
  if (columns_ != nullptr && (!row.agg.empty() || !row.verify.empty())) {
    NodeRow stripped = row;
    std::string agg = std::move(stripped.agg);
    std::string verify = std::move(stripped.verify);
    stripped.agg.clear();
    stripped.verify.clear();
    encoded = EncodeNodeRow(stripped);
    if (!agg.empty()) {
      SSDB_RETURN_IF_ERROR(
          columns_->Put(colstore::Family::kAgg, row.ShareNonce(), agg));
    }
    if (!verify.empty()) {
      SSDB_RETURN_IF_ERROR(
          columns_->Put(colstore::Family::kVerify, row.ShareNonce(), verify));
    }
  } else {
    encoded = EncodeNodeRow(row);
  }
  SSDB_ASSIGN_OR_RETURN(RecordId rid, heap_->Append(encoded));
  // AlreadyExists here means a duplicate pre value.
  SSDB_RETURN_IF_ERROR(pre_index_->Insert(row.pre, rid));
  SSDB_RETURN_IF_ERROR(
      parent_index_->Insert(CompositeKey(row.parent, row.pre), rid));
  SSDB_RETURN_IF_ERROR(
      post_index_->Insert(CompositeKey(row.post, row.pre), rid));
  ++node_count_;
  payload_bytes_ += encoded.size();
  structure_bytes_ += encoded.size() - row.share.size();
  return Status::OK();
}

StatusOr<NodeRow> DiskNodeStore::FetchRow(RecordId rid) {
  SSDB_ASSIGN_OR_RETURN(std::string record, heap_->Get(rid));
  return DecodeNodeRow(record);
}

Status DiskNodeStore::AttachColumns(NodeRow* row) {
  if (columns_ == nullptr) return Status::OK();  // in-row layout
  StatusOr<std::string> agg =
      columns_->Get(colstore::Family::kAgg, row->ShareNonce());
  if (agg.ok()) {
    row->agg = std::move(*agg);
  } else if (!agg.status().IsNotFound()) {
    return agg.status();
  }
  StatusOr<std::string> verify =
      columns_->Get(colstore::Family::kVerify, row->ShareNonce());
  if (verify.ok()) {
    row->verify = std::move(*verify);
  } else if (!verify.status().IsNotFound()) {
    return verify.status();
  }
  return Status::OK();
}

StatusOr<NodeRow> DiskNodeStore::GetByPre(uint32_t pre) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SSDB_ASSIGN_OR_RETURN(uint64_t rid, pre_index_->Get(pre));
  SSDB_ASSIGN_OR_RETURN(NodeRow row, FetchRow(rid));
  SSDB_RETURN_IF_ERROR(AttachColumns(&row));
  return row;
}

Status DiskNodeStore::VisitByPre(
    uint32_t pre, const std::function<void(const NodeRow&)>& fn) {
  NodeRow row;
  {
    // Fixed columns only: the column store is never touched, so a share
    // read costs one index descent and one heap record (DESIGN.md §12).
    std::shared_lock<std::shared_mutex> lock(mu_);
    SSDB_ASSIGN_OR_RETURN(uint64_t rid, pre_index_->Get(pre));
    SSDB_ASSIGN_OR_RETURN(row, FetchRow(rid));
  }
  fn(row);
  return Status::OK();
}

StatusOr<NodeRow> DiskNodeStore::GetRoot() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Root is the unique row with parent == 0: composite keys [0, 1<<32).
  RecordId rid = kInvalidRecordId;
  SSDB_RETURN_IF_ERROR(parent_index_->Scan(
      0, uint64_t{1} << 32, [&](uint64_t, uint64_t value) {
        rid = value;
        return false;  // first match is the root
      }));
  if (rid == kInvalidRecordId) return Status::NotFound("no root row");
  SSDB_ASSIGN_OR_RETURN(NodeRow row, FetchRow(rid));
  SSDB_RETURN_IF_ERROR(AttachColumns(&row));
  return row;
}

StatusOr<std::vector<NodeRow>> DiskNodeStore::GetChildren(
    uint32_t parent_pre) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<RecordId> rids;
  SSDB_RETURN_IF_ERROR(parent_index_->Scan(
      CompositeKey(parent_pre, 0), CompositeKey(parent_pre + 1, 0),
      [&](uint64_t, uint64_t value) {
        rids.push_back(value);
        return true;
      }));
  std::vector<NodeRow> rows;
  rows.reserve(rids.size());
  for (RecordId rid : rids) {
    SSDB_ASSIGN_OR_RETURN(NodeRow row, FetchRow(rid));
    rows.push_back(std::move(row));
  }
  return rows;
}

Status DiskNodeStore::ScanDescendants(
    uint32_t pre, uint32_t post,
    const std::function<bool(const NodeRow&)>& fn) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Descendants are the contiguous pre range right after `pre`; the first
  // row with post > post is the first node outside the subtree, so the scan
  // stops without touching the rest of the index.
  Status inner = Status::OK();
  SSDB_RETURN_IF_ERROR(pre_index_->Scan(
      static_cast<uint64_t>(pre) + 1, UINT64_MAX,
      [&](uint64_t, uint64_t rid) {
        StatusOr<NodeRow> row = FetchRow(rid);
        if (!row.ok()) {
          inner = row.status();
          return false;
        }
        if (row->post > post) return false;  // left the subtree
        return fn(*row);
      }));
  return inner;
}

StatusOr<uint64_t> DiskNodeStore::NodeCount() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return node_count_;
}

StatusOr<StorageStats> DiskNodeStore::Stats() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  StorageStats stats;
  stats.node_count = node_count_;
  SSDB_ASSIGN_OR_RETURN(uint64_t heap_pages, heap_->PageCount());
  stats.data_bytes = heap_pages * kPageSize;
  SSDB_ASSIGN_OR_RETURN(uint64_t pre_pages, pre_index_->PageCount());
  SSDB_ASSIGN_OR_RETURN(uint64_t parent_pages, parent_index_->PageCount());
  SSDB_ASSIGN_OR_RETURN(uint64_t post_pages, post_index_->PageCount());
  stats.index_bytes = (pre_pages + parent_pages + post_pages) * kPageSize;
  stats.file_bytes = pager_->file_bytes();
  stats.payload_bytes = payload_bytes_;
  stats.structure_bytes = structure_bytes_;
  if (columns_ != nullptr) {
    colstore::ColumnStoreStats cols = columns_->Stats();
    stats.payload_bytes += cols.blob_bytes;
    stats.file_bytes += cols.file_bytes;
  }
  return stats;
}

Status DiskNodeStore::Flush() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (catalog_.has_value()) {
    SSDB_RETURN_IF_ERROR(SaveRoots());
  }
  if (pool_ != nullptr) {
    SSDB_RETURN_IF_ERROR(pool_->FlushAll());
  }
  if (pager_ != nullptr) {
    SSDB_RETURN_IF_ERROR(pager_->Sync());
  }
  if (columns_ != nullptr) {
    SSDB_RETURN_IF_ERROR(columns_->Flush());
  }
  return Status::OK();
}

colstore::ColumnStoreStats DiskNodeStore::column_stats() const {
  if (columns_ == nullptr) return {};
  return columns_->Stats();
}

StatusOr<ColumnBlobs> DiskNodeStore::GetColumns(uint32_t pre) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SSDB_ASSIGN_OR_RETURN(uint64_t rid, pre_index_->Get(pre));
  SSDB_ASSIGN_OR_RETURN(NodeRow row, FetchRow(rid));
  SSDB_RETURN_IF_ERROR(AttachColumns(&row));
  ColumnBlobs blobs;
  blobs.agg = std::move(row.agg);
  blobs.verify = std::move(row.verify);
  return blobs;
}

// --- Two-phase mutation protocol (DESIGN.md §12) -----------------------------

std::string DiskNodeStore::JournalPath() const { return path_ + ".journal"; }

StatusOr<MutationState> DiskNodeStore::GetMutationState() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MutationState state;
  state.version = version_;
  state.next_nonce = next_nonce_;
  state.pending_txn = pending_txn_;
  return state;
}

Status DiskNodeStore::WriteJournalLocked(uint64_t txn,
                                         const MutationPlan& plan) {
  std::string payload;
  PutVarint64(&payload, txn);
  PutLengthPrefixed(&payload, EncodeMutationPlan(plan));
  std::string contents(kJournalMagic, kJournalMagicBytes);
  contents += payload;
  PutFixed32(&contents, Fnv1a(payload));
  return WriteFileDurable(JournalPath(), contents);
}

Status DiskNodeStore::PrepareMutation(uint64_t txn, const MutationPlan& plan) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (version_ >= txn) return Status::OK();  // already committed; idempotent
  SSDB_RETURN_IF_ERROR(ValidateMutationPlan(plan));
  if (plan.base_version != version_) {
    return Status::FailedPrecondition(
        "mutation planned against version " +
        std::to_string(plan.base_version) + " but the store is at version " +
        std::to_string(version_) + " (re-plan and retry)");
  }
  if (txn != plan.base_version + 1) {
    return Status::InvalidArgument("mutation txn must be base_version + 1");
  }
  if (pending_txn_ != 0 && pending_txn_ != txn) {
    return Status::FailedPrecondition(
        "another mutation (txn " + std::to_string(pending_txn_) +
        ") is prepared and undecided");
  }
  if (plan.next_nonce < next_nonce_) {
    return Status::InvalidArgument(
        "mutation nonce watermark moves backwards");
  }
  SSDB_RETURN_IF_ERROR(WriteJournalLocked(txn, plan));
  pending_txn_ = txn;
  pending_plan_ = plan;
  return Status::OK();
}

Status DiskNodeStore::CommitMutation(uint64_t txn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (version_ >= txn) return Status::OK();  // idempotent re-drive
  if (pending_txn_ != txn) {
    return Status::FailedPrecondition(
        "no prepared mutation for txn " + std::to_string(txn));
  }
  SSDB_RETURN_IF_ERROR(ApplyPlanLocked(pending_plan_));
  version_ = txn;
  next_nonce_ = std::max(next_nonce_, pending_plan_.next_nonce);
  // Make the applied state durable before dropping the journal: a crash
  // anywhere before the unlink re-presents the txn as pending, and the
  // version check above makes the re-driven commit a no-op.
  SSDB_RETURN_IF_ERROR(SaveRoots());
  SSDB_RETURN_IF_ERROR(pool_->FlushAll());
  SSDB_RETURN_IF_ERROR(pager_->Sync());
  if (columns_ != nullptr) {
    SSDB_RETURN_IF_ERROR(columns_->Flush());
  }
  SSDB_RETURN_IF_ERROR(RemoveFileIfExists(JournalPath()));
  pending_txn_ = 0;
  pending_plan_ = MutationPlan();
  return Status::OK();
}

Status DiskNodeStore::AbortMutation(uint64_t txn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (pending_txn_ == txn) {
    SSDB_RETURN_IF_ERROR(RemoveFileIfExists(JournalPath()));
    pending_txn_ = 0;
    pending_plan_ = MutationPlan();
    return Status::OK();
  }
  if (version_ >= txn) {
    return Status::FailedPrecondition(
        "txn " + std::to_string(txn) + " already committed; cannot abort");
  }
  return Status::OK();  // nothing prepared — an abort of a no-op is a no-op
}

Status DiskNodeStore::EraseRowLocked(uint32_t pre) {
  StatusOr<uint64_t> rid = pre_index_->Get(pre);
  if (!rid.ok()) {
    if (rid.status().IsNotFound()) return Status::OK();
    return rid.status();
  }
  SSDB_ASSIGN_OR_RETURN(std::string record, heap_->Get(*rid));
  SSDB_ASSIGN_OR_RETURN(NodeRow row, DecodeNodeRow(record));
  SSDB_RETURN_IF_ERROR(heap_->Delete(*rid));
  SSDB_RETURN_IF_ERROR(pre_index_->Delete(pre));
  SSDB_RETURN_IF_ERROR(
      parent_index_->Delete(CompositeKey(row.parent, row.pre)));
  SSDB_RETURN_IF_ERROR(post_index_->Delete(CompositeKey(row.post, row.pre)));
  if (columns_ != nullptr) {
    SSDB_RETURN_IF_ERROR(
        columns_->Erase(colstore::Family::kAgg, row.ShareNonce()));
    SSDB_RETURN_IF_ERROR(
        columns_->Erase(colstore::Family::kVerify, row.ShareNonce()));
  }
  --node_count_;
  payload_bytes_ -= record.size();
  structure_bytes_ -= record.size() - row.share.size();
  return Status::OK();
}

Status DiskNodeStore::ApplyPlanLocked(const MutationPlan& plan) {
  // 1. Erase the deleted subtree's pre range.
  if (plan.erase_lo <= plan.erase_hi) {
    std::vector<uint32_t> victims;
    SSDB_RETURN_IF_ERROR(pre_index_->Scan(
        plan.erase_lo, static_cast<uint64_t>(plan.erase_hi) + 1,
        [&](uint64_t key, uint64_t) {
          victims.push_back(static_cast<uint32_t>(key));
          return true;
        }));
    for (uint32_t pre : victims) {
      SSDB_RETURN_IF_ERROR(EraseRowLocked(pre));
    }
  }

  // 2. Shift the tail: every surviving row with pre > shift_pre_gt moves by
  // shift_delta (pre and post together — see storage/mutation.h for why the
  // two shift by the same amount); parent pointers above the gap follow. A
  // row shifted off its encode position for the first time records its
  // original pre as its nonce, keeping its untouched shares and blobs
  // addressable. Old index entries are all removed before any new ones go
  // in, so the moving key ranges never collide.
  if (plan.shift_delta != 0) {
    std::vector<std::pair<uint64_t, NodeRow>> moved;  // old rid, old row
    Status fold_status = Status::OK();
    SSDB_RETURN_IF_ERROR(pre_index_->Scan(
        static_cast<uint64_t>(plan.shift_pre_gt) + 1, UINT64_MAX,
        [&](uint64_t, uint64_t rid) {
          StatusOr<std::string> record = heap_->Get(rid);
          if (!record.ok()) {
            fold_status = record.status();
            return false;
          }
          StatusOr<NodeRow> row = DecodeNodeRow(*record);
          if (!row.ok()) {
            fold_status = row.status();
            return false;
          }
          moved.emplace_back(rid, std::move(*row));
          return true;
        }));
    SSDB_RETURN_IF_ERROR(fold_status);
    for (const auto& [rid, row] : moved) {
      SSDB_RETURN_IF_ERROR(heap_->Delete(rid));
      SSDB_RETURN_IF_ERROR(pre_index_->Delete(row.pre));
      SSDB_RETURN_IF_ERROR(
          parent_index_->Delete(CompositeKey(row.parent, row.pre)));
      SSDB_RETURN_IF_ERROR(
          post_index_->Delete(CompositeKey(row.post, row.pre)));
    }
    for (auto& [rid, row] : moved) {
      const size_t old_size = EncodeNodeRow(row).size();
      if (row.nonce == 0) row.nonce = row.pre;
      row.pre = static_cast<uint32_t>(row.pre + plan.shift_delta);
      row.post = static_cast<uint32_t>(row.post + plan.shift_delta);
      if (row.parent > plan.shift_pre_gt) {
        row.parent = static_cast<uint32_t>(row.parent + plan.shift_delta);
      }
      std::string encoded = EncodeNodeRow(row);
      SSDB_ASSIGN_OR_RETURN(RecordId new_rid, heap_->Append(encoded));
      SSDB_RETURN_IF_ERROR(pre_index_->Insert(row.pre, new_rid));
      SSDB_RETURN_IF_ERROR(
          parent_index_->Insert(CompositeKey(row.parent, row.pre), new_rid));
      SSDB_RETURN_IF_ERROR(
          post_index_->Insert(CompositeKey(row.post, row.pre), new_rid));
      payload_bytes_ += encoded.size() - old_size;
      structure_bytes_ += encoded.size() - old_size;
    }
  }

  // 3. Upsert the re-shared rows (root path + any inserted subtree).
  for (const NodeRow& row : plan.upserts) {
    SSDB_RETURN_IF_ERROR(EraseRowLocked(row.pre));
    SSDB_RETURN_IF_ERROR(InsertLocked(row));
  }
  return Status::OK();
}

}  // namespace ssdb::storage
