#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <utility>

namespace perfbench {
namespace {

using ssdb::Status;
using ssdb::StatusOr;

std::atomic<uint32_t> g_next_thread{0};
std::atomic<uint8_t> g_bucket{static_cast<uint8_t>(Bucket::kOther)};
std::atomic<uint64_t> g_server_op{0};
std::array<ServerTotals, static_cast<size_t>(Bucket::kCount)> g_totals;
const int64_t g_epoch_ns = NowNs();

// Per-thread call context. Stub calls and server calls do not nest on one
// thread, so one slot each is enough.
thread_local int64_t t_channel_ns = 0;       // channel time on this thread
thread_local int64_t t_stub_channel_ns = 0;  // t_channel_ns at stub entry
thread_local uint64_t t_stub_span = 0;       // parent of channel spans
thread_local uint64_t t_server_span = 0;     // parent of store spans

// Store entry points, the arg0 label of store spans.
enum StoreMethod : uint64_t {
  kInsert,
  kGetByPre,
  kVisitByPre,
  kGetRoot,
  kGetChildren,
  kVisitChildren,
  kScanDescendants,
  kStoreNodeCount,
  kStats,
  kFlush,
  kGetColumns,
  kGetMutationState,
  kStorePrepare,
  kStoreCommit,
  kStoreAbort,
};

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOpRead: return "op.read";
    case SpanKind::kOpWrite: return "op.write";
    case SpanKind::kSetupXmark: return "setup.xmark";
    case SpanKind::kSetupEncode: return "setup.encode";
    case SpanKind::kSetupServers: return "setup.servers";
    case SpanKind::kSetupRouter: return "setup.router";
    case SpanKind::kStub: return "filter.stub";
    case SpanKind::kSend: return "rpc.send";
    case SpanKind::kReceive: return "rpc.receive";
    case SpanKind::kServer: return "filter.server";
    case SpanKind::kStore: return "storage.call";
  }
  return "unknown";
}

}  // namespace

void SpanLog::set_enabled(bool enabled) {
  if (enabled) spans_.resize(capacity_);
  enabled_.store(enabled);
}

uint64_t SpanLog::Reserve() {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  size_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return index + 1;
}

void SpanLog::Fill(uint64_t id, const Span& span) {
  if (id == 0) return;
  spans_[id - 1] = span;
}

uint64_t SpanLog::recorded() const {
  return std::min(next_.load(), spans_.size());
}

Status SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(out,
               "# kind\tbegin_ns\tfinish_ns\tid\tparent\top\tthread\targ0\t"
               "arg1\n");
  size_t count = recorded();
  for (size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;  // reserved by a call that never ended
    std::fprintf(out, "%s\t%lld\t%lld\t%zu\t%llu\t%llu\t%u\t%llu\t%llu\n",
                 SpanKindName(s.kind),
                 static_cast<long long>(s.begin_ns - g_epoch_ns),
                 static_cast<long long>(s.end_ns - g_epoch_ns), i + 1,
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread,
                 static_cast<unsigned long long>(s.arg0),
                 static_cast<unsigned long long>(s.arg1));
  }
  bool ok = std::ferror(out) == 0;
  ok = std::fclose(out) == 0 && ok;
  return ok ? Status::OK() : Status::IOError("short write to " + path);
}

SpanLog& Spans() {
  static SpanLog log(1 << 19);
  return log;
}

uint32_t ThreadIndex() {
  thread_local uint32_t index = g_next_thread.fetch_add(1) + 1;
  return index;
}

void SetBucket(Bucket bucket) { g_bucket.store(static_cast<uint8_t>(bucket)); }
Bucket CurrentBucket() { return static_cast<Bucket>(g_bucket.load()); }
void SetServerOp(uint64_t op) { g_server_op.store(op); }
uint64_t ServerOp() { return g_server_op.load(std::memory_order_relaxed); }

ServerTotals& ServerTotalsFor(Bucket bucket) {
  return g_totals[static_cast<size_t>(bucket)];
}

ServerTotalsSnapshot Snapshot(const ServerTotals& t) {
  ServerTotalsSnapshot s;
  s.filter_ns = t.filter_ns.load();
  s.store_ns = t.store_ns.load();
  s.visitor_ns = t.visitor_ns.load();
  s.rows = t.rows.load();
  s.prepare_ns = t.prepare_ns.load();
  s.commit_ns = t.commit_ns.load();
  return s;
}

// --- ClientTrace -------------------------------------------------------------

void ClientTrace::BeginOp(uint64_t op, uint64_t span) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.clear();
  op_.store(op);
  op_span_.store(span);
}

std::vector<StubCall> ClientTrace::TakeCalls() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(calls_, {});
}

void ClientTrace::AddCall(const StubCall& call) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(call);
}

// --- TracedChannel -----------------------------------------------------------

namespace {

// Times one channel call into the thread's channel clock and the span log.
class ChannelScope {
 public:
  ChannelScope(ClientTrace* trace, SpanKind kind, uint32_t slice)
      : trace_(trace), kind_(kind), slice_(slice), begin_(NowNs()),
        id_(Spans().Reserve()) {}
  ~ChannelScope() {
    int64_t end = NowNs();
    t_channel_ns += end - begin_;
    Span span;
    span.begin_ns = begin_;
    span.end_ns = end;
    span.parent = t_stub_span;
    span.op = trace_->op();
    span.thread = ThreadIndex();
    span.kind = kind_;
    span.arg0 = bytes;
    span.arg1 = slice_;
    Spans().Fill(id_, span);
  }
  uint64_t bytes = 0;

 private:
  ClientTrace* trace_;
  SpanKind kind_;
  uint32_t slice_;
  int64_t begin_;
  uint64_t id_;
};

}  // namespace

Status TracedChannel::Send(std::string_view message) {
  ChannelScope scope(trace_, SpanKind::kSend, slice_);
  scope.bytes = message.size();
  trace_->CountMessage();
  return inner_->Send(message);
}

StatusOr<std::string> TracedChannel::Receive() {
  ChannelScope scope(trace_, SpanKind::kReceive, slice_);
  StatusOr<std::string> message = inner_->Receive();
  if (message.ok()) scope.bytes = message->size();
  return message;
}

Status TracedChannel::ReceiveInto(std::string* message) {
  ChannelScope scope(trace_, SpanKind::kReceive, slice_);
  Status status = inner_->ReceiveInto(message);
  if (status.ok()) scope.bytes = message->size();
  return status;
}

StatusOr<size_t> TracedChannel::SendNonBlocking(std::string_view message,
                                                size_t offset) {
  ChannelScope scope(trace_, SpanKind::kSend, slice_);
  scope.bytes = message.size();
  if (offset == 0) trace_->CountMessage();
  return inner_->SendNonBlocking(message, offset);
}

// --- Sinks -------------------------------------------------------------------

uint64_t StubSink::Enter() {
  uint64_t id = Spans().Reserve();
  t_stub_span = id;
  t_stub_channel_ns = t_channel_ns;
  return id;
}

void StubSink::Exit(Method method, int64_t begin_ns, int64_t end_ns,
                    uint64_t token) {
  StubCall call;
  call.begin_ns = begin_ns;
  call.end_ns = end_ns;
  call.channel_ns = t_channel_ns - t_stub_channel_ns;
  call.doc = doc_;
  call.slice = slice_;
  call.method = method;
  trace_->AddCall(call);
  t_stub_span = 0;
  Span span;
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  span.parent = trace_->op_span();
  span.op = trace_->op();
  span.thread = ThreadIndex();
  span.kind = SpanKind::kStub;
  span.arg0 = static_cast<uint64_t>(method);
  span.arg1 = (static_cast<uint64_t>(doc_) << 16) | slice_;
  Spans().Fill(token, span);
}

uint64_t ServerSink::Enter() {
  t_server_span = Spans().Reserve();
  return t_server_span;
}

void ServerSink::Exit(Method method, int64_t begin_ns, int64_t end_ns,
                      uint64_t token) {
  ServerTotals& totals = ServerTotalsFor(CurrentBucket());
  totals.filter_ns.fetch_add(end_ns - begin_ns, std::memory_order_relaxed);
  t_server_span = 0;
  Span span;
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  span.op = ServerOp();
  span.thread = ThreadIndex();
  span.kind = SpanKind::kServer;
  span.arg0 = static_cast<uint64_t>(method);
  span.arg1 = server_;
  Spans().Fill(token, span);
}

// --- TracedFilter ------------------------------------------------------------

template <typename F>
auto TracedFilter::Timed(Method method, F&& call) {
  int64_t begin = NowNs();
  uint64_t token = sink_->Enter();
  auto result = call();
  sink_->Exit(method, begin, NowNs(), token);
  return result;
}

using ssdb::filter::NodeMeta;
using ssdb::filter::SessionId;

StatusOr<NodeMeta> TracedFilter::Root() {
  return Timed(Method::kRoot, [&] { return inner_->Root(); });
}
StatusOr<NodeMeta> TracedFilter::GetNode(uint32_t pre) {
  return Timed(Method::kGetNode, [&] { return inner_->GetNode(pre); });
}
StatusOr<std::vector<NodeMeta>> TracedFilter::Children(uint32_t pre) {
  return Timed(Method::kChildren, [&] { return inner_->Children(pre); });
}
StatusOr<std::vector<std::vector<NodeMeta>>> TracedFilter::ChildrenBatch(
    const std::vector<uint32_t>& pres) {
  return Timed(Method::kChildrenBatch,
               [&] { return inner_->ChildrenBatch(pres); });
}
StatusOr<uint64_t> TracedFilter::OpenDescendantCursor(uint32_t pre,
                                                      uint32_t post) {
  return Timed(Method::kOpenCursor,
               [&] { return inner_->OpenDescendantCursor(pre, post); });
}
StatusOr<std::vector<NodeMeta>> TracedFilter::NextNodes(uint64_t cursor,
                                                        size_t max_batch) {
  return Timed(Method::kNextNodes,
               [&] { return inner_->NextNodes(cursor, max_batch); });
}
Status TracedFilter::CloseCursor(uint64_t cursor) {
  return Timed(Method::kCloseCursor,
               [&] { return inner_->CloseCursor(cursor); });
}
StatusOr<uint64_t> TracedFilter::OpenDescendantCursor(SessionId session,
                                                      uint32_t pre,
                                                      uint32_t post) {
  return Timed(Method::kOpenCursor, [&] {
    return inner_->OpenDescendantCursor(session, pre, post);
  });
}
StatusOr<std::vector<NodeMeta>> TracedFilter::NextNodes(SessionId session,
                                                        uint64_t cursor,
                                                        size_t max_batch) {
  return Timed(Method::kNextNodes,
               [&] { return inner_->NextNodes(session, cursor, max_batch); });
}
Status TracedFilter::CloseCursor(SessionId session, uint64_t cursor) {
  return Timed(Method::kCloseCursor,
               [&] { return inner_->CloseCursor(session, cursor); });
}
void TracedFilter::EndSession(SessionId session) {
  Timed(Method::kEndSession, [&] {
    inner_->EndSession(session);
    return 0;
  });
}
StatusOr<ssdb::gf::Elem> TracedFilter::EvalAt(uint32_t pre, ssdb::gf::Elem t) {
  return Timed(Method::kEvalAt, [&] { return inner_->EvalAt(pre, t); });
}
StatusOr<std::vector<ssdb::gf::Elem>> TracedFilter::EvalAtBatch(
    const std::vector<uint32_t>& pres, ssdb::gf::Elem t) {
  return Timed(Method::kEvalAtBatch,
               [&] { return inner_->EvalAtBatch(pres, t); });
}
StatusOr<std::vector<ssdb::gf::Elem>> TracedFilter::EvalPointsBatch(
    uint32_t pre, const std::vector<ssdb::gf::Elem>& points) {
  return Timed(Method::kEvalPointsBatch,
               [&] { return inner_->EvalPointsBatch(pre, points); });
}
StatusOr<ssdb::gf::RingElem> TracedFilter::FetchShare(uint32_t pre) {
  return Timed(Method::kFetchShare, [&] { return inner_->FetchShare(pre); });
}
StatusOr<std::vector<ssdb::gf::RingElem>> TracedFilter::FetchShareBatch(
    const std::vector<uint32_t>& pres) {
  return Timed(Method::kFetchShareBatch,
               [&] { return inner_->FetchShareBatch(pres); });
}
StatusOr<std::vector<ssdb::agg::Word>> TracedFilter::PartialAggregate(
    const ssdb::agg::Spec& spec) {
  return Timed(Method::kPartialAggregate,
               [&] { return inner_->PartialAggregate(spec); });
}
StatusOr<std::vector<ssdb::agg::Word>> TracedFilter::PartialAggregate(
    SessionId session, const ssdb::agg::Spec& spec) {
  return Timed(Method::kPartialAggregate,
               [&] { return inner_->PartialAggregate(session, spec); });
}
StatusOr<std::vector<ssdb::agg::VerifiedPartial>>
TracedFilter::PartialAggregateVerified(const ssdb::agg::Spec& spec) {
  return Timed(Method::kPartialAggregateVerified,
               [&] { return inner_->PartialAggregateVerified(spec); });
}
StatusOr<std::vector<ssdb::agg::VerifiedPartial>>
TracedFilter::PartialAggregateVerified(SessionId session,
                                       const ssdb::agg::Spec& spec) {
  return Timed(Method::kPartialAggregateVerified, [&] {
    return inner_->PartialAggregateVerified(session, spec);
  });
}
StatusOr<std::string> TracedFilter::FetchSealed(uint32_t pre) {
  return Timed(Method::kFetchSealed, [&] { return inner_->FetchSealed(pre); });
}
StatusOr<std::vector<ssdb::storage::MutationState>>
TracedFilter::MutationStates() {
  return Timed(Method::kMutationStates,
               [&] { return inner_->MutationStates(); });
}
Status TracedFilter::PrepareMutation(
    uint64_t txn, const std::vector<ssdb::storage::MutationPlan>& plans) {
  return Timed(Method::kPrepareMutation,
               [&] { return inner_->PrepareMutation(txn, plans); });
}
Status TracedFilter::CommitMutation(uint64_t txn) {
  return Timed(Method::kCommitMutation,
               [&] { return inner_->CommitMutation(txn); });
}
Status TracedFilter::AbortMutation(uint64_t txn) {
  return Timed(Method::kAbortMutation,
               [&] { return inner_->AbortMutation(txn); });
}
StatusOr<std::vector<ssdb::storage::ColumnBlobs>>
TracedFilter::FetchColumnsBatch(const std::vector<uint32_t>& pres) {
  return Timed(Method::kFetchColumnsBatch,
               [&] { return inner_->FetchColumnsBatch(pres); });
}
StatusOr<uint64_t> TracedFilter::NodeCount() {
  return Timed(Method::kNodeCount, [&] { return inner_->NodeCount(); });
}

// --- TracedStore -------------------------------------------------------------

struct TracedStore::CallScope {
  explicit CallScope(uint64_t method)
      : method(method), begin(NowNs()),
        id(Spans().Reserve()) {}
  ~CallScope() {
    int64_t end = NowNs();
    ServerTotals& totals = ServerTotalsFor(CurrentBucket());
    totals.store_ns.fetch_add(end - begin, std::memory_order_relaxed);
    totals.visitor_ns.fetch_add(visitor_ns, std::memory_order_relaxed);
    totals.rows.fetch_add(rows, std::memory_order_relaxed);
    if (method == kStorePrepare) {
      totals.prepare_ns.fetch_add(end - begin, std::memory_order_relaxed);
    } else if (method == kStoreCommit) {
      totals.commit_ns.fetch_add(end - begin, std::memory_order_relaxed);
    }
    Span span;
    span.begin_ns = begin;
    span.end_ns = end;
    span.parent = t_server_span;
    span.op = ServerOp();
    span.thread = ThreadIndex();
    span.kind = SpanKind::kStore;
    span.arg0 = method;
    span.arg1 = rows;
    Spans().Fill(id, span);
  }

  // Wraps a visitor so its own time is kept apart from the store's.
  template <typename R>
  std::function<R(const NodeRow&)> Wrap(
      const std::function<R(const NodeRow&)>& fn) {
    return [this, &fn](const NodeRow& row) {
      ++rows;
      int64_t start = NowNs();
      if constexpr (std::is_void_v<R>) {
        fn(row);
        visitor_ns += NowNs() - start;
      } else {
        R keep_going = fn(row);
        visitor_ns += NowNs() - start;
        return keep_going;
      }
    };
  }

  uint64_t method;
  int64_t begin;
  uint64_t id;
  int64_t visitor_ns = 0;
  uint64_t rows = 0;
};

Status TracedStore::Insert(const NodeRow& row) {
  CallScope scope(kInsert);
  return inner_->Insert(row);
}
StatusOr<ssdb::storage::NodeRow> TracedStore::GetByPre(uint32_t pre) {
  CallScope scope(kGetByPre);
  auto row = inner_->GetByPre(pre);
  if (row.ok()) scope.rows = 1;
  return row;
}
Status TracedStore::VisitByPre(uint32_t pre,
                               const std::function<void(const NodeRow&)>& fn) {
  CallScope scope(kVisitByPre);
  return inner_->VisitByPre(pre, scope.Wrap(fn));
}
StatusOr<ssdb::storage::NodeRow> TracedStore::GetRoot() {
  CallScope scope(kGetRoot);
  auto row = inner_->GetRoot();
  if (row.ok()) scope.rows = 1;
  return row;
}
StatusOr<std::vector<ssdb::storage::NodeRow>> TracedStore::GetChildren(
    uint32_t parent_pre) {
  CallScope scope(kGetChildren);
  auto rows = inner_->GetChildren(parent_pre);
  if (rows.ok()) scope.rows = rows->size();
  return rows;
}
Status TracedStore::VisitChildren(
    uint32_t parent_pre, const std::function<void(const NodeRow&)>& fn) {
  CallScope scope(kVisitChildren);
  return inner_->VisitChildren(parent_pre, scope.Wrap(fn));
}
Status TracedStore::ScanDescendants(
    uint32_t pre, uint32_t post,
    const std::function<bool(const NodeRow&)>& fn) {
  CallScope scope(kScanDescendants);
  return inner_->ScanDescendants(pre, post, scope.Wrap(fn));
}
StatusOr<uint64_t> TracedStore::NodeCount() {
  CallScope scope(kStoreNodeCount);
  return inner_->NodeCount();
}
StatusOr<ssdb::storage::StorageStats> TracedStore::Stats() {
  CallScope scope(kStats);
  return inner_->Stats();
}
Status TracedStore::Flush() {
  CallScope scope(kFlush);
  return inner_->Flush();
}
StatusOr<ssdb::storage::ColumnBlobs> TracedStore::GetColumns(uint32_t pre) {
  CallScope scope(kGetColumns);
  auto blobs = inner_->GetColumns(pre);
  if (blobs.ok()) scope.rows = 1;
  return blobs;
}
StatusOr<ssdb::storage::MutationState> TracedStore::GetMutationState() {
  CallScope scope(kGetMutationState);
  return inner_->GetMutationState();
}
Status TracedStore::PrepareMutation(uint64_t txn,
                                    const ssdb::storage::MutationPlan& plan) {
  CallScope scope(kStorePrepare);
  return inner_->PrepareMutation(txn, plan);
}
Status TracedStore::CommitMutation(uint64_t txn) {
  CallScope scope(kStoreCommit);
  return inner_->CommitMutation(txn);
}
Status TracedStore::AbortMutation(uint64_t txn) {
  CallScope scope(kStoreAbort);
  return inner_->AbortMutation(txn);
}

}  // namespace perfbench
