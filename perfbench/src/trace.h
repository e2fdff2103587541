// Outside-in tracing for the benchmark: forwarding wrappers around the
// public interfaces of each layer (the client rpc::Channel, the slice
// ServerFilter stubs, the server-side ServerFilter and the NodeStore under
// it). A wrapper only times and counts a call, then forwards it; it never
// changes arguments or results, so a traced deployment answers exactly like
// an untraced one (the benchmark checks this on every traced run).
//
// Spans live in a fixed-capacity in-memory log and are written out at exit.
// A span carries numeric labels only (method codes, slice and document
// indexes, sizes, row counts) — never tag names, text or unmasked values.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "filter/server_filter.h"
#include "rpc/channel.h"
#include "storage/node_store.h"
#include "util/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kOpRead,
  kOpWrite,
  kSetupXmark,
  kSetupEncode,
  kSetupServers,
  kSetupRouter,
  kStub,     // a slice ServerFilter stub call (client side)
  kSend,     // rpc::Channel::Send
  kReceive,  // rpc::Channel::Receive / ReceiveInto
  kServer,   // server-side ServerFilter call
  kStore,    // NodeStore call
};

// One ServerFilter entry point; the session overloads share their plain
// twin's code.
enum class Method : uint8_t {
  kRoot,
  kGetNode,
  kChildren,
  kChildrenBatch,
  kOpenCursor,
  kNextNodes,
  kCloseCursor,
  kEndSession,
  kEvalAt,
  kEvalAtBatch,
  kEvalPointsBatch,
  kFetchShare,
  kFetchShareBatch,
  kPartialAggregate,
  kPartialAggregateVerified,
  kFetchSealed,
  kMutationStates,
  kPrepareMutation,
  kCommitMutation,
  kAbortMutation,
  kFetchColumnsBatch,
  kNodeCount,
};

struct Span {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t parent = 0;  // span id of the caller, 0 when it is not known
  uint64_t op = 0;      // benchmark operation id, 0 outside an operation
  uint32_t thread = 0;  // small per-process thread index
  SpanKind kind = SpanKind::kStub;
  uint64_t arg0 = 0;  // numeric labels; meaning depends on kind (README.md)
  uint64_t arg1 = 0;
};

// Lock-free bounded span log: Reserve() hands out a slot when a span
// begins (so children can name it as parent), Fill() writes it when the
// span ends. Spans past the capacity are counted and dropped; the layer
// totals below are kept for every call regardless.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {}

  // 1-based span id, or 0 when the log is full or disabled.
  uint64_t Reserve();
  void Fill(uint64_t id, const Span& span);
  // The log's memory is taken on first enable, so untraced runs do not
  // pay for it. Call while no span is being recorded.
  void set_enabled(bool enabled);

  // Writes every filled span as one tab-separated line. Only call once all
  // recording threads are idle.
  ssdb::Status WriteTsv(const std::string& path) const;
  uint64_t recorded() const;
  uint64_t dropped() const { return dropped_.load(); }

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> enabled_{false};
};

SpanLog& Spans();
uint32_t ThreadIndex();

// What the single active client is doing; server-side totals are kept per
// bucket. With several clients only reads run concurrently, and the
// coordinator switches the bucket at phase boundaries.
enum class Bucket : uint8_t { kOther, kRead, kWrite, kCount };

void SetBucket(Bucket bucket);
Bucket CurrentBucket();
// Operation id server-side spans are labelled with (0 = unknown, e.g. when
// several clients share the servers).
void SetServerOp(uint64_t op);
uint64_t ServerOp();

// Server-side layer totals for one bucket.
struct ServerTotals {
  std::atomic<int64_t> filter_ns{0};    // inside server ServerFilter calls
  std::atomic<int64_t> store_ns{0};     // inside NodeStore calls ...
  std::atomic<int64_t> visitor_ns{0};   // ... of which in server visitors
  std::atomic<uint64_t> rows{0};        // rows a store call produced
  std::atomic<int64_t> prepare_ns{0};   // NodeStore::PrepareMutation
  std::atomic<int64_t> commit_ns{0};    // NodeStore::CommitMutation
};

struct ServerTotalsSnapshot {
  int64_t filter_ns = 0;
  int64_t store_ns = 0;
  int64_t visitor_ns = 0;
  uint64_t rows = 0;
  int64_t prepare_ns = 0;
  int64_t commit_ns = 0;
};

ServerTotals& ServerTotalsFor(Bucket bucket);
ServerTotalsSnapshot Snapshot(const ServerTotals& totals);

// One slice stub call, as seen by the client.
struct StubCall {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t channel_ns = 0;  // of which inside the stub's channel
  uint32_t doc = 0;
  uint32_t slice = 0;
  Method method = Method::kRoot;
};

// Per-client record of the operation in flight. Stub calls arrive from the
// client thread, the fan-out filter's workers and the router's per-document
// threads, hence the mutex.
class ClientTrace {
 public:
  void BeginOp(uint64_t op, uint64_t span);
  // The calls made since BeginOp; clears the record.
  std::vector<StubCall> TakeCalls();

  void AddCall(const StubCall& call);
  void CountMessage() { messages_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t messages() const { return messages_.load(); }
  uint64_t op() const { return op_.load(std::memory_order_relaxed); }
  uint64_t op_span() const { return op_span_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> op_{0};
  std::atomic<uint64_t> op_span_{0};
  std::atomic<uint64_t> messages_{0};
  std::mutex mu_;
  std::vector<StubCall> calls_;
};

// Times Send/Receive of a client channel and forwards every Channel
// virtual.
class TracedChannel : public ssdb::rpc::Channel {
 public:
  TracedChannel(std::unique_ptr<ssdb::rpc::Channel> inner, ClientTrace* trace,
                uint32_t slice)
      : inner_(std::move(inner)), trace_(trace), slice_(slice) {}

  ssdb::Status Send(std::string_view message) override;
  ssdb::StatusOr<std::string> Receive() override;
  ssdb::Status ReceiveInto(std::string* message) override;
  void Close() override { inner_->Close(); }
  ssdb::StatusOr<size_t> SendNonBlocking(std::string_view message,
                                         size_t offset) override;
  size_t SendCompleteOffset(std::string_view message) const override {
    return inner_->SendCompleteOffset(message);
  }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }
  int PollFd() const override { return inner_->PollFd(); }
  ssdb::Status SetIoTimeout(int seconds) override {
    return inner_->SetIoTimeout(seconds);
  }
  ssdb::Status SetSendBufferBytes(int bytes) override {
    return inner_->SetSendBufferBytes(bytes);
  }

 private:
  std::unique_ptr<ssdb::rpc::Channel> inner_;
  ClientTrace* trace_;
  uint32_t slice_;
};

// Where a traced ServerFilter reports its calls: a client-side slice stub
// or the server side.
class CallSink {
 public:
  virtual ~CallSink() = default;
  // Returns a token handed back to Exit (the span id).
  virtual uint64_t Enter() = 0;
  virtual void Exit(Method method, int64_t begin_ns, int64_t end_ns,
                    uint64_t token) = 0;
};

class StubSink : public CallSink {
 public:
  StubSink(ClientTrace* trace, uint32_t doc, uint32_t slice)
      : trace_(trace), doc_(doc), slice_(slice) {}
  uint64_t Enter() override;
  void Exit(Method method, int64_t begin_ns, int64_t end_ns,
            uint64_t token) override;

 private:
  ClientTrace* trace_;
  uint32_t doc_;
  uint32_t slice_;
};

class ServerSink : public CallSink {
 public:
  explicit ServerSink(uint32_t server) : server_(server) {}
  uint64_t Enter() override;
  void Exit(Method method, int64_t begin_ns, int64_t end_ns,
            uint64_t token) override;

 private:
  uint32_t server_;
};

// Forwards every ServerFilter virtual — the session and mutation overloads
// included, so nothing falls through to a base-class default — timing each
// call into a sink.
class TracedFilter : public ssdb::filter::ServerFilter {
 public:
  TracedFilter(ssdb::filter::ServerFilter* inner, std::unique_ptr<CallSink> sink)
      : inner_(inner), sink_(std::move(sink)) {}

  using NodeMeta = ssdb::filter::NodeMeta;
  using SessionId = ssdb::filter::SessionId;
  template <typename T>
  using StatusOr = ssdb::StatusOr<T>;
  using Status = ssdb::Status;

  StatusOr<NodeMeta> Root() override;
  StatusOr<NodeMeta> GetNode(uint32_t pre) override;
  StatusOr<std::vector<NodeMeta>> Children(uint32_t pre) override;
  StatusOr<std::vector<std::vector<NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> OpenDescendantCursor(uint32_t pre,
                                          uint32_t post) override;
  StatusOr<std::vector<NodeMeta>> NextNodes(uint64_t cursor,
                                            size_t max_batch) override;
  Status CloseCursor(uint64_t cursor) override;
  StatusOr<uint64_t> OpenDescendantCursor(SessionId session, uint32_t pre,
                                          uint32_t post) override;
  StatusOr<std::vector<NodeMeta>> NextNodes(SessionId session,
                                            uint64_t cursor,
                                            size_t max_batch) override;
  Status CloseCursor(SessionId session, uint64_t cursor) override;
  void EndSession(SessionId session) override;
  uint64_t OpenCursorCount() const override {
    return inner_->OpenCursorCount();
  }
  StatusOr<ssdb::gf::Elem> EvalAt(uint32_t pre, ssdb::gf::Elem t) override;
  StatusOr<std::vector<ssdb::gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, ssdb::gf::Elem t) override;
  StatusOr<std::vector<ssdb::gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<ssdb::gf::Elem>& points) override;
  StatusOr<ssdb::gf::RingElem> FetchShare(uint32_t pre) override;
  StatusOr<std::vector<ssdb::gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<std::vector<ssdb::agg::Word>> PartialAggregate(
      const ssdb::agg::Spec& spec) override;
  StatusOr<std::vector<ssdb::agg::Word>> PartialAggregate(
      SessionId session, const ssdb::agg::Spec& spec) override;
  StatusOr<std::vector<ssdb::agg::VerifiedPartial>> PartialAggregateVerified(
      const ssdb::agg::Spec& spec) override;
  StatusOr<std::vector<ssdb::agg::VerifiedPartial>> PartialAggregateVerified(
      SessionId session, const ssdb::agg::Spec& spec) override;
  StatusOr<std::string> FetchSealed(uint32_t pre) override;
  StatusOr<std::vector<ssdb::storage::MutationState>> MutationStates()
      override;
  Status PrepareMutation(
      uint64_t txn,
      const std::vector<ssdb::storage::MutationPlan>& plans) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;
  StatusOr<std::vector<ssdb::storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> NodeCount() override;
  uint64_t RoundTrips() const override { return inner_->RoundTrips(); }
  size_t ServerCount() const override { return inner_->ServerCount(); }
  std::vector<uint64_t> PerServerRoundTrips() const override {
    return inner_->PerServerRoundTrips();
  }
  double StragglerSeconds() const override {
    return inner_->StragglerSeconds();
  }

 private:
  template <typename F>
  auto Timed(Method method, F&& call);

  ssdb::filter::ServerFilter* inner_;
  std::unique_ptr<CallSink> sink_;
};

// Forwards every NodeStore virtual, timing each call and — for the
// visitor entry points — the time spent inside the caller's callback, so
// store time can be told apart from the server work done per row.
class TracedStore : public ssdb::storage::NodeStore {
 public:
  using NodeRow = ssdb::storage::NodeRow;
  using Status = ssdb::Status;
  template <typename T>
  using StatusOr = ssdb::StatusOr<T>;

  explicit TracedStore(ssdb::storage::NodeStore* inner) : inner_(inner) {}

  Status Insert(const NodeRow& row) override;
  StatusOr<NodeRow> GetByPre(uint32_t pre) override;
  Status VisitByPre(uint32_t pre,
                    const std::function<void(const NodeRow&)>& fn) override;
  StatusOr<NodeRow> GetRoot() override;
  StatusOr<std::vector<NodeRow>> GetChildren(uint32_t parent_pre) override;
  Status VisitChildren(uint32_t parent_pre,
                       const std::function<void(const NodeRow&)>& fn) override;
  Status ScanDescendants(uint32_t pre, uint32_t post,
                         const std::function<bool(const NodeRow&)>& fn)
      override;
  StatusOr<uint64_t> NodeCount() override;
  StatusOr<ssdb::storage::StorageStats> Stats() override;
  Status Flush() override;
  StatusOr<ssdb::storage::ColumnBlobs> GetColumns(uint32_t pre) override;
  StatusOr<ssdb::storage::MutationState> GetMutationState() override;
  Status PrepareMutation(uint64_t txn,
                         const ssdb::storage::MutationPlan& plan) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;

 private:
  // Times one store call; `visitor_ns`/`rows` are filled by the visitor
  // wrappers, `rows` may be preset for calls returning rows.
  struct CallScope;

  ssdb::storage::NodeStore* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
