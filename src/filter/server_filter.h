/// ServerFilter (paper §5.2): the operations an untrusted server exposes.
/// It sees only pre/post/parent (stored in the clear, as in the paper's
/// MySQL schema) and *server shares* of the node polynomials — never tag
/// names, the map, the seed, or reconstructed polynomials. See DESIGN.md §3
/// for the matching rules built on top and §6 for the batch entry points.
///
/// LocalServerFilter runs against a NodeStore in-process; RemoteServerFilter
/// (src/rpc/client.h) speaks the same interface over a channel, replacing
/// the paper's Java RMI; MultiServerFilter (src/filter/multi_server_filter.h,
/// DESIGN.md §5) fans out to m share-slice servers and sums their replies.
///
/// Concurrency (DESIGN.md §7): one LocalServerFilter is shared by every
/// connection a concurrent transport dispatches. Every entry point is
/// stateless — the filter keeps nothing per connection between calls — so
/// reads are embarrassingly parallel (the store serializes internally) and
/// a connection that dies leaves nothing behind to reclaim.
///
/// The surface is batch-first: each structure and share read takes a node
/// list, and the one-node Children/EvalAt/FetchShare are base-class
/// conveniences that make a one-element batch call.

#ifndef SSDB_FILTER_SERVER_FILTER_H_
#define SSDB_FILTER_SERVER_FILTER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "agg/columns.h"
#include "gf/ring.h"
#include "storage/mutation.h"
#include "storage/node_store.h"
#include "util/statusor.h"

namespace ssdb::filter {

// Structure-only view of a node (no polynomial data). `nonce` is the PRG
// nonce the node's shares are derived from: 0 means "the pre number", the
// unmutated default; re-shared or shifted rows carry an explicit nonce
// (DESIGN.md §12). Equality deliberately ignores it — two metas describe
// the same structural node regardless of how often it was re-shared.
struct NodeMeta {
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t parent = 0;
  uint64_t nonce = 0;

  uint64_t ShareNonce() const { return nonce != 0 ? nonce : pre; }

  bool operator==(const NodeMeta& other) const {
    return pre == other.pre && post == other.post && parent == other.parent;
  }
  bool operator<(const NodeMeta& other) const { return pre < other.pre; }
};

inline NodeMeta MetaOf(const storage::NodeRow& row) {
  return NodeMeta{row.pre, row.post, row.parent, row.nonce};
}

// Connection identity in the retired session-scoped signatures below; the
// wire surface is stateless and nothing in the library passes one.
struct SessionId {
  uint64_t value = 0;
};

class ServerFilter {
 public:
  virtual ~ServerFilter() = default;

  // The unique node with parent == 0.
  virtual StatusOr<NodeMeta> Root() = 0;
  virtual StatusOr<NodeMeta> GetNode(uint32_t pre) = 0;
  // Children of many nodes at once; out[i] are the children of pres[i].
  // One round trip remotely — the step-level expansion of the batched
  // query pipeline, and (level by level) of descendant steps.
  virtual StatusOr<std::vector<std::vector<NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) = 0;
  // One-node convenience over ChildrenBatch.
  virtual StatusOr<std::vector<NodeMeta>> Children(uint32_t pre) {
    SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<NodeMeta>> lists,
                          ChildrenBatch({pre}));
    if (lists.size() != 1) return Status::Internal("batch size mismatch");
    return std::move(lists[0]);
  }

  // Evaluates the stored server share of many nodes at one point t (one
  // round trip remotely), and of one node at many points (the advanced
  // engine's look-ahead).
  virtual StatusOr<std::vector<gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, gf::Elem t) = 0;
  virtual StatusOr<std::vector<gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<gf::Elem>& points) = 0;
  // One-node convenience over EvalAtBatch.
  virtual StatusOr<gf::Elem> EvalAt(uint32_t pre, gf::Elem t) {
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values,
                          EvalAtBatch({pre}, t));
    if (values.size() != 1) return Status::Internal("batch size mismatch");
    return values[0];
  }

  // Full server shares, needed by the client-side equality test; many in
  // one round trip.
  virtual StatusOr<std::vector<gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) = 0;
  // One-node convenience over FetchShareBatch.
  virtual StatusOr<gf::RingElem> FetchShare(uint32_t pre) {
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::RingElem> shares,
                          FetchShareBatch({pre}));
    if (shares.size() != 1) return Status::Internal("batch size mismatch");
    return std::move(shares[0]);
  }

  // Partial aggregate (DESIGN.md §8): folds the selected aggregate columns
  // of the frontier nodes into one masked Z_{2^32} word per group — the
  // server *computes* on its additive slice instead of shipping shares, so
  // the response is O(groups) however large the candidate set. Stateless
  // and thread-safe; the default rejects so transports over pre-§8 stores
  // and test fakes fail loudly instead of answering garbage.
  virtual StatusOr<std::vector<agg::Word>> PartialAggregate(
      const agg::Spec& spec) {
    (void)spec;
    return Status::Unimplemented("server does not support aggregation");
  }

  // Verified partial aggregate (DESIGN.md §9): like PartialAggregate, but
  // every represented slice answers *separately* (one VerifiedPartial per
  // slice, slice order preserved) so the client can attribute a bad word to
  // a server, and the slice holding the verification track additionally
  // returns the wide and keyed-proof partials. The default rejects like the
  // unverified op.
  virtual StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      const agg::Spec& spec) {
    (void)spec;
    return Status::Unimplemented(
        "server does not support verified aggregation");
  }

  // Sealed payload bytes (ciphertext; §4 extension). Empty when the
  // database was encoded without sealing.
  virtual StatusOr<std::string> FetchSealed(uint32_t pre) = 0;

  // --- Mutations (DESIGN.md §12) --------------------------------------------
  // Two-phase secret-shared INSERT/UPDATE/DELETE. The coordinator (the
  // client's Mutator) builds one MutationPlan per share slice, prepares them
  // all, then commits; a fan-out filter routes plans[i] to backend i, a
  // single-server filter requires exactly one plan. The defaults reject so
  // read-only transports and test fakes fail loudly.

  // One MutationState per backend slice, in slice order.
  virtual StatusOr<std::vector<storage::MutationState>> MutationStates() {
    return Status::Unimplemented("server does not support mutations");
  }
  virtual Status PrepareMutation(uint64_t txn,
                                 const std::vector<storage::MutationPlan>&
                                     plans) {
    (void)txn;
    (void)plans;
    return Status::Unimplemented("server does not support mutations");
  }
  virtual Status CommitMutation(uint64_t txn) {
    (void)txn;
    return Status::Unimplemented("server does not support mutations");
  }
  virtual Status AbortMutation(uint64_t txn) {
    (void)txn;
    return Status::Unimplemented("server does not support mutations");
  }

  // Aggregate + verification blobs of many nodes in one round trip; out[i]
  // belongs to pres[i]. Used by the mutation planner to rebuild the root
  // path's column state client-side (DESIGN.md §12).
  virtual StatusOr<std::vector<storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) {
    (void)pres;
    return Status::Unimplemented("server does not support column fetches");
  }

  virtual StatusOr<uint64_t> NodeCount() = 0;

  // Number of server exchanges so far. Locally this counts filter calls;
  // remotely it counts actual wire round trips (a chunked batch counts one
  // trip per chunk). A multi-server fan-out counts the straggler only —
  // concurrent exchanges cost one step of latency (DESIGN.md §5). The
  // batched pipeline's win is measured against it.
  virtual uint64_t RoundTrips() const = 0;

  // How many backends answer this filter (1 unless it is a fan-out).
  virtual size_t ServerCount() const { return 1; }

  // Per-backend wire exchanges; single-server filters report {RoundTrips()}.
  virtual std::vector<uint64_t> PerServerRoundTrips() const {
    return {RoundTrips()};
  }

  // Accumulated wall time of the slowest backend across concurrent
  // fan-outs; 0 for single-server filters.
  virtual double StragglerSeconds() const { return 0.0; }

  // --- Retired entry points ---
  // The descendant cursor (the paper's nextNode(), replaced by level-wise
  // ChildrenBatch expansion in ClientFilter::Descendants) and the
  // session-scoped overloads are gone from the wire and from every filter.
  // These defaulted declarations remain only because perfbench's
  // TracedFilter (perfbench/src/trace.h) overrides each of them; nothing
  // in the library calls them.
  virtual StatusOr<uint64_t> OpenDescendantCursor(uint32_t, uint32_t) {
    return Status::Unimplemented("descendant cursors are retired");
  }
  virtual StatusOr<std::vector<NodeMeta>> NextNodes(uint64_t, size_t) {
    return Status::Unimplemented("descendant cursors are retired");
  }
  virtual Status CloseCursor(uint64_t) {
    return Status::Unimplemented("descendant cursors are retired");
  }
  virtual StatusOr<uint64_t> OpenDescendantCursor(SessionId, uint32_t pre,
                                                  uint32_t post) {
    return OpenDescendantCursor(pre, post);
  }
  virtual StatusOr<std::vector<NodeMeta>> NextNodes(SessionId,
                                                    uint64_t cursor,
                                                    size_t max_batch) {
    return NextNodes(cursor, max_batch);
  }
  virtual Status CloseCursor(SessionId, uint64_t cursor) {
    return CloseCursor(cursor);
  }
  virtual void EndSession(SessionId) {}
  virtual uint64_t OpenCursorCount() const { return 0; }
  virtual StatusOr<std::vector<agg::Word>> PartialAggregate(
      SessionId, const agg::Spec& spec) {
    return PartialAggregate(spec);
  }
  virtual StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      SessionId, const agg::Spec& spec) {
    return PartialAggregateVerified(spec);
  }
};

// Thread-safe and stateless: any number of connections may call
// concurrently; the store serializes internally (DESIGN.md §7).
class LocalServerFilter : public ServerFilter {
 public:
  // `store` must outlive the filter.
  LocalServerFilter(gf::Ring ring, storage::NodeStore* store)
      : ring_(std::move(ring)), store_(store) {}

  StatusOr<NodeMeta> Root() override;
  StatusOr<NodeMeta> GetNode(uint32_t pre) override;
  StatusOr<std::vector<std::vector<NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<std::vector<gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<gf::Elem>& points) override;
  StatusOr<std::vector<gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<std::vector<agg::Word>> PartialAggregate(
      const agg::Spec& spec) override;
  StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      const agg::Spec& spec) override;
  StatusOr<std::string> FetchSealed(uint32_t pre) override;
  StatusOr<std::vector<storage::MutationState>> MutationStates() override;
  Status PrepareMutation(
      uint64_t txn,
      const std::vector<storage::MutationPlan>& plans) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;
  StatusOr<std::vector<storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> NodeCount() override;
  uint64_t RoundTrips() const override {
    return round_trips_.load(std::memory_order_relaxed);
  }

  const gf::Ring& ring() const { return ring_; }

 private:
  void CountTrip() { round_trips_.fetch_add(1, std::memory_order_relaxed); }

  // Share reads through the store's zero-copy visit path: only the share
  // bytes are decoded, the row's other payloads (sealed, aggregate
  // columns) are never copied.
  StatusOr<gf::RingElem> ReadShare(uint32_t pre);
  StatusOr<gf::Elem> EvalRowAt(uint32_t pre, gf::Elem t);

  gf::Ring ring_;
  storage::NodeStore* store_;
  std::atomic<uint64_t> round_trips_{0};
};

}  // namespace ssdb::filter

#endif  // SSDB_FILTER_SERVER_FILTER_H_
