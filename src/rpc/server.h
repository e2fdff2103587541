/// RpcServer: decodes one request frame, dispatches it against a
/// ServerFilter, and encodes the response. Serve() runs the prototype's
/// single-connection loop; the concurrent transport
/// (src/rpc/concurrent_server.h, DESIGN.md §7) calls HandleRequestInto per
/// frame, so one RpcServer instance is shared by every worker. No op keeps
/// per-connection state, so a frame's answer never depends on which
/// connection sent it. In an m-server deployment (DESIGN.md §5) each
/// host runs one server over its own share slice. ServerThread is a
/// convenience for tests/examples that runs Serve() on a background thread.

#ifndef SSDB_RPC_SERVER_H_
#define SSDB_RPC_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "filter/server_filter.h"
#include "gf/ring.h"
#include "rpc/channel.h"
#include "util/statusor.h"

namespace ssdb::rpc {

struct Request;

// Build identifier every daemon echoes to a kPing probe (DESIGN.md §11).
inline constexpr char kServerBuild[] = "ssdb/0.9";

class RpcServer {
 public:
  // `filter` must outlive the server. The ring is needed to serialize
  // polynomial shares onto the wire. A null filter is legal and makes a
  // catalog-only server (ssdb_router, DESIGN.md §10): filter ops answer
  // FailedPrecondition, kShutdown still works.
  RpcServer(gf::Ring ring, filter::ServerFilter* filter)
      : ring_(std::move(ring)), filter_(filter) {}

  // Installs the shard-catalog tier (DESIGN.md §10): `encoded_catalog` is a
  // pre-encoded shard::EncodeCatalog blob answered to kCatalog, and
  // `encoded_entries` maps document id -> shard::EncodeEntry blob answered
  // to kCatalogResolve. Pre-encoded bytes keep rpc/ independent of shard/.
  // Call before serving; not synchronized against in-flight requests.
  void SetCatalog(std::string encoded_catalog,
                  std::map<std::string, std::string> encoded_entries);

  // Serves until the peer disconnects or sends kShutdown. Returns OK on a
  // clean shutdown.
  Status Serve(Channel* channel);

  // Handles a single encoded request (exposed for tests and the concurrent
  // transport). Stateless apart from the filter, so safe to call from many
  // threads; any malformed frame — a retired op number included — yields
  // an error frame, never a crash (tests/fuzz_test.cc).
  std::string HandleRequest(std::string_view request_bytes);

  // HandleRequest into a caller-owned buffer: the response envelope and
  // payload are encoded in place, so a pooled frame buffer's capacity
  // (rpc/frame_pool.h) is reused across requests instead of allocating
  // per response. `response` is cleared first; `request_bytes` must not
  // alias it.
  void HandleRequestInto(std::string_view request_bytes,
                         std::string* response);

  // Total well-formed requests handled since construction (kPing's
  // stats_epoch): a cheap liveness signal the monitor can watch move.
  uint64_t requests_handled() const {
    return requests_handled_.load(std::memory_order_relaxed);
  }

 private:
  // Appends the catalog payload for kCatalog/kCatalogResolve requests.
  Status ServeCatalog(const Request& request, std::string* payload) const;

  gf::Ring ring_;
  filter::ServerFilter* filter_;
  std::string catalog_bytes_;
  std::map<std::string, std::string, std::less<>> catalog_entries_;
  std::atomic<uint64_t> requests_handled_{0};
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

// Runs an RpcServer over the given channel on a background thread; joins on
// destruction.
class ServerThread {
 public:
  ServerThread(gf::Ring ring, filter::ServerFilter* filter,
               std::unique_ptr<Channel> channel);
  ~ServerThread();

  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

 private:
  std::unique_ptr<Channel> channel_;
  RpcServer server_;
  std::thread thread_;
};

}  // namespace ssdb::rpc

#endif  // SSDB_RPC_SERVER_H_
