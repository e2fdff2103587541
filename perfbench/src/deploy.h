// One deployment of the stack the benchmark measures, all inside this
// process: XMark documents encoded into m share slices each, one
// ConcurrentServer (one worker thread) per slice on a unix socket, and per
// client a shard::Router over RemoteServerFilter stubs that reach the
// servers only through the sockets.
//
//   Router -> MultiServerFilter -> RemoteServerFilter stubs -> sockets
//     -> ConcurrentServer -> LocalServerFilter -> NodeStore / colstore
//
// A traced deployment wraps the client channels, the slice stubs, the
// server-side filter and the store with the forwarding wrappers of
// trace.h; an untraced one uses the library objects directly.

#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "filter/multi_server_filter.h"
#include "filter/server_filter.h"
#include "mapping/tag_map.h"
#include "rpc/client.h"
#include "rpc/concurrent_server.h"
#include "shard/router.h"
#include "storage/node_store.h"
#include "storage/table.h"
#include "trace.h"

namespace perfbench {

struct DeploySpec {
  uint32_t docs = 1;
  uint32_t slices = 2;
  uint32_t clients = 1;
  uint64_t doc_bytes = 256 << 10;
  bool disk = false;
  size_t pool_pages = 64;     // disk backend buffer pool
  bool verify_aggregate = false;
};

struct SetupTimes {
  double generate_s = 0;
  double encode_s = 0;
  double servers_s = 0;
  double open_s = 0;
  double total() const { return generate_s + encode_s + servers_s + open_s; }
};

struct PoolCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

std::string DocId(uint32_t doc);

class Deployment {
 public:
  // Builds, encodes, serves and opens everything; `work_dir` receives the
  // sockets and (disk backend) the slice files. It must exist, and the
  // caller removes it after the deployment is destroyed.
  static ssdb::StatusOr<std::unique_ptr<Deployment>> Create(
      const DeploySpec& spec, const ssdb::mapping::TagMap& map,
      uint64_t seed, const std::string& work_dir, bool traced);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const SetupTimes& times() const { return times_; }
  const std::string& xml(uint32_t doc) const { return docs_[doc].xml; }
  uint64_t xml_bytes() const;

  ssdb::shard::Router* router(uint32_t client) {
    return clients_[client]->router.get();
  }
  // Null on an untraced deployment.
  ClientTrace* trace(uint32_t client) {
    return traced_ ? &clients_[client]->trace : nullptr;
  }
  // Bytes sent plus received over all of the client's slice channels.
  uint64_t WireBytes(uint32_t client) const;
  // Straggler round trips of the client's fan-out filter for one document.
  uint64_t RoundTrips(uint32_t client, uint32_t doc) const;

  // Footprint of every slice: file bytes on disk, data bytes in memory.
  ssdb::StatusOr<uint64_t> StoredBytes();
  // Per-slice storage statistics, slice-major (doc * slices + slice).
  ssdb::StatusOr<std::vector<ssdb::storage::StorageStats>> SliceStats();
  uint64_t RequestsHandled() const;
  uint64_t QueueDepthPeak() const;
  // Summed buffer-pool counters of the disk slices (zero in memory). Read
  // only while the servers are idle.
  PoolCounters Pool() const;
  // Column-store file bytes / blob bytes over the disk slices (0 in memory).
  double ColumnFileBytesPerBlobByte() const;

 private:
  struct Doc {
    std::string xml;
    uint64_t seed = 0;
  };
  struct Slice {
    std::unique_ptr<ssdb::storage::NodeStore> store;
    ssdb::storage::DiskNodeStore* disk = nullptr;
    std::unique_ptr<TracedStore> traced_store;
    std::unique_ptr<ssdb::filter::LocalServerFilter> local;
    std::unique_ptr<TracedFilter> traced_filter;
    std::unique_ptr<ssdb::rpc::ConcurrentServer> server;
    std::string socket;
  };
  struct Client {
    ClientTrace trace;
    std::vector<std::unique_ptr<ssdb::rpc::RemoteServerFilter>> stubs;
    std::vector<std::unique_ptr<TracedFilter>> traced_stubs;
    std::vector<std::unique_ptr<ssdb::filter::MultiServerFilter>> fanouts;
    std::unique_ptr<ssdb::shard::Router> router;
  };

  Deployment(DeploySpec spec, bool traced) : spec_(spec), traced_(traced) {}

  ssdb::Status Generate(uint64_t seed);
  ssdb::Status Encode(const ssdb::mapping::TagMap& map,
                      const std::string& work_dir);
  ssdb::Status StartServers(const std::string& work_dir);
  // Opens one more client: its connections, stubs, fan-out and router.
  ssdb::Status Open(const ssdb::mapping::TagMap& map);

  DeploySpec spec_;
  bool traced_;
  SetupTimes times_;
  std::vector<Doc> docs_;
  std::vector<Slice> slices_;       // doc-major
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOY_H_
