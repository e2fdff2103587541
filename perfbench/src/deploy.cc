#include "deploy.h"

#include <algorithm>
#include <map>
#include <utility>

#include "encode/encoder.h"
#include "gf/field.h"
#include "prg/prg.h"
#include "prg/seed.h"
#include "rpc/socket_channel.h"
#include "storage/memory_backend.h"
#include "util/stopwatch.h"
#include "xmark/generator.h"

namespace perfbench {

using ssdb::Status;
using ssdb::StatusOr;

namespace {

constexpr uint32_t kFieldP = 83;

ssdb::gf::Ring MakeRing() {
  return ssdb::gf::Ring(*ssdb::gf::Field::Make(kFieldP, 1));
}

// Splitmix64: derives each document's generator and PRG seed from the run
// seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Records one set-up step as a span of the traced deployment.
void SetupSpan(SpanKind kind, int64_t begin_ns, uint64_t arg0) {
  uint64_t id = Spans().Reserve();
  Span span;
  span.begin_ns = begin_ns;
  span.end_ns = NowNs();
  span.thread = ThreadIndex();
  span.kind = kind;
  span.arg0 = arg0;
  Spans().Fill(id, span);
}

}  // namespace

std::string DocId(uint32_t doc) { return "d" + std::to_string(doc); }

StatusOr<std::unique_ptr<Deployment>> Deployment::Create(
    const DeploySpec& spec, const ssdb::mapping::TagMap& map, uint64_t seed,
    const std::string& work_dir, bool traced) {
  std::unique_ptr<Deployment> dep(new Deployment(spec, traced));
  SSDB_RETURN_IF_ERROR(dep->Generate(seed));
  SSDB_RETURN_IF_ERROR(dep->Encode(map, work_dir));
  SSDB_RETURN_IF_ERROR(dep->StartServers(work_dir));
  ssdb::Stopwatch watch;
  int64_t begin = NowNs();
  for (uint32_t c = 0; c < spec.clients; ++c) {
    SSDB_RETURN_IF_ERROR(dep->Open(map));
  }
  dep->times_.open_s = watch.ElapsedSeconds();
  SetupSpan(SpanKind::kSetupRouter, begin, spec.clients);
  return dep;
}

Deployment::~Deployment() = default;

Status Deployment::Generate(uint64_t seed) {
  ssdb::Stopwatch watch;
  int64_t begin = NowNs();
  for (uint32_t d = 0; d < spec_.docs; ++d) {
    ssdb::xmark::GeneratorOptions options;
    options.target_bytes = spec_.doc_bytes;
    options.seed = Mix(seed * 64 + d);
    Doc doc;
    doc.xml = ssdb::xmark::GenerateAuctionDocument(options).xml;
    doc.seed = Mix(options.seed);
    docs_.push_back(std::move(doc));
  }
  times_.generate_s = watch.ElapsedSeconds();
  SetupSpan(SpanKind::kSetupXmark, begin, xml_bytes());
  return Status::OK();
}

Status Deployment::Encode(const ssdb::mapping::TagMap& map,
                          const std::string& work_dir) {
  ssdb::Stopwatch watch;
  int64_t begin = NowNs();
  ssdb::gf::Ring ring = MakeRing();
  ssdb::encode::EncodeOptions options;
  options.verify_aggregate = spec_.verify_aggregate;
  for (uint32_t d = 0; d < spec_.docs; ++d) {
    std::vector<ssdb::storage::NodeStore*> stores;
    for (uint32_t s = 0; s < spec_.slices; ++s) {
      Slice slice;
      if (spec_.disk) {
        ssdb::storage::DiskStoreOptions disk_options;
        disk_options.buffer_pool_pages = spec_.pool_pages;
        std::string path = work_dir + "/d" + std::to_string(d) + "s" +
                           std::to_string(s) + ".db";
        SSDB_ASSIGN_OR_RETURN(
            std::unique_ptr<ssdb::storage::DiskNodeStore> disk,
            ssdb::storage::DiskNodeStore::Create(path, disk_options));
        slice.disk = disk.get();
        slice.store = std::move(disk);
      } else {
        slice.store = std::make_unique<ssdb::storage::MemoryNodeStore>();
      }
      stores.push_back(slice.store.get());
      slices_.push_back(std::move(slice));
    }
    ssdb::encode::Encoder encoder(ring, map,
                                  ssdb::prg::Prg(ssdb::prg::Seed::FromUint64(
                                      docs_[d].seed)),
                                  stores, options);
    SSDB_RETURN_IF_ERROR(encoder.EncodeString(docs_[d].xml).status());
  }
  times_.encode_s = watch.ElapsedSeconds();
  SetupSpan(SpanKind::kSetupEncode, begin, slices_.size());
  return Status::OK();
}

Status Deployment::StartServers(const std::string& work_dir) {
  ssdb::Stopwatch watch;
  int64_t begin = NowNs();
  ssdb::gf::Ring ring = MakeRing();
  for (size_t i = 0; i < slices_.size(); ++i) {
    Slice& slice = slices_[i];
    ssdb::storage::NodeStore* store = slice.store.get();
    if (traced_) {
      slice.traced_store = std::make_unique<TracedStore>(store);
      store = slice.traced_store.get();
    }
    slice.local = std::make_unique<ssdb::filter::LocalServerFilter>(ring, store);
    ssdb::filter::ServerFilter* filter = slice.local.get();
    if (traced_) {
      slice.traced_filter = std::make_unique<TracedFilter>(
          filter, std::make_unique<ServerSink>(static_cast<uint32_t>(i)));
      filter = slice.traced_filter.get();
    }
    slice.socket = work_dir + "/s" + std::to_string(i) + ".sock";
    SSDB_ASSIGN_OR_RETURN(std::unique_ptr<ssdb::rpc::UnixServerSocket> listener,
                          ssdb::rpc::UnixServerSocket::Listen(slice.socket));
    ssdb::rpc::ConcurrentServerOptions options;
    options.threads = 1;
    slice.server = std::make_unique<ssdb::rpc::ConcurrentServer>(
        ring, filter, std::move(listener), options);
    SSDB_RETURN_IF_ERROR(slice.server->Start());
  }
  times_.servers_s = watch.ElapsedSeconds();
  SetupSpan(SpanKind::kSetupServers, begin, slices_.size());
  return Status::OK();
}

Status Deployment::Open(const ssdb::mapping::TagMap& map) {
  ssdb::gf::Ring ring = MakeRing();
  auto client = std::make_unique<Client>();
  ssdb::shard::ShardCatalog catalog;
  std::map<std::string, std::vector<ssdb::filter::ServerFilter*>> backends;
  std::map<std::string, ssdb::prg::Seed> seeds;
  for (uint32_t d = 0; d < spec_.docs; ++d) {
    ssdb::shard::ShardEntry entry;
    entry.doc_id = DocId(d);
    entry.group = d;
    std::vector<ssdb::filter::ServerFilter*> slice_filters;
    for (uint32_t s = 0; s < spec_.slices; ++s) {
      const Slice& slice = slices_[d * spec_.slices + s];
      entry.slices.push_back(slice.socket);
      SSDB_ASSIGN_OR_RETURN(std::unique_ptr<ssdb::rpc::Channel> channel,
                            ssdb::rpc::ConnectUnix(slice.socket));
      if (traced_) {
        channel = std::make_unique<TracedChannel>(std::move(channel),
                                                  &client->trace, s);
      }
      client->stubs.push_back(std::make_unique<ssdb::rpc::RemoteServerFilter>(
          ring, std::move(channel)));
      ssdb::filter::ServerFilter* stub = client->stubs.back().get();
      if (traced_) {
        client->traced_stubs.push_back(std::make_unique<TracedFilter>(
            stub, std::make_unique<StubSink>(&client->trace, d, s)));
        stub = client->traced_stubs.back().get();
      }
      slice_filters.push_back(stub);
    }
    client->fanouts.push_back(std::make_unique<ssdb::filter::MultiServerFilter>(
        ring, std::move(slice_filters)));
    backends[entry.doc_id] = {client->fanouts.back().get()};
    seeds.emplace(entry.doc_id, ssdb::prg::Seed::FromUint64(docs_[d].seed));
    SSDB_RETURN_IF_ERROR(catalog.Add(std::move(entry)));
  }
  ssdb::core::CorpusOptions options;
  options.p = kFieldP;
  options.engine = ssdb::core::EngineKind::kAdvanced;
  options.verify_aggregate = spec_.verify_aggregate;
  SSDB_ASSIGN_OR_RETURN(
      client->router,
      ssdb::shard::Router::FromBackends(
          std::move(catalog), &map,
          ssdb::prg::Seed::FromUint64(docs_[0].seed), seeds, options,
          backends));
  clients_.push_back(std::move(client));
  return Status::OK();
}

uint64_t Deployment::xml_bytes() const {
  uint64_t total = 0;
  for (const Doc& doc : docs_) total += doc.xml.size();
  return total;
}

uint64_t Deployment::WireBytes(uint32_t c) const {
  uint64_t total = 0;
  for (const auto& stub : clients_[c]->stubs) {
    total += stub->channel().bytes_sent() + stub->channel().bytes_received();
  }
  return total;
}

uint64_t Deployment::RoundTrips(uint32_t c, uint32_t doc) const {
  return clients_[c]->fanouts[doc]->RoundTrips();
}

StatusOr<std::vector<ssdb::storage::StorageStats>> Deployment::SliceStats() {
  std::vector<ssdb::storage::StorageStats> out;
  for (Slice& slice : slices_) {
    SSDB_ASSIGN_OR_RETURN(ssdb::storage::StorageStats stats,
                          slice.store->Stats());
    out.push_back(stats);
  }
  return out;
}

StatusOr<uint64_t> Deployment::StoredBytes() {
  SSDB_ASSIGN_OR_RETURN(std::vector<ssdb::storage::StorageStats> stats,
                        SliceStats());
  uint64_t total = 0;
  for (const auto& s : stats) total += spec_.disk ? s.file_bytes : s.data_bytes;
  return total;
}

uint64_t Deployment::RequestsHandled() const {
  uint64_t total = 0;
  for (const Slice& slice : slices_) {
    total += slice.server->Snapshot().requests_handled;
  }
  return total;
}

uint64_t Deployment::QueueDepthPeak() const {
  uint64_t peak = 0;
  for (const Slice& slice : slices_) {
    peak = std::max(peak, slice.server->Snapshot().queue_depth_peak);
  }
  return peak;
}

PoolCounters Deployment::Pool() const {
  PoolCounters total;
  for (const Slice& slice : slices_) {
    if (slice.disk == nullptr) continue;
    const ssdb::storage::BufferPoolStats& stats = slice.disk->buffer_stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
  }
  return total;
}

double Deployment::ColumnFileBytesPerBlobByte() const {
  uint64_t file_bytes = 0;
  uint64_t blob_bytes = 0;
  for (const Slice& slice : slices_) {
    if (slice.disk == nullptr) continue;
    ssdb::colstore::ColumnStoreStats stats = slice.disk->column_stats();
    file_bytes += stats.file_bytes;
    blob_bytes += stats.blob_bytes;
  }
  return blob_bytes == 0 ? 0.0 : static_cast<double>(file_bytes) / blob_bytes;
}

}  // namespace perfbench
