// Ablation A2: disk (paged B+tree) backend vs in-memory backend — encode
// throughput and query latency, isolating the storage engine's share of the
// macro numbers. Also reports B+tree/buffer-pool micro-costs, including the
// page checksum every pool miss and flush runs.

#include <benchmark/benchmark.h>

#include "core/database.h"
#include "storage/btree.h"
#include "storage/memory_backend.h"
#include "storage/page.h"
#include "storage/table.h"
#include "util/file_util.h"
#include "util/random.h"
#include "xmark/generator.h"

namespace ssdb {
namespace {

// A row with the fixed columns and a share only (no sealed payload,
// aggregate columns or nonce).
storage::NodeRow Row(uint32_t pre, uint32_t post, uint32_t parent,
                     std::string share) {
  storage::NodeRow row;
  row.pre = pre;
  row.post = post;
  row.parent = parent;
  row.share = std::move(share);
  return row;
}

std::string SharedXml() {
  static const auto* kXml = new std::string([] {
    xmark::GeneratorOptions gen;
    gen.target_bytes = 128 << 10;
    return xmark::GenerateAuctionDocument(gen).xml;
  }());
  return *kXml;
}

const mapping::TagMap& SharedMap() {
  static const auto* kMap = new mapping::TagMap([] {
    auto field = *gf::Field::Make(83);
    return *core::EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                     field, false);
  }());
  return *kMap;
}

void BM_EncodeToBackend(benchmark::State& state) {
  // arg 0: memory backend; arg 1: disk backend.
  bool disk = state.range(0) == 1;
  std::string xml = SharedXml();
  TempDir dir("bench_storage");
  int run = 0;
  for (auto _ : state) {
    core::DatabaseOptions options;
    if (disk) {
      options.backend = core::Backend::kDisk;
      options.disk_path = dir.FilePath("db_" + std::to_string(run++));
    }
    auto db = core::EncryptedXmlDatabase::Encode(
        xml, SharedMap(), prg::Seed::FromUint64(1), options);
    benchmark::DoNotOptimize(db);
  }
  state.counters["input_bytes"] = static_cast<double>(xml.size());
}
BENCHMARK(BM_EncodeToBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_QueryOnBackend(benchmark::State& state) {
  bool disk = state.range(0) == 1;
  std::string xml = SharedXml();
  TempDir dir("bench_storage_q");
  core::DatabaseOptions options;
  if (disk) {
    options.backend = core::Backend::kDisk;
    options.disk_path = dir.FilePath("db");
  }
  auto db = core::EncryptedXmlDatabase::Encode(
      xml, SharedMap(), prg::Seed::FromUint64(1), options);
  SSDB_CHECK(db.ok());
  auto parsed = *query::ParseQuery("/site/*/person//city");
  for (auto _ : state) {
    auto result = (*db)->QueryParsed(parsed, core::EngineKind::kAdvanced,
                                     query::MatchMode::kContainment);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_QueryOnBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BTreeInsert(benchmark::State& state) {
  TempDir dir("bench_btree");
  auto pager = *storage::Pager::Open(dir.FilePath("db"), true);
  storage::BufferPool pool(pager.get(), 1024);
  auto tree = *storage::BTree::Create(&pool);
  uint64_t key = 0;
  for (auto _ : state) {
    ++key;
    benchmark::DoNotOptimize(tree.Insert(key, key));
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreePointLookup(benchmark::State& state) {
  TempDir dir("bench_btree_get");
  auto pager = *storage::Pager::Open(dir.FilePath("db"), true);
  storage::BufferPool pool(pager.get(), 1024);
  auto tree = *storage::BTree::Create(&pool);
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) {
    SSDB_CHECK_OK(tree.Insert(i, i));
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(rng.Uniform(n)));
  }
}
BENCHMARK(BM_BTreePointLookup);

void BM_PageSealVerify(benchmark::State& state) {
  // The checksum work of one buffer-pool flush (seal) and one miss (verify)
  // on a 4 KiB page.
  storage::PageBuf page;
  Random rng(1);
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng.Next());
  storage::SetPageType(page.data(), storage::PageType::kHeap);
  for (auto _ : state) {
    storage::SealPage(page.data());
    benchmark::DoNotOptimize(page.data());
    benchmark::ClobberMemory();
    benchmark::DoNotOptimize(storage::VerifyPage(page.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(storage::kPageSize));
}
BENCHMARK(BM_PageSealVerify);

void BM_DescendantScan(benchmark::State& state) {
  // The access path behind every '//' step.
  storage::MemoryNodeStore store;
  const uint32_t n = 20000;
  for (uint32_t i = 1; i <= n; ++i) {
    SSDB_CHECK_OK(
        store.Insert(Row(i, n + 1 - i, i == 1 ? 0 : 1, std::string(72, 'x'))));
  }
  for (auto _ : state) {
    uint64_t count = 0;
    SSDB_CHECK_OK(store.ScanDescendants(1, n, [&](const storage::NodeRow&) {
      ++count;
      return true;
    }));
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_DescendantScan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssdb

BENCHMARK_MAIN();
