#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "agg/columns.h"
#include "filter/server_filter.h"
#include "gf/field.h"
#include "gf/ring.h"
#include "storage/memory_backend.h"
#include "storage/table.h"
#include "test_helpers.h"
#include "util/file_util.h"

namespace ssdb::storage {
namespace {

using testing_helpers::Row;

// Both backends must satisfy the same contract; parameterize over them.
enum class Backend { kMemory, kDisk };

class NodeStoreTest : public ::testing::TestWithParam<Backend> {
 protected:
  NodeStoreTest() : dir_("node_store_test") {}

  std::unique_ptr<NodeStore> MakeStore(const std::string& name) {
    if (GetParam() == Backend::kMemory) {
      return std::make_unique<MemoryNodeStore>();
    }
    auto store = DiskNodeStore::Create(dir_.FilePath(name));
    SSDB_CHECK(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  // Tree used throughout, as pre(post):
  //   1(6) root
  //   +-- 2(3)
  //   |   +-- 3(1)
  //   |   +-- 4(2)
  //   +-- 5(5)
  //       +-- 6(4)
  void FillTree(NodeStore* store) {
    auto insert = [&](uint32_t pre, uint32_t post, uint32_t parent) {
      SSDB_CHECK_OK(
          store->Insert(Row(pre, post, parent, "share" + std::to_string(pre))));
    };
    insert(1, 6, 0);
    insert(2, 3, 1);
    insert(3, 1, 2);
    insert(4, 2, 2);
    insert(5, 5, 1);
    insert(6, 4, 5);
  }

  TempDir dir_;
};

TEST_P(NodeStoreTest, RowCodecRoundTrip) {
  NodeRow row = Row(12, 34, 5, std::string("\x01\x02\xff", 3));
  auto decoded = DecodeNodeRow(EncodeNodeRow(row));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
  EXPECT_FALSE(DecodeNodeRow("\x01").ok());
}

TEST_P(NodeStoreTest, InsertAndLookup) {
  auto store = MakeStore("basic");
  FillTree(store.get());
  EXPECT_EQ(*store->NodeCount(), 6u);
  auto row = store->GetByPre(4);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->post, 2u);
  EXPECT_EQ(row->parent, 2u);
  EXPECT_EQ(row->share, "share4");
  EXPECT_FALSE(store->GetByPre(99).ok());
}

TEST_P(NodeStoreTest, RejectsDuplicatesAndZeroPre) {
  auto store = MakeStore("dups");
  ASSERT_TRUE(store->Insert(Row(1, 1, 0, "x")).ok());
  EXPECT_FALSE(store->Insert(Row(1, 2, 0, "y")).ok());
  EXPECT_FALSE(store->Insert(Row(0, 3, 0, "z")).ok());
}

TEST_P(NodeStoreTest, RootIsParentZero) {
  auto store = MakeStore("root");
  FillTree(store.get());
  auto root = store->GetRoot();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->pre, 1u);
  auto empty = MakeStore("empty");
  EXPECT_FALSE(empty->GetRoot().ok());
}

TEST_P(NodeStoreTest, ChildrenInDocumentOrder) {
  auto store = MakeStore("children");
  FillTree(store.get());
  auto children = store->GetChildren(1);
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 2u);
  EXPECT_EQ((*children)[0].pre, 2u);
  EXPECT_EQ((*children)[1].pre, 5u);
  auto leaves = store->GetChildren(3);
  ASSERT_TRUE(leaves.ok());
  EXPECT_TRUE(leaves->empty());
}

TEST_P(NodeStoreTest, DescendantsUsePrePostWindow) {
  auto store = MakeStore("desc");
  FillTree(store.get());
  std::vector<uint32_t> pres;
  ASSERT_TRUE(store->ScanDescendants(2, 3, [&](const NodeRow& row) {
                     pres.push_back(row.pre);
                     return true;
                   })
                  .ok());
  EXPECT_EQ(pres, (std::vector<uint32_t>{3, 4}));
  pres.clear();
  ASSERT_TRUE(store->ScanDescendants(1, 6, [&](const NodeRow& row) {
                     pres.push_back(row.pre);
                     return true;
                   })
                  .ok());
  EXPECT_EQ(pres, (std::vector<uint32_t>{2, 3, 4, 5, 6}));
  // Early stop.
  pres.clear();
  ASSERT_TRUE(store->ScanDescendants(1, 6, [&](const NodeRow& row) {
                     pres.push_back(row.pre);
                     return pres.size() < 2;
                   })
                  .ok());
  EXPECT_EQ(pres.size(), 2u);
}

TEST_P(NodeStoreTest, StatsTrackPayload) {
  auto store = MakeStore("stats");
  FillTree(store.get());
  auto stats = store->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->node_count, 6u);
  EXPECT_GT(stats->payload_bytes, 0u);
  EXPECT_GT(stats->structure_bytes, 0u);
  EXPECT_LT(stats->structure_bytes, stats->payload_bytes);
}

INSTANTIATE_TEST_SUITE_P(Backends, NodeStoreTest,
                         ::testing::Values(Backend::kMemory, Backend::kDisk),
                         [](const auto& info) {
                           return info.param == Backend::kMemory ? "Memory"
                                                                 : "Disk";
                         });

TEST(DiskNodeStoreTest, PersistsAcrossReopen) {
  TempDir dir("disk_reopen");
  std::string path = dir.FilePath("db");
  {
    auto store = DiskNodeStore::Create(path);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 1; i <= 500; ++i) {
      ASSERT_TRUE((*store)
                      ->Insert(Row(i, 501 - i, i == 1 ? 0 : 1,
                                std::string(70, static_cast<char>(i % 256))))
                      .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto store = DiskNodeStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(*(*store)->NodeCount(), 500u);
    auto row = (*store)->GetByPre(250);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->post, 251u);
    auto children = (*store)->GetChildren(1);
    ASSERT_TRUE(children.ok());
    EXPECT_EQ(children->size(), 499u);
  }
}

TEST(DiskNodeStoreTest, CreateRefusesExistingDatabase) {
  TempDir dir("disk_exists");
  std::string path = dir.FilePath("db");
  {
    auto store = DiskNodeStore::Create(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Insert(Row(1, 1, 0, "x")).ok());
  }
  EXPECT_FALSE(DiskNodeStore::Create(path).ok());
}

TEST(DiskNodeStoreTest, DiskStatsSeparateDataAndIndex) {
  TempDir dir("disk_stats");
  auto store = DiskNodeStore::Create(dir.FilePath("db"));
  ASSERT_TRUE(store.ok());
  for (uint32_t i = 1; i <= 2000; ++i) {
    ASSERT_TRUE(
        (*store)->Insert(Row(i, i, i == 1 ? 0 : 1, std::string(72, 'p'))).ok());
  }
  auto stats = (*store)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->data_bytes, 0u);
  EXPECT_GT(stats->index_bytes, 0u);
  EXPECT_GE(stats->file_bytes, stats->data_bytes + stats->index_bytes);
}

// --- Fixed-column reads on the column-store layout (DESIGN.md §12) ---------
//
// A star of kStarNodes nodes (root 1, leaves 2..kStarNodes) whose shares are
// real ring elements, so LocalServerFilter can evaluate them, and whose §8
// blobs are well-formed (kStarValues mapped values; word w of node pre is
// pre * 1000 + w). `with_verify` adds a §9 track to every node, as on slice
// 0 of a --verify-agg database.
constexpr uint32_t kStarNodes = 40;
constexpr size_t kStarValues = 10;

gf::Ring StarRing() { return gf::Ring(*gf::Field::Make(83)); }

NodeRow StarRow(uint32_t pre, bool with_verify) {
  gf::Ring ring = StarRing();
  NodeRow row;
  row.pre = pre;
  row.post = pre == 1 ? kStarNodes : pre - 1;
  row.parent = pre == 1 ? 0 : 1;
  row.share = ring.Serialize(ring.XMinus(pre));
  row.sealed = "sealed" + std::to_string(pre);
  std::vector<agg::Word> words(agg::WordsPerNode(kStarValues));
  for (size_t w = 0; w < words.size(); ++w) {
    words[w] = static_cast<agg::Word>(pre * 1000 + w);
  }
  row.agg = agg::SerializeWords(words);
  if (with_verify) {
    std::vector<uint64_t> wide(words.begin(), words.end());
    std::vector<uint64_t> proof(words.size(), pre);
    row.verify = agg::SerializeVerify(wide, proof);
  }
  return row;
}

std::unique_ptr<DiskNodeStore> MakeStar(const std::string& path,
                                        bool with_verify) {
  auto store = DiskNodeStore::Create(path);
  SSDB_CHECK(store.ok()) << store.status().ToString();
  for (uint32_t pre = 1; pre <= kStarNodes; ++pre) {
    SSDB_CHECK_OK((*store)->Insert(StarRow(pre, with_verify)));
  }
  SSDB_CHECK_OK((*store)->Flush());
  return std::move(*store);
}

// Page fetches (hits + misses) the column store's own pool has served.
uint64_t ColumnFetches(const DiskNodeStore& store) {
  colstore::ColumnStoreStats stats = store.column_stats();
  return stats.pool_hits + stats.pool_misses;
}

TEST(DiskColumnReadTest, VisitByPreReadsFixedColumnsOnly) {
  TempDir dir("disk_visit");
  auto store = MakeStar(dir.FilePath("db"), /*with_verify=*/true);
  for (uint32_t pre = 1; pre <= kStarNodes; ++pre) {
    auto full = store->GetByPre(pre);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    NodeRow visited;
    ASSERT_TRUE(
        store->VisitByPre(pre, [&](const NodeRow& row) { visited = row; })
            .ok());
    EXPECT_EQ(visited.pre, full->pre);
    EXPECT_EQ(visited.post, full->post);
    EXPECT_EQ(visited.parent, full->parent);
    EXPECT_EQ(visited.share, full->share);
    EXPECT_EQ(visited.sealed, full->sealed);
    EXPECT_EQ(visited.nonce, full->nonce);
    EXPECT_TRUE(visited.agg.empty());
    EXPECT_TRUE(visited.verify.empty());
  }
  EXPECT_TRUE(store->VisitByPre(kStarNodes + 1, [](const NodeRow&) {})
                  .IsNotFound());
}

TEST(DiskColumnReadTest, ShareReadsNeverTouchTheColumnStore) {
  TempDir dir("disk_visit_pool");
  auto store = MakeStar(dir.FilePath("db"), /*with_verify=*/true);
  uint64_t before = ColumnFetches(*store);
  for (int round = 0; round < 3; ++round) {
    for (uint32_t pre = 1; pre <= kStarNodes; ++pre) {
      ASSERT_TRUE(store->VisitByPre(pre, [](const NodeRow&) {}).ok());
    }
  }
  gf::Ring ring = StarRing();
  filter::LocalServerFilter server(ring, store.get());
  std::vector<uint32_t> pres;
  for (uint32_t pre = 1; pre <= kStarNodes; ++pre) pres.push_back(pre);
  const gf::Elem t = 5;
  auto values = server.EvalAtBatch(pres, t);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  ASSERT_EQ(values->size(), pres.size());
  for (size_t i = 0; i < pres.size(); ++i) {
    EXPECT_EQ((*values)[i], ring.Eval(ring.XMinus(pres[i]), t));
  }
  EXPECT_EQ(ColumnFetches(*store), before);
  // The counters do move on the blob path, so the equality above is not
  // vacuous.
  ASSERT_TRUE(store->GetColumns(2).ok());
  EXPECT_GT(ColumnFetches(*store), before);
}

TEST(DiskColumnReadTest, FoldsReadBlobsThroughGetColumns) {
  // Visited rows carry no blobs on this layout, so both folds must take
  // the GetColumns path; the verify track must not disturb the plain fold.
  TempDir dir("disk_fold");
  auto plain = MakeStar(dir.FilePath("plain"), /*with_verify=*/false);
  auto tracked = MakeStar(dir.FilePath("tracked"), /*with_verify=*/true);
  agg::Spec spec;
  spec.columns = agg::kAllColsMask;
  spec.value_indexes = {0, 3};
  for (uint32_t pre = 2; pre <= kStarNodes; ++pre) spec.pres.push_back(pre);
  gf::Ring ring = StarRing();
  std::vector<agg::Word> partials[2];
  DiskNodeStore* stores[2] = {plain.get(), tracked.get()};
  for (int i = 0; i < 2; ++i) {
    filter::LocalServerFilter server(ring, stores[i]);
    uint64_t before = ColumnFetches(*stores[i]);
    auto result = server.PartialAggregate(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(ColumnFetches(*stores[i]), before);
    partials[i] = *result;
  }
  EXPECT_EQ(partials[1], partials[0]);
  // Each partial sums every column word of its value index over the
  // frontier.
  for (size_t g = 0; g < spec.value_indexes.size(); ++g) {
    agg::Word expected = 0;
    for (uint32_t pre : spec.pres) {
      for (size_t c = 0; c < agg::kColCount; ++c) {
        expected += static_cast<agg::Word>(
            pre * 1000 + agg::WordIndex(static_cast<agg::Col>(c), kStarValues,
                                        spec.value_indexes[g]));
      }
    }
    EXPECT_EQ(partials[0][g], expected);
  }
  // The verified fold gets the track through the same path.
  filter::LocalServerFilter server(ring, tracked.get());
  auto verified = server.PartialAggregateVerified(spec);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  ASSERT_EQ(verified->size(), 1u);
  EXPECT_EQ((*verified)[0].words, partials[0]);
  EXPECT_EQ((*verified)[0].wide.size(), spec.value_indexes.size());
}

TEST(DiskColumnReadTest, GetByPreAndGetRootKeepBothBlobs) {
  TempDir dir("disk_full_rows");
  auto store = MakeStar(dir.FilePath("db"), /*with_verify=*/true);
  auto root = store->GetRoot();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(*root, StarRow(1, true));
  for (uint32_t pre = 1; pre <= kStarNodes; ++pre) {
    auto row = store->GetByPre(pre);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(*row, StarRow(pre, true));
  }
  auto both = store->GetColumns(7);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->agg, StarRow(7, true).agg);
  EXPECT_EQ(both->verify, StarRow(7, true).verify);
}

TEST(DiskColumnReadTest, InRowLayoutKeepsBlobsOnVisitedRows) {
  // A store opened without its .cols file is the pre-§12 layout: blobs
  // ride in the heap row, so VisitByPre still sees them.
  TempDir dir("disk_in_row");
  std::string path = dir.FilePath("db");
  {
    auto store = DiskNodeStore::Create(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_EQ(std::remove((path + ".cols").c_str()), 0);
  auto store = DiskNodeStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  NodeRow expected = StarRow(1, true);
  ASSERT_TRUE((*store)->Insert(expected).ok());
  NodeRow visited;
  ASSERT_TRUE(
      (*store)->VisitByPre(1, [&](const NodeRow& row) { visited = row; })
          .ok());
  EXPECT_EQ(visited, expected);
  auto blobs = (*store)->GetColumns(1);
  ASSERT_TRUE(blobs.ok());
  EXPECT_EQ(blobs->agg, expected.agg);
  EXPECT_EQ(blobs->verify, expected.verify);
  EXPECT_EQ((*store)->column_stats().pool_hits, 0u);
}

}  // namespace
}  // namespace ssdb::storage
