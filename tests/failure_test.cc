// Failure injection: corrupted pages, tampered shares, truncated files,
// malformed RPC frames, wrong key material. The system must degrade into
// clean Status errors (or detectable inconsistency), never undefined
// behaviour or silent wrong answers in strict mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "query/simple_engine.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "storage/table.h"
#include "test_helpers.h"
#include "util/file_util.h"

namespace ssdb {
namespace {

using testing_helpers::BuildTestDb;
using testing_helpers::Row;
using testing_helpers::SmallAuctionXml;

TEST(FailureTest, CorruptedPageIsDetectedByChecksum) {
  TempDir dir("fail_page");
  std::string path = dir.FilePath("db");
  {
    auto store = storage::DiskNodeStore::Create(path);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 1; i <= 200; ++i) {
      ASSERT_TRUE(
          (*store)
              ->Insert(Row(i, i, i == 1 ? 0 : 1, std::string(70, 'x')))
              .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Flip a byte in the middle of a data page (skip the meta page).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(storage::kPageSize) + 600);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(storage::kPageSize) + 600);
    byte = static_cast<char>(byte ^ 0xff);
    f.write(&byte, 1);
  }
  // Depending on which structure owns the flipped page (catalog, index or
  // heap), either opening the store or reading some row must surface a
  // checksum Corruption — never a silent wrong answer.
  auto store = storage::DiskNodeStore::Open(path);
  if (!store.ok()) {
    EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
    return;
  }
  bool saw_corruption = false;
  for (uint32_t i = 1; i <= 200; ++i) {
    auto row = (*store)->GetByPre(i);
    if (!row.ok()) {
      EXPECT_TRUE(row.status().IsCorruption()) << row.status().ToString();
      saw_corruption = true;
      break;
    }
  }
  EXPECT_TRUE(saw_corruption);
}

TEST(FailureTest, TruncatedFileIsRejected) {
  TempDir dir("fail_trunc");
  std::string path = dir.FilePath("db");
  {
    auto store = storage::DiskNodeStore::Create(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Insert(Row(1, 1, 0, "x")).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  // Chop the file to a non-page-multiple size.
  std::filesystem::resize_file(path, *size - 100);
  EXPECT_FALSE(storage::DiskNodeStore::Open(path).ok());
}

TEST(FailureTest, NotADatabaseFileIsRejected) {
  TempDir dir("fail_magic");
  std::string path = dir.FilePath("db");
  ASSERT_TRUE(
      WriteStringToFile(path, std::string(2 * storage::kPageSize, 'z'))
          .ok());
  EXPECT_FALSE(storage::DiskNodeStore::Open(path).ok());
}

TEST(FailureTest, TamperedShareFailsEqualityVerification) {
  auto db = BuildTestDb(SmallAuctionXml());
  db->client->set_full_verification(true);

  // Tamper: replace node 2's share with node 3's (both valid encodings).
  auto row2 = db->store->GetByPre(2);
  auto row3 = db->store->GetByPre(3);
  ASSERT_TRUE(row2.ok() && row3.ok());
  storage::MemoryNodeStore tampered;
  uint64_t n = *db->store->NodeCount();
  for (uint32_t pre = 1; pre <= n; ++pre) {
    auto row = *db->store->GetByPre(pre);
    if (pre == 2) row.share = row3->share;
    ASSERT_TRUE(tampered.Insert(row).ok());
  }
  filter::LocalServerFilter server(db->ring, &tampered);
  filter::ClientFilter client(db->ring, prg::Prg(db->seed), &server);
  client.set_full_verification(true);

  auto node = client.GetNode(2);
  ASSERT_TRUE(node.ok());
  // The recovered "own value" comes from an inconsistent polynomial; the
  // division check must flag it (node 2 has children in this document).
  auto own = client.RecoverOwnValue(*node);
  EXPECT_FALSE(own.ok());
  EXPECT_TRUE(own.status().IsCorruption()) << own.status().ToString();
}

TEST(FailureTest, MalformedRpcRequestsGetErrorResponses) {
  auto db = BuildTestDb(SmallAuctionXml());
  rpc::RpcServer server(db->ring, db->server.get());
  // Empty request, unknown op, truncated fields: all must produce error
  // envelopes, never crashes.
  for (std::string bad : {std::string(), std::string("\x63"),
                          std::string("\x02"), std::string("\x07\x01")}) {
    std::string response = server.HandleRequest(bad);
    auto decoded = rpc::DecodeResponse(response);
    EXPECT_FALSE(decoded.ok());
  }
  // A well-formed request for a missing node: transported NotFound.
  rpc::Request request;
  request.op = rpc::Op::kGetNode;
  request.pre = 424242;
  auto decoded = rpc::DecodeResponse(
      server.HandleRequest(rpc::EncodeRequest(request)));
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsNotFound());
}

TEST(FailureTest, WrongMapGivesCleanEmptyResults) {
  // Querying with a permuted tag map must not crash; in strict mode the
  // equality test simply never matches the wrong values.
  auto db = BuildTestDb(SmallAuctionXml());
  std::vector<std::string> names;
  for (const auto& [name, value] : db->map.entries()) names.push_back(name);
  std::rotate(names.begin(), names.begin() + 1, names.end());
  auto wrong_map = mapping::TagMap::FromNames(names, db->field);
  ASSERT_TRUE(wrong_map.ok());

  query::SimpleEngine engine(db->client.get(), &*wrong_map);
  auto parsed = query::ParseQuery("/site/people/person");
  ASSERT_TRUE(parsed.ok());
  auto result = engine.Execute(*parsed, query::MatchMode::kEquality,
                               nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(FailureTest, ShareDeserializationRejectsWrongLength) {
  auto field = *gf::Field::Make(83);
  gf::Ring ring(field);
  EXPECT_FALSE(ring.Deserialize("short").ok());
  std::string valid(ring.serialized_bytes(), '\0');
  EXPECT_TRUE(ring.Deserialize(valid).ok());
}

TEST(FailureTest, OutOfRangeQueriesAndDescendants) {
  auto db = BuildTestDb(SmallAuctionXml());
  EXPECT_FALSE(db->server->EvalAt(99999, 5).ok());
  EXPECT_FALSE(db->server->FetchShare(99999).ok());
  // A node past the end has no children to expand, so its descendant
  // walk ends after one level with nothing; the root's still delivers
  // every proper descendant exactly once.
  auto none = db->client->Descendants({filter::NodeMeta{31337, 31337, 1}});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  auto all = db->client->Descendants({*root});
  ASSERT_TRUE(all.ok());
  std::set<uint32_t> distinct;
  for (const filter::NodeMeta& node : *all) distinct.insert(node.pre);
  EXPECT_EQ(distinct.size(), all->size());
  EXPECT_EQ(all->size(), db->doc.ElementCount() - 1);
}

}  // namespace
}  // namespace ssdb
