#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "fault_injection.h"
#include "test_helpers.h"

namespace ssdb::filter {
namespace {

using testing_helpers::BuildTestDb;
using testing_helpers::SmallAuctionXml;

// Finds the DOM node with a given pre number.
const xml::Node* FindByPre(const xml::Node* node, uint32_t pre) {
  if (node->pre == pre) return node;
  for (const auto& child : node->children) {
    if (!child->IsElement()) continue;
    const xml::Node* found = FindByPre(child.get(), pre);
    if (found != nullptr) return found;
  }
  return nullptr;
}

// True tag containment: does the subtree at `node` contain `name`?
bool SubtreeContains(const xml::Node* node, const std::string& name) {
  if (node->name == name) return true;
  for (const auto& child : node->children) {
    if (child->IsElement() && SubtreeContains(child.get(), name)) return true;
  }
  return false;
}

TEST(ServerFilterTest, NavigationMatchesDom) {
  auto db = BuildTestDb(SmallAuctionXml());
  auto root = db->server->Root();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->pre, 1u);
  EXPECT_EQ(root->parent, 0u);

  auto children = db->server->Children(root->pre);
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 3u);  // regions, people, open_auctions

  // Level-wise expansion delivers every proper descendant exactly once,
  // also when a candidate lies inside another candidate's subtree.
  for (const std::vector<NodeMeta>& from :
       {std::vector<NodeMeta>{*root},
        std::vector<NodeMeta>{(*children)[1], *root, (*children)[0]}}) {
    auto descendants = db->client->Descendants(from);
    ASSERT_TRUE(descendants.ok());
    std::set<uint32_t> distinct;
    for (const NodeMeta& node : *descendants) {
      EXPECT_GT(node.pre, root->pre);
      distinct.insert(node.pre);
    }
    EXPECT_EQ(distinct.size(), descendants->size());
    EXPECT_EQ(descendants->size(), db->doc.ElementCount() - 1);
  }
}

TEST(ServerFilterTest, UnknownNodeFailsAndLeafHasNoDescendants) {
  auto db = BuildTestDb(SmallAuctionXml());
  EXPECT_FALSE(db->server->GetNode(9999).ok());
  auto leaf = db->client->GetNode(db->doc.ElementCount());  // last in pre
  ASSERT_TRUE(leaf.ok());
  auto none = db->client->Descendants({*leaf});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // An empty candidate set costs no exchange at all.
  uint64_t before = db->server->RoundTrips();
  EXPECT_TRUE(db->client->Descendants({})->empty());
  EXPECT_EQ(db->server->RoundTrips(), before);
}

TEST(ClientFilterTest, DescendantsRejectChildOutsideParentSubtree) {
  // A server that lists a node as its own child (a cycle), or lists a node
  // from outside the parent's subtree, must end the walk with Corruption
  // instead of looping or returning foreign nodes.
  auto db = BuildTestDb(SmallAuctionXml());
  for (testing_helpers::Fault fault : {testing_helpers::Fault::kChildCycle,
                                       testing_helpers::Fault::kForeignChild}) {
    testing_helpers::FaultConfig config;
    config.fault = fault;
    config.on_children = true;
    testing_helpers::TamperingServerFilter tampering(db->ring,
                                                     db->server.get(), config);
    ClientFilter client(db->ring, prg::Prg(db->seed), &tampering);
    auto root = client.Root();
    ASSERT_TRUE(root.ok());
    auto descendants = client.Descendants({*root});
    ASSERT_FALSE(descendants.ok());
    EXPECT_EQ(descendants.status().code(), StatusCode::kCorruption)
        << descendants.status().ToString();
    EXPECT_GT(tampering.faults_injected(), 0u);
  }
}

TEST(ClientFilterTest, ContainmentMatchesDomTruth) {
  auto db = BuildTestDb(SmallAuctionXml());
  xml::AnnotatePrePost(&db->doc);
  uint64_t node_count = db->doc.ElementCount();

  // Exhaustively compare the containment test with DOM truth for every
  // (node, tag) pair — reduction must preserve subtree membership exactly.
  for (uint32_t pre = 1; pre <= node_count; ++pre) {
    auto meta = db->client->GetNode(pre);
    ASSERT_TRUE(meta.ok());
    const xml::Node* dom_node = FindByPre(db->doc.root(), pre);
    ASSERT_NE(dom_node, nullptr);
    for (const auto& [name, value] : db->map.entries()) {
      auto contains = db->client->ContainsValue(*meta, value);
      ASSERT_TRUE(contains.ok());
      EXPECT_EQ(*contains, SubtreeContains(dom_node, name))
          << "node pre=" << pre << " tag=" << name;
    }
  }
}

TEST(ClientFilterTest, EqualityRecoversOwnTag) {
  auto db = BuildTestDb(SmallAuctionXml());
  uint64_t node_count = db->doc.ElementCount();
  for (uint32_t pre = 1; pre <= node_count; ++pre) {
    auto meta = db->client->GetNode(pre);
    ASSERT_TRUE(meta.ok());
    const xml::Node* dom_node = FindByPre(db->doc.root(), pre);
    ASSERT_NE(dom_node, nullptr);
    auto own = db->client->RecoverOwnValue(*meta);
    ASSERT_TRUE(own.ok()) << own.status().ToString();
    EXPECT_EQ(*own, *db->map.Lookup(dom_node->name)) << "pre=" << pre;

    auto equals = db->client->EqualsValue(*meta, *db->map.Lookup(dom_node->name));
    ASSERT_TRUE(equals.ok());
    EXPECT_TRUE(*equals);
    // And it is not equal to some other tag that the subtree does contain.
    for (const auto& [name, value] : db->map.entries()) {
      if (name == dom_node->name) continue;
      if (!SubtreeContains(dom_node, name)) continue;
      auto not_equals = db->client->EqualsValue(*meta, value);
      ASSERT_TRUE(not_equals.ok());
      EXPECT_FALSE(*not_equals) << "pre=" << pre << " tag=" << name;
    }
  }
}

TEST(ClientFilterTest, BatchedContainsAllMatchesIndividualTests) {
  auto db = BuildTestDb(SmallAuctionXml());
  uint64_t node_count = db->doc.ElementCount();
  std::vector<gf::Elem> all_values;
  for (const auto& [name, value] : db->map.entries()) {
    all_values.push_back(value);
  }
  for (uint32_t pre = 1; pre <= node_count; ++pre) {
    auto meta = db->client->GetNode(pre);
    ASSERT_TRUE(meta.ok());
    // Batched answer == conjunction of individual containment tests, for
    // the full tag set and for a small subset.
    bool expected_all = true;
    for (gf::Elem v : all_values) {
      auto contains = db->client->ContainsValue(*meta, v);
      ASSERT_TRUE(contains.ok());
      expected_all = expected_all && *contains;
    }
    auto batched = db->client->ContainsAllValues(*meta, all_values);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(*batched, expected_all) << "pre=" << pre;
  }
  // Empty set is vacuously contained.
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(*db->client->ContainsAllValues(*root, {}));
  // One server call for a multi-value batch.
  db->client->stats().Reset();
  ASSERT_TRUE(db->client
                  ->ContainsAllValues(*root, {*db->map.Lookup("person"),
                                              *db->map.Lookup("city")})
                  .ok());
  EXPECT_EQ(db->client->stats().server_calls, 1u);
  EXPECT_EQ(db->client->stats().evaluations, 2u);
}

TEST(ClientFilterTest, StatsCountCosts) {
  auto db = BuildTestDb(SmallAuctionXml());
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  db->client->stats().Reset();

  gf::Elem person = *db->map.Lookup("person");
  ASSERT_TRUE(db->client->ContainsValue(*root, person).ok());
  EXPECT_EQ(db->client->stats().containment_tests, 1u);
  EXPECT_EQ(db->client->stats().evaluations, 1u);

  db->client->stats().Reset();
  ASSERT_TRUE(db->client->EqualsValue(*root, person).ok());
  // Equality cost: 1 + #children polynomial units (root has 3 children).
  EXPECT_EQ(db->client->stats().equality_tests, 1u);
  EXPECT_EQ(db->client->stats().evaluations, 4u);
  EXPECT_EQ(db->client->stats().shares_fetched, 4u);
}

TEST(ClientFilterTest, WrongSeedBreaksEverything) {
  // With a wrong seed the client regenerates garbage shares: containment
  // of the root tag in the root node should fail (overwhelmingly likely).
  auto db = BuildTestDb(SmallAuctionXml());
  filter::ClientFilter bad_client(db->ring,
                                  prg::Prg(prg::Seed::FromUint64(666)),
                                  db->server.get());
  auto root = bad_client.Root();
  ASSERT_TRUE(root.ok());
  auto contains = bad_client.ContainsValue(*root, *db->map.Lookup("site"));
  ASSERT_TRUE(contains.ok());
  EXPECT_FALSE(*contains);
  // The equality test detects the inconsistency outright.
  EXPECT_FALSE(bad_client.RecoverOwnValue(*root).ok());
}

TEST(ClientFilterTest, FigureOneExample) {
  // §3 / fig. 1: p = 5, map {a:2, b:1, c:3}, document c(b(a,b), c(a)).
  std::string xml = "<c><b><a/><b/></b><c><a/></c></c>";
  auto db = BuildTestDb(xml, /*p=*/5);
  // Map is assigned by first appearance: c=1, b=2, a=3. Look values up
  // rather than assuming fig. 1's exact assignment.
  gf::Elem a = *db->map.Lookup("a");
  gf::Elem b = *db->map.Lookup("b");
  gf::Elem c = *db->map.Lookup("c");

  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  // The root subtree contains all three tags.
  EXPECT_TRUE(*db->client->ContainsValue(*root, a));
  EXPECT_TRUE(*db->client->ContainsValue(*root, b));
  EXPECT_TRUE(*db->client->ContainsValue(*root, c));
  // Root node is a c.
  EXPECT_EQ(*db->client->RecoverOwnValue(*root), c);

  // First child (b subtree) contains a and b but no c.
  auto children = db->client->Children(*root);
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 2u);
  EXPECT_TRUE(*db->client->ContainsValue((*children)[0], a));
  EXPECT_TRUE(*db->client->ContainsValue((*children)[0], b));
  EXPECT_FALSE(*db->client->ContainsValue((*children)[0], c));
  EXPECT_EQ(*db->client->RecoverOwnValue((*children)[0]), b);
  // Second child (c subtree) contains a and c but no b.
  EXPECT_TRUE(*db->client->ContainsValue((*children)[1], a));
  EXPECT_FALSE(*db->client->ContainsValue((*children)[1], b));
  EXPECT_TRUE(*db->client->ContainsValue((*children)[1], c));
}

}  // namespace
}  // namespace ssdb::filter
