// Regression coverage for the batched evaluation pipeline: a query step
// costs a bounded number of server round trips regardless of candidate-set
// size — descendant wildcard steps included, which expand level by level —
// measured over a real unix-domain socket channel; and the scalar matching
// APIs remain exact wrappers over the batch path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "query/advanced_engine.h"
#include "query/ground_truth.h"
#include "query/simple_engine.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/socket_channel.h"
#include "test_helpers.h"

namespace ssdb {
namespace {

using testing_helpers::BuildTestDb;
using testing_helpers::SmallAuctionXml;
using testing_helpers::TestDb;

// A flat document whose candidate sets grow with `persons` while the query
// shape (step count) stays fixed.
std::string WideXml(int persons) {
  std::string xml = "<site><people>";
  for (int i = 0; i < persons; ++i) {
    xml += "<person><address><city>X</city></address></person>";
  }
  xml += "</people></site>";
  return xml;
}

// Serves `db` over a unix socket on a background thread and runs `body`
// with a connected RemoteServerFilter.
void WithRemote(TestDb* db,
                const std::function<void(rpc::RemoteServerFilter*)>& body) {
  std::string path = "/tmp/ssdb_batch_test_" + std::to_string(::getpid()) +
                     "_" + std::to_string(reinterpret_cast<uintptr_t>(db)) +
                     ".sock";
  auto listener = rpc::UnixServerSocket::Listen(path);
  ASSERT_TRUE(listener.ok());
  std::thread server_thread([&] {
    auto channel = (*listener)->Accept();
    if (!channel.ok()) return;
    rpc::RpcServer server(db->ring, db->server.get());
    server.Serve(channel->get());
  });
  auto channel = rpc::ConnectUnix(path);
  ASSERT_TRUE(channel.ok());
  rpc::RemoteServerFilter remote(db->ring, std::move(*channel));
  body(&remote);
  ASSERT_TRUE(remote.Shutdown().ok());
  server_thread.join();
  ::unlink(path.c_str());
}

// Round trips consumed by one query, measured at the wire. A strict result
// must equal the plaintext ground truth, a containment result contain it.
uint64_t MeasureTrips(TestDb* db, rpc::RemoteServerFilter* remote,
                      query::QueryEngine* engine, const std::string& text,
                      query::MatchMode mode, size_t* result_size = nullptr,
                      query::QueryStats* stats_out = nullptr) {
  auto parsed = query::ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << text;
  uint64_t before = remote->round_trips();
  query::QueryStats stats;
  auto result = engine->Execute(*parsed, mode, &stats);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  uint64_t trips = remote->round_trips() - before;
  if (result_size != nullptr) *result_size = result->size();
  if (stats_out != nullptr) *stats_out = stats;
  auto truth = query::EvaluateGroundTruth(*parsed, db->doc);
  EXPECT_TRUE(truth.ok()) << text;
  std::set<uint32_t> expected(truth->begin(), truth->end());
  std::set<uint32_t> actual;
  for (const filter::NodeMeta& node : *result) actual.insert(node.pre);
  if (mode == query::MatchMode::kEquality) {
    EXPECT_EQ(actual, expected) << text;
  } else {
    EXPECT_TRUE(std::includes(actual.begin(), actual.end(), expected.begin(),
                              expected.end()))
        << text;
  }
  EXPECT_EQ(actual.size(), result->size()) << text << ": duplicates";
  return trips;
}

// Queries whose trip count must not depend on the candidate count: a
// 5-step child path, and wildcard descendant steps, which cost one
// exchange per tree level however wide each level is.
const char* kFlatTripQueries[] = {
    "/site/people/person/address/city",
    "/site//*",
    "/site/people//*",
    "//person//*",
};

const char* kPrefixQueries[] = {
    "/site",
    "/site/people",
    "/site/people/person",
    "/site/people/person/address",
    "/site/people/person/address/city",
};

TEST(BatchPipelineTest, RoundTripsScaleWithStepsNotCandidates) {
  // The same query over documents with 8x different candidate counts must
  // cost the *identical* number of wire round trips in either mode, with
  // results checked against the ground truth at both sizes.
  for (const char* text : kFlatTripQueries) {
    for (auto mode :
         {query::MatchMode::kContainment, query::MatchMode::kEquality}) {
      std::vector<uint64_t> trips_by_size;
      for (int persons : {5, 40}) {
        auto db = BuildTestDb(WideXml(persons));
        WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
          filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
          query::SimpleEngine engine(&client, &db->map);
          size_t results = 0;
          query::QueryStats stats;
          uint64_t trips = MeasureTrips(db.get(), remote, &engine, text, mode,
                                        &results, &stats);
          trips_by_size.push_back(trips);
          EXPECT_GT(results, 0u) << text;
          // On this document containment is exact for the city path: one
          // city per person, in both modes.
          if (std::string(text) == kPrefixQueries[4]) {
            EXPECT_EQ(results, static_cast<size_t>(persons)) << text;
          }
          // The engine-visible counter agrees with the wire.
          EXPECT_EQ(stats.eval.round_trips, trips) << text;
        });
      }
      ASSERT_EQ(trips_by_size.size(), 2u);
      EXPECT_EQ(trips_by_size[0], trips_by_size[1])
          << text << ": round trips must not depend on candidate-set size";
    }
  }

  // Simple engine, child steps only: Root + one eval batch for the first
  // step + (children batch + eval batch) per later step = 2s round trips
  // for an s-step query.
  auto db = BuildTestDb(WideXml(40));
  WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
    filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
    query::SimpleEngine engine(&client, &db->map);
    size_t results = 0;
    query::QueryStats stats;
    uint64_t trips = MeasureTrips(db.get(), remote, &engine,
                                  kPrefixQueries[4],
                                  query::MatchMode::kContainment, &results,
                                  &stats);
    EXPECT_EQ(results, 40u);
    EXPECT_GT(stats.eval.batched_evaluations, 0u);
    constexpr uint64_t kSteps = 5;
    EXPECT_LE(trips, 2 * kSteps);
  });
}

TEST(BatchPipelineTest, RoundTripsGrowLinearlyWithQueryLength) {
  auto db = BuildTestDb(WideXml(16));
  WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
    filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
    query::SimpleEngine engine(&client, &db->map);
    uint64_t previous = 0;
    for (size_t i = 0; i < std::size(kPrefixQueries); ++i) {
      uint64_t trips = MeasureTrips(db.get(), remote, &engine,
                                    kPrefixQueries[i],
                                    query::MatchMode::kContainment);
      EXPECT_LE(trips, 2 * (i + 1)) << kPrefixQueries[i];
      if (i > 0) {
        // Each extra step costs a bounded constant number of trips.
        EXPECT_LE(trips, previous + 2) << kPrefixQueries[i];
      }
      previous = trips;
    }
  });
}

TEST(BatchPipelineTest, AdvancedEngineTripsIndependentOfCandidates) {
  for (const char* text : kFlatTripQueries) {
    for (auto mode :
         {query::MatchMode::kContainment, query::MatchMode::kEquality}) {
      std::vector<uint64_t> trips_by_size;
      for (int persons : {5, 40}) {
        auto db = BuildTestDb(WideXml(persons));
        WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
          filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
          query::AdvancedEngine engine(&client, &db->map);
          trips_by_size.push_back(
              MeasureTrips(db.get(), remote, &engine, text, mode));
        });
      }
      ASSERT_EQ(trips_by_size.size(), 2u);
      EXPECT_EQ(trips_by_size[0], trips_by_size[1]) << text;
    }
  }
}

TEST(BatchPipelineTest, EqualityModeTripsIndependentOfCandidates) {
  std::vector<uint64_t> trips_by_size;
  std::vector<size_t> results_by_size;
  for (int persons : {4, 24}) {
    auto db = BuildTestDb(WideXml(persons));
    WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
      filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
      query::SimpleEngine engine(&client, &db->map);
      size_t results = 0;
      trips_by_size.push_back(
          MeasureTrips(db.get(), remote, &engine, "/site/people/person",
                       query::MatchMode::kEquality, &results));
      results_by_size.push_back(results);
    });
  }
  ASSERT_EQ(trips_by_size.size(), 2u);
  EXPECT_EQ(trips_by_size[0], trips_by_size[1])
      << "equality batching must be per step, not per candidate";
  EXPECT_EQ(results_by_size[0], 4u);
  EXPECT_EQ(results_by_size[1], 24u);
}

TEST(BatchPipelineTest, ScalarMethodsMatchBatchPath) {
  auto db = BuildTestDb(SmallAuctionXml());
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  auto children = db->client->Children(*root);
  ASSERT_TRUE(children.ok());
  std::vector<filter::NodeMeta> nodes = *children;
  nodes.push_back(*root);

  for (const char* name : {"person", "city", "site", "open_auction"}) {
    gf::Elem value = *db->map.Lookup(name);
    auto batch = db->client->ContainsValueBatch(nodes, value);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      auto scalar = db->client->ContainsValue(nodes[i], value);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(*scalar, (*batch)[i] != 0) << name << " pre=" << nodes[i].pre;
    }

    auto eq_batch = db->client->EqualsValueBatch(nodes, value);
    ASSERT_TRUE(eq_batch.ok());
    for (size_t i = 0; i < nodes.size(); ++i) {
      auto scalar = db->client->EqualsValue(nodes[i], value);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(*scalar, (*eq_batch)[i] != 0) << name;
    }
  }

  // Multi-value containment: batch mask equals per-node ContainsAllValues.
  std::vector<gf::Elem> values = {*db->map.Lookup("person"),
                                  *db->map.Lookup("city")};
  auto all_mask = db->client->ContainsAllValuesBatch(nodes, values);
  ASSERT_TRUE(all_mask.ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto scalar = db->client->ContainsAllValues(nodes[i], values);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(*scalar, (*all_mask)[i] != 0);
  }
}

TEST(BatchPipelineTest, RecoverOwnValueBatchDeduplicatesShares) {
  auto db = BuildTestDb(SmallAuctionXml());
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  auto children = db->client->Children(*root);
  ASSERT_TRUE(children.ok());

  // Overlapping candidates: the root plus its children; the children's
  // shares are needed both as candidates and as the root's child set.
  std::vector<filter::NodeMeta> nodes = *children;
  nodes.push_back(*root);
  db->client->stats().Reset();
  auto values = db->client->RecoverOwnValueBatch(nodes);
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto scalar = db->client->RecoverOwnValue(nodes[i]);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(*scalar, (*values)[i]);
  }
}

TEST(BatchPipelineTest, EnginesAgreeLocalAndRemoteBothModes) {
  auto db = BuildTestDb(SmallAuctionXml());
  const char* queries[] = {"/site//city", "/site/people/person",
                           "//person/address", "/site/*/person"};
  for (const char* text : queries) {
    auto parsed = query::ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    for (auto mode :
         {query::MatchMode::kContainment, query::MatchMode::kEquality}) {
      // Local reference.
      query::SimpleEngine local_simple(db->client.get(), &db->map);
      query::AdvancedEngine local_advanced(db->client.get(), &db->map);
      auto local_s = local_simple.Execute(*parsed, mode, nullptr);
      auto local_a = local_advanced.Execute(*parsed, mode, nullptr);
      ASSERT_TRUE(local_s.ok() && local_a.ok()) << text;
      EXPECT_EQ(*local_s, *local_a) << text;

      WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
        filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
        query::SimpleEngine remote_simple(&client, &db->map);
        query::AdvancedEngine remote_advanced(&client, &db->map);
        auto remote_s = remote_simple.Execute(*parsed, mode, nullptr);
        auto remote_a = remote_advanced.Execute(*parsed, mode, nullptr);
        ASSERT_TRUE(remote_s.ok() && remote_a.ok()) << text;
        EXPECT_EQ(*remote_s, *local_s) << text;
        EXPECT_EQ(*remote_a, *local_a) << text;
      });
    }
  }
}

}  // namespace
}  // namespace ssdb
