// Unit tests for the core protocol's passive pieces: MessageStore,
// GossipQueue, ProtocolConfig, Metrics, DecodedFrame. The live node is
// exercised in node_test.cpp and the integration suites.
#include <gtest/gtest.h>

#include "core/config.h"
#include "core/decoded_frame.h"
#include "core/gossip.h"
#include "core/message_store.h"
#include "stats/metrics.h"

namespace byzcast::core {
namespace {

DataMsg make_msg(NodeId origin, std::uint32_t seq) {
  DataMsg m;
  m.id = {origin, seq};
  m.payload = {static_cast<std::uint8_t>(seq)};
  return m;
}

// ---------------------------------------------------------------------------
// DecodedFrame: one decode per transmission
// ---------------------------------------------------------------------------

TEST(DecodedFrame, MemoIsKeyedByBufferIdentityAndPki) {
  crypto::Pki pki(des::Rng(5));
  crypto::Pki other_pki(des::Rng(5));
  util::Buffer wire = serialize(make_msg(1, 2));
  auto first = decode_frame(wire, pki);
  ASSERT_TRUE(first->packet().has_value());
  // Another receiver's copy of the same transmission: the same frame.
  util::Buffer copy = wire;
  EXPECT_EQ(decode_frame(copy, pki), first);
  EXPECT_EQ(decode_frame(wire.slice(0, wire.size()), pki), first);
  // Equal bytes in another allocation are another transmission.
  auto elsewhere = decode_frame(util::Buffer::copy_of(wire), pki);
  EXPECT_NE(elsewhere, first);
  ASSERT_TRUE(elsewhere->packet().has_value());
  // The memo holds one frame: going back to `wire` decodes it afresh.
  auto again = decode_frame(wire, pki);
  EXPECT_NE(again, first);
  EXPECT_NE(again, elsewhere);
  EXPECT_NE(decode_frame(wire, other_pki), again);
  EXPECT_FALSE(decode_frame(wire.slice(0, wire.size() - 1), pki)
                   ->packet()
                   .has_value());
}

TEST(DecodedFrame, EachSignedPartIsJudgedOnce) {
  crypto::Pki pki(des::Rng(5));
  GossipMsg gossip;
  gossip.entries.push_back({{1, 0}, {0x11}});
  gossip.entries.push_back({{2, 0}, {0x22}});
  HelloMsg hello;
  hello.from = 3;
  gossip.hello = hello;
  auto frame = decode_frame(serialize(gossip), pki);
  const auto& parsed = std::get<GossipMsg>(*frame->packet());

  int calls = 0;
  auto verify_as = [&calls](bool verdict) {
    return [&calls, verdict] {
      ++calls;
      return verdict;
    };
  };
  EXPECT_TRUE(frame->judge(&parsed.entries[0], verify_as(true)));
  EXPECT_TRUE(frame->judge(&parsed.entries[0], verify_as(false)));
  EXPECT_EQ(calls, 1);  // the second receiver reused the first's verdict
  EXPECT_FALSE(frame->judge(&parsed.entries[1], verify_as(false)));
  EXPECT_FALSE(frame->judge(&parsed.entries[1], verify_as(true)));
  EXPECT_TRUE(frame->judge(&*parsed.hello, verify_as(true)));
  EXPECT_TRUE(frame->judge(&*parsed.hello, verify_as(false)));
  EXPECT_EQ(calls, 3);
  // A copy is not part of the frame: judged afresh every time.
  GossipEntry copy = parsed.entries[1];
  EXPECT_TRUE(frame->judge(&copy, verify_as(true)));
  EXPECT_TRUE(frame->judge(&copy, verify_as(true)));
  EXPECT_EQ(calls, 5);
}

// ---------------------------------------------------------------------------
// MessageStore
// ---------------------------------------------------------------------------

TEST(MessageStore, InsertAndFind) {
  MessageStore store;
  EXPECT_TRUE(store.insert(make_msg(1, 0), 100));
  EXPECT_FALSE(store.insert(make_msg(1, 0), 200));  // duplicate
  EXPECT_TRUE(store.has({1, 0}));
  EXPECT_FALSE(store.has({1, 1}));
  ASSERT_NE(store.find({1, 0}), nullptr);
  EXPECT_EQ(store.find({1, 0})->received_at, 100u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(MessageStore, AcceptedExactlyOnce) {
  MessageStore store;
  EXPECT_TRUE(store.mark_accepted({1, 0}));
  EXPECT_FALSE(store.mark_accepted({1, 0}));
  EXPECT_TRUE(store.accepted({1, 0}));
  EXPECT_FALSE(store.accepted({1, 1}));
  EXPECT_EQ(store.accepted_count(), 1u);
}

TEST(MessageStore, OutOfOrderInsertsStayFindable) {
  MessageStore store;
  const MessageId ids[] = {{3, 5}, {1, 9}, {3, 0}, {2, 2}, {1, 0}, {3, 2}};
  for (std::size_t i = 0; i < std::size(ids); ++i) {
    EXPECT_TRUE(store.insert(make_msg(ids[i].origin, ids[i].seq), i));
  }
  EXPECT_EQ(store.size(), std::size(ids));
  for (std::size_t i = 0; i < std::size(ids); ++i) {
    const MessageStore::Stored* stored = store.find(ids[i]);
    ASSERT_NE(stored, nullptr) << i;
    EXPECT_EQ(stored->msg.id, ids[i]);
    EXPECT_EQ(stored->received_at, i);
  }
  EXPECT_FALSE(store.has({2, 0}));
  EXPECT_FALSE(store.has({4, 0}));
  EXPECT_FALSE(store.insert(make_msg(2, 2), 99));  // duplicate, any order
}

TEST(MessageStore, StoredRangeOrderedAcrossOrigins) {
  MessageStore store;
  for (std::uint32_t seq : {4u, 1u, 3u, 0u}) store.insert(make_msg(2, seq), 0);
  for (std::uint32_t seq : {2u, 0u, 1u}) store.insert(make_msg(1, seq), 0);
  for (std::uint32_t seq : {1u, 0u}) store.insert(make_msg(3, seq), 0);
  auto seqs = [&](NodeId origin, std::uint32_t from, std::uint32_t count) {
    std::vector<std::uint32_t> out;
    for (const MessageStore::Stored* s :
         store.stored_range(origin, from, count)) {
      EXPECT_EQ(s->msg.id.origin, origin);
      out.push_back(s->msg.id.seq);
    }
    return out;
  };
  EXPECT_EQ(seqs(2, 0, 10), (std::vector<std::uint32_t>{0, 1, 3, 4}));
  EXPECT_EQ(seqs(2, 1, 3), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(seqs(1, 0, 100), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(seqs(3, 1, 1), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(seqs(0, 0, 100).empty());
}

TEST(MessageStore, ClaimGossipIsFirstOnceAndAbsentForMissing) {
  MessageStore store;
  using Claim = MessageStore::GossipClaim;
  EXPECT_EQ(store.claim_gossip({1, 0}), Claim::kAbsent);
  store.insert(make_msg(1, 0), 0);
  store.insert(make_msg(1, 1), 0);
  EXPECT_EQ(store.claim_gossip({1, 0}), Claim::kFirst);
  EXPECT_EQ(store.claim_gossip({1, 0}), Claim::kClaimed);
  EXPECT_EQ(store.claim_gossip({1, 0}), Claim::kClaimed);
  EXPECT_EQ(store.claim_gossip({1, 1}), Claim::kFirst);  // per id
  EXPECT_EQ(store.claim_gossip({1, 2}), Claim::kAbsent);
  // The claim lives with the stored entry: once purged, the id is absent
  // again, and a fresh copy can be relayed anew.
  store.purge(des::seconds(10), des::seconds(5));
  EXPECT_EQ(store.claim_gossip({1, 0}), Claim::kAbsent);
  store.insert(make_msg(1, 0), des::seconds(10));
  EXPECT_EQ(store.claim_gossip({1, 0}), Claim::kFirst);
}

TEST(MessageStore, StoredPointerSurvivesOtherInserts) {
  MessageStore store;
  store.insert(make_msg(5, 5), 0);
  MessageStore::Stored* held = store.find({5, 5});
  ASSERT_NE(held, nullptr);
  const std::uint8_t* payload = held->msg.payload.data();
  // Inserts on both sides of the held id move the index around it.
  for (std::uint32_t seq = 0; seq < 200; ++seq) {
    store.insert(make_msg(seq % 2 == 0 ? 1 : 9, seq), 0);
  }
  EXPECT_EQ(store.find({5, 5}), held);
  EXPECT_EQ(held->msg.id, (MessageId{5, 5}));
  EXPECT_EQ(held->msg.payload.data(), payload);
}

TEST(MessageStore, PurgeDropsOldMessagesOnly) {
  MessageStore store;
  store.insert(make_msg(1, 0), des::seconds(1));
  store.insert(make_msg(1, 1), des::seconds(50));
  store.insert(make_msg(0, 7), des::seconds(2));
  store.insert(make_msg(2, 3), des::seconds(40));
  store.mark_accepted({1, 0});

  store.purge(des::seconds(60), des::seconds(30));
  EXPECT_FALSE(store.has({1, 0}));  // 59 s old > 30 s
  EXPECT_FALSE(store.has({0, 7}));
  EXPECT_TRUE(store.has({1, 1}));   // 10 s old
  EXPECT_TRUE(store.has({2, 3}));
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.find({2, 3}), nullptr);
  EXPECT_EQ(store.find({2, 3})->received_at, des::seconds(40));
  // Accepted ids survive (at-most-once outlives purging).
  EXPECT_TRUE(store.accepted({1, 0}));
}

TEST(MessageStore, PurgeBeforeMaxAgeIsNoop) {
  MessageStore store;
  store.insert(make_msg(1, 0), 0);
  store.purge(des::seconds(10), des::seconds(30));
  EXPECT_TRUE(store.has({1, 0}));
}

TEST(MessageStore, AtMostOnceSurvivesPurgeCycle) {
  // A duplicate arriving after its buffer entry was purged must still be
  // rejected — the validity property's second clause.
  MessageStore store;
  store.insert(make_msg(1, 0), 0);
  store.mark_accepted({1, 0});
  store.purge(des::seconds(100), des::seconds(30));
  EXPECT_FALSE(store.has({1, 0}));
  EXPECT_FALSE(store.mark_accepted({1, 0}));
}

TEST(MessageStore, StabilityPrefixTracksContiguousAccepts) {
  MessageStore store;
  EXPECT_EQ(store.stability_prefix(1), 0u);
  store.mark_accepted({1, 0});
  EXPECT_EQ(store.stability_prefix(1), 1u);
  store.mark_accepted({1, 2});  // gap at seq 1
  EXPECT_EQ(store.stability_prefix(1), 1u);
  store.mark_accepted({1, 1});  // gap filled: prefix jumps past both
  EXPECT_EQ(store.stability_prefix(1), 3u);
  // Independent per origin.
  store.mark_accepted({2, 0});
  EXPECT_EQ(store.stability_prefix(2), 1u);
  EXPECT_EQ(store.stability_prefix(1), 3u);
}

TEST(MessageStore, StabilityVectorListsNonZeroOrigins) {
  MessageStore store;
  EXPECT_TRUE(store.stability_vector().empty());
  store.mark_accepted({5, 0});
  store.mark_accepted({5, 1});
  store.mark_accepted({9, 1});  // gap at 0: prefix stays 0, not listed
  auto v = store.stability_vector();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], (std::pair<NodeId, std::uint32_t>{5, 2}));
}

TEST(MessageStore, PurgeIfDropsOnlyStableAndOldEnough) {
  MessageStore store;
  store.insert(make_msg(1, 0), des::seconds(1));
  store.insert(make_msg(1, 1), des::seconds(1));
  store.insert(make_msg(1, 2), des::seconds(9));  // too young
  auto stable = [](const MessageId& id) { return id.seq != 1; };
  store.purge_if(des::seconds(10), /*min_age=*/des::seconds(5), stable);
  EXPECT_FALSE(store.has({1, 0}));  // old + stable
  EXPECT_TRUE(store.has({1, 1}));   // old but not stable
  EXPECT_TRUE(store.has({1, 2}));   // stable but too young
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.find({1, 1}), nullptr);
  EXPECT_EQ(store.find({1, 1})->msg.id, (MessageId{1, 1}));
}

TEST(MessageStore, PurgeIfAsksInIdOrder) {
  MessageStore store;
  for (std::uint32_t seq : {3u, 0u, 2u}) store.insert(make_msg(2, seq), 0);
  store.insert(make_msg(1, 4), 0);
  std::vector<MessageId> asked;
  store.purge_if(des::seconds(10), des::seconds(1),
                 [&asked](const MessageId& id) {
                   asked.push_back(id);
                   return id.seq % 2 == 0;
                 });
  EXPECT_EQ(asked, (std::vector<MessageId>{{1, 4}, {2, 0}, {2, 2}, {2, 3}}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.has({2, 3}));
}

// ---------------------------------------------------------------------------
// GossipQueue
// ---------------------------------------------------------------------------

GossipEntry entry(NodeId origin, std::uint32_t seq) {
  return {{origin, seq}, {0x42}};
}

TEST(GossipQueue, RepeatsEntryConfiguredTimes) {
  GossipQueue q({.repeats = 3, .max_entries_per_packet = 32});
  q.enqueue(entry(1, 0));
  for (int round = 0; round < 3; ++round) {
    auto packets = q.flush();
    ASSERT_EQ(packets.size(), 1u) << "round " << round;
    EXPECT_EQ(packets[0].entries.size(), 1u);
  }
  EXPECT_TRUE(q.flush().empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(GossipQueue, AggregatesIntoBundles) {
  GossipQueue q({.repeats = 1, .max_entries_per_packet = 4});
  for (std::uint32_t i = 0; i < 10; ++i) q.enqueue(entry(1, i));
  auto packets = q.flush();
  ASSERT_EQ(packets.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(packets[0].entries.size(), 4u);
  EXPECT_EQ(packets[2].entries.size(), 2u);
}

TEST(GossipQueue, ReenqueueRefreshesInsteadOfDuplicating) {
  GossipQueue q({.repeats = 2, .max_entries_per_packet = 32});
  q.enqueue(entry(1, 0));
  (void)q.flush();  // one repeat consumed
  q.enqueue(entry(1, 0));  // refresh
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.flush()[0].entries.size(), 1u);
  EXPECT_EQ(q.flush()[0].entries.size(), 1u);  // refreshed to 2 repeats
  EXPECT_TRUE(q.flush().empty());
}

TEST(GossipQueue, DropRemovesEntry) {
  GossipQueue q({.repeats = 5, .max_entries_per_packet = 32});
  q.enqueue(entry(1, 0));
  q.enqueue(entry(1, 1));
  q.drop({1, 0});
  auto packets = q.flush();
  ASSERT_EQ(packets.size(), 1u);
  ASSERT_EQ(packets[0].entries.size(), 1u);
  EXPECT_EQ(packets[0].entries[0].id, (MessageId{1, 1}));
}

// ---------------------------------------------------------------------------
// ProtocolConfig
// ---------------------------------------------------------------------------

TEST(ProtocolConfig, MaxTimeoutMatchesAnalysisFormula) {
  ProtocolConfig config;
  config.gossip_period = des::millis(500);
  config.request_timeout = des::millis(150);
  config.reply_suppress = des::millis(100);
  config.beta = des::millis(5);
  EXPECT_EQ(config.max_timeout(), des::millis(500 + 150 + 100 + 15));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, DeliveryRatioAveragesOverBroadcasts) {
  stats::Metrics m;
  m.on_broadcast({1, 0}, 0, /*targets=*/2);
  m.on_broadcast({1, 1}, 0, /*targets=*/2);
  m.on_accept({1, 0}, 5, des::millis(10));
  m.on_accept({1, 0}, 6, des::millis(20));
  m.on_accept({1, 1}, 5, des::millis(10));
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), (1.0 + 0.5) / 2);
  EXPECT_DOUBLE_EQ(m.full_delivery_fraction(), 0.5);
  EXPECT_EQ(m.latency().count(), 3u);
}

TEST(Metrics, FlagsDuplicateAndUnknownAccepts) {
  stats::Metrics m;
  m.on_broadcast({1, 0}, 0, 2);
  m.on_accept({1, 0}, 5, 10);
  m.on_accept({1, 0}, 5, 20);   // duplicate
  m.on_accept({9, 9}, 5, 30);   // unknown key
  EXPECT_EQ(m.duplicate_accepts(), 1u);
  EXPECT_EQ(m.unknown_accepts(), 1u);
  EXPECT_EQ(m.latency().count(), 1u);  // only the first accept counted
}

TEST(Metrics, PacketAccounting) {
  stats::Metrics m;
  m.on_packet_sent(stats::MsgKind::kData, 100);
  m.on_packet_sent(stats::MsgKind::kData, 50);
  m.on_packet_sent(stats::MsgKind::kGossip, 10);
  EXPECT_EQ(m.packets(stats::MsgKind::kData), 2u);
  EXPECT_EQ(m.packet_bytes(stats::MsgKind::kData), 150u);
  EXPECT_EQ(m.total_packets(), 3u);
  EXPECT_EQ(m.total_packet_bytes(), 160u);
}

TEST(Metrics, LatencyPercentiles) {
  stats::LatencyRecorder rec;
  EXPECT_EQ(rec.percentile(0.5), 0.0);  // empty
  for (int i = 1; i <= 100; ++i) rec.record(i);
  EXPECT_DOUBLE_EQ(rec.mean(), 50.5);
  EXPECT_DOUBLE_EQ(rec.percentile(0.5), 50);
  EXPECT_DOUBLE_EQ(rec.percentile(0.99), 99);
  EXPECT_DOUBLE_EQ(rec.percentile(1.0), 100);
  EXPECT_DOUBLE_EQ(rec.max(), 100);
}

}  // namespace
}  // namespace byzcast::core
