#include <gtest/gtest.h>

#include <algorithm>

#include "core/message.h"
#include "des/rng.h"

namespace byzcast::core {
namespace {

DataMsg sample_data() {
  DataMsg m;
  m.id = {7, 42};
  m.ttl = 2;
  m.payload = {1, 2, 3, 4, 5};
  m.sig = {0x1111111111111111ULL};
  m.gossip_sig = {0x2222222222222222ULL};
  return m;
}

TEST(Message, DataRoundTrip) {
  DataMsg m = sample_data();
  auto bytes = serialize(Packet{m});
  auto parsed = parse_packet(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* d = std::get_if<DataMsg>(&*parsed);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->id, m.id);
  EXPECT_EQ(d->ttl, m.ttl);
  EXPECT_EQ(d->payload, m.payload);
  EXPECT_EQ(d->sig, m.sig);
  EXPECT_EQ(d->gossip_sig, m.gossip_sig);
}

TEST(Message, GossipRoundTripAggregated) {
  GossipMsg m;
  for (std::uint32_t i = 0; i < 10; ++i) {
    m.entries.push_back({{i, i * 2}, {0x3333ULL + i}});
  }
  auto parsed = parse_packet(serialize(Packet{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* g = std::get_if<GossipMsg>(&*parsed);
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->entries.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(g->entries[i].id, (MessageId{i, i * 2}));
    EXPECT_EQ(g->entries[i].origin_sig.tag, 0x3333ULL + i);
  }
}

TEST(Message, RequestRoundTrip) {
  RequestMsg m{{{3, 9}, {77}}, /*target=*/12};
  auto parsed = parse_packet(serialize(Packet{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* r = std::get_if<RequestMsg>(&*parsed);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->entry.id, (MessageId{3, 9}));
  EXPECT_EQ(r->target, 12u);
}

TEST(Message, FindMissingRoundTrip) {
  FindMissingMsg m{{{3, 9}, {77}}, /*gossiper=*/12, /*issuer=*/4, /*ttl=*/2};
  auto parsed = parse_packet(serialize(Packet{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* f = std::get_if<FindMissingMsg>(&*parsed);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->gossiper, 12u);
  EXPECT_EQ(f->issuer, 4u);
  EXPECT_EQ(f->ttl, 2);
}

TEST(Message, HelloRoundTrip) {
  HelloMsg m;
  m.from = 5;
  m.active = true;
  m.neighbors = {1, 2, 3};
  m.dominator = true;
  m.dominator_neighbors = {2};
  m.suspects = {9};
  m.stability = {{1, 7}, {4, 2}};
  m.sig = {0xABCDULL};
  auto parsed = parse_packet(serialize(Packet{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* h = std::get_if<HelloMsg>(&*parsed);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->from, 5u);
  EXPECT_TRUE(h->active);
  EXPECT_EQ(h->neighbors, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_TRUE(h->dominator);
  EXPECT_EQ(h->dominator_neighbors, (std::vector<NodeId>{2}));
  EXPECT_EQ(h->suspects, (std::vector<NodeId>{9}));
  ASSERT_EQ(h->stability.size(), 2u);
  EXPECT_EQ(h->stability[0], (std::pair<NodeId, std::uint32_t>{1, 7}));
  EXPECT_EQ(h->stability[1], (std::pair<NodeId, std::uint32_t>{4, 2}));
  EXPECT_EQ(h->sig.tag, 0xABCDULL);
}

TEST(Message, GossipWithPiggybackedHelloRoundTrip) {
  GossipMsg m;
  m.entries.push_back({{3, 9}, {0x77}});
  HelloMsg hello;
  hello.from = 5;
  hello.active = true;
  hello.neighbors = {1};
  hello.stability = {{3, 10}};
  hello.sig = {0xFEED};
  m.hello = hello;
  auto parsed = parse_packet(serialize(Packet{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* g = std::get_if<GossipMsg>(&*parsed);
  ASSERT_NE(g, nullptr);
  ASSERT_TRUE(g->hello.has_value());
  EXPECT_EQ(g->hello->from, 5u);
  EXPECT_TRUE(g->hello->active);
  ASSERT_EQ(g->hello->stability.size(), 1u);
  EXPECT_EQ(g->hello->stability[0].second, 10u);
  EXPECT_EQ(g->hello->sig.tag, 0xFEEDULL);
}

/// One representative packet of every wire kind, for totality sweeps.
std::vector<Packet> sample_packets() {
  std::vector<Packet> packets;
  packets.emplace_back(sample_data());

  GossipMsg gossip;
  gossip.entries.push_back({{3, 9}, {0x77}});
  gossip.entries.push_back({{4, 1}, {0x88}});
  HelloMsg piggyback;
  piggyback.from = 5;
  piggyback.active = true;
  piggyback.neighbors = {1, 2};
  piggyback.stability = {{3, 10}};
  piggyback.sig = {0xFEED};
  gossip.hello = piggyback;
  packets.emplace_back(gossip);

  packets.emplace_back(RequestMsg{{{3, 9}, {77}}, /*target=*/12});
  packets.emplace_back(
      FindMissingMsg{{{3, 9}, {77}}, /*gossiper=*/12, /*issuer=*/4, /*ttl=*/2});

  HelloMsg hello;
  hello.from = 5;
  hello.active = true;
  hello.neighbors = {1, 2, 3};
  hello.dominator = true;
  hello.dominator_neighbors = {2};
  hello.suspects = {9};
  hello.stability = {{1, 7}, {4, 2}};
  hello.sig = {0xABCD};
  packets.emplace_back(hello);

  FrontierMsg frontier;
  frontier.from = 3;
  frontier.target = 8;
  frontier.response = true;
  frontier.nonce = 0xDEADBEEF;
  frontier.entries = {{1, 5, 0x1122334455667788ULL}, {2, 0, 0x99AA}};
  frontier.sig = {0x5151};
  packets.emplace_back(frontier);

  BulkPullMsg pull;
  pull.from = 8;
  pull.target = 3;
  pull.nonce = 0xDEADBEEF;
  pull.ranges = {{1, 2, 3}, {2, 0, 7}};
  pull.sig = {0x6262};
  packets.emplace_back(pull);

  BulkReplyMsg reply;
  reply.from = 3;
  reply.target = 8;
  reply.nonce = 0xDEADBEEF;
  reply.last = false;
  // Blobs are opaque at the wire layer (the sync session re-parses them);
  // any non-empty byte strings exercise the framing.
  const std::vector<std::uint8_t> blob_a{1, 2, 3};
  const std::vector<std::uint8_t> blob_b{9, 8, 7, 6, 5};
  reply.messages = {util::Buffer::copy_of(blob_a),
                    util::Buffer::copy_of(blob_b)};
  reply.sig = {0x7373};
  packets.emplace_back(reply);
  return packets;
}

TEST(Message, SerializedSizeIsExact) {
  // serialize() reserves serialized_size() up front; an undercount would
  // regrow the buffer, an overcount would waste it.
  for (const Packet& packet : sample_packets()) {
    EXPECT_EQ(serialize(packet).size(), serialized_size(packet))
        << "kind=" << static_cast<int>(packet_type(packet));
  }
  GossipMsg bare;  // no entries, no piggybacked hello
  EXPECT_EQ(serialize(bare).size(), serialized_size(bare));
}

TEST(Message, SignBytesAreTheWireMinusTheSignature) {
  // Each signed kind signs exactly what it sends, less its trailing
  // signature.
  auto unsigned_wire = [](const Packet& packet) {
    util::Buffer wire = serialize(packet);
    return std::vector<std::uint8_t>(
        wire.begin(), wire.end() - crypto::kWireSignatureBytes);
  };
  for (const Packet& packet : sample_packets()) {
    if (const auto* m = std::get_if<HelloMsg>(&packet)) {
      EXPECT_EQ(hello_sign_bytes(*m), unsigned_wire(packet));
    } else if (const auto* m = std::get_if<FrontierMsg>(&packet)) {
      EXPECT_EQ(frontier_sign_bytes(*m), unsigned_wire(packet));
    } else if (const auto* m = std::get_if<BulkPullMsg>(&packet)) {
      EXPECT_EQ(bulk_pull_sign_bytes(*m), unsigned_wire(packet));
    } else if (const auto* m = std::get_if<BulkReplyMsg>(&packet)) {
      EXPECT_EQ(bulk_reply_sign_bytes(*m), unsigned_wire(packet));
    }
  }
}

TEST(Message, SerializeAllocatesOneBufferPerPacket) {
  for (const Packet& packet : sample_packets()) {
    util::BufferStats::reset();
    util::Buffer wire = serialize(packet);
    EXPECT_EQ(util::BufferStats::allocations, 1u)
        << "kind=" << static_cast<int>(packet_type(packet));
  }
}

// --- parser totality sweep (every kind) ------------------------------------
// The zero-copy pipeline re-sends *received* frame bytes verbatim, so the
// parser must be canonical: any byte string it accepts re-serializes to
// exactly itself. These sweeps pin that property for every packet kind
// against truncation and single-byte corruption.

TEST(Message, EveryKindRoundTripsByteIdentical) {
  for (const Packet& packet : sample_packets()) {
    util::Buffer wire = serialize(packet);
    auto parsed = parse_packet(wire);
    ASSERT_TRUE(parsed.has_value())
        << "kind=" << static_cast<int>(packet_type(packet));
    EXPECT_EQ(serialize(*parsed), wire)
        << "kind=" << static_cast<int>(packet_type(packet));
  }
}

TEST(Message, EveryKindRejectsEveryPrefixTruncation) {
  for (const Packet& packet : sample_packets()) {
    util::Buffer wire = serialize(packet);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      auto truncated = std::span<const std::uint8_t>(wire.data(), len);
      EXPECT_FALSE(parse_packet(truncated).has_value())
          << "kind=" << static_cast<int>(packet_type(packet))
          << " len=" << len;
    }
  }
}

TEST(Message, SingleByteCorruptionNeverBreaksCanonicality) {
  // Flip bits at every wire position. The parse must never crash or
  // overread; when it still accepts, the accepted packet must re-serialize
  // to exactly the corrupted bytes (nothing non-canonical slips through).
  const std::uint8_t kFlips[] = {0x01, 0x80, 0xFF};
  for (const Packet& packet : sample_packets()) {
    util::Buffer wire = serialize(packet);
    std::vector<std::uint8_t> bytes(wire.begin(), wire.end());
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (std::uint8_t flip : kFlips) {
        auto copy = bytes;
        copy[pos] ^= flip;
        auto parsed = parse_packet(copy);
        if (parsed.has_value()) {
          EXPECT_EQ(serialize(*parsed), util::Buffer(copy))
              << "kind=" << static_cast<int>(packet_type(packet))
              << " pos=" << pos << " flip=" << static_cast<int>(flip);
        }
      }
    }
  }
}

TEST(Message, CorruptedTypeByteRejected) {
  for (const Packet& packet : sample_packets()) {
    util::Buffer wire = serialize(packet);
    std::vector<std::uint8_t> bytes(wire.begin(), wire.end());
    bytes[0] = 0x7F;  // no such MsgType
    EXPECT_FALSE(parse_packet(bytes).has_value());
  }
}

TEST(Message, SignatureOccupiesDsaWireSize) {
  // DATA wire size: 1 type + 8 id + 1 ttl + (4+len) payload + 2 sigs.
  DataMsg m = sample_data();
  auto bytes = serialize(Packet{m});
  EXPECT_EQ(bytes.size(), 1 + 8 + 1 + (4 + m.payload.size()) +
                              2 * crypto::kWireSignatureBytes);
}

TEST(Message, ParseRejectsTruncation) {
  auto bytes = serialize(Packet{sample_data()});
  // Every proper prefix must fail to parse (totality against Byzantine
  // truncation).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto truncated = std::span<const std::uint8_t>(bytes.data(), len);
    EXPECT_FALSE(parse_packet(truncated).has_value()) << "len=" << len;
  }
}

TEST(Message, ParseRejectsTrailingGarbage) {
  util::Buffer wire = serialize(Packet{sample_data()});
  std::vector<std::uint8_t> bytes(wire.begin(), wire.end());
  bytes.push_back(0);
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

TEST(Message, ParseRejectsUnknownType) {
  std::vector<std::uint8_t> bytes{0x77, 1, 2, 3};
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

TEST(Message, ParseRejectsOversizedClaims) {
  // A gossip packet claiming 2^31 entries must be rejected before any
  // allocation attempt.
  std::vector<std::uint8_t> bytes{static_cast<std::uint8_t>(MsgType::kGossip),
                                  0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

// --- range-sync wire types: targeted rejects --------------------------------

TEST(Message, FrontierRejectsEntryCountOverCap) {
  // Claims kMaxFrontierEntries+1 entries; must be rejected before any
  // allocation attempt (caps are checked before reserve()).
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kFrontier));
  w.u32(3);  // from
  w.u32(8);  // target
  w.u8(0);   // response
  w.u32(1);  // nonce
  w.u32(static_cast<std::uint32_t>(kMaxFrontierEntries + 1));
  EXPECT_FALSE(parse_packet(w.data()).has_value());
}

TEST(Message, BulkPullRejectsRangeCountOverCap) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kBulkPull));
  w.u32(8);  // from
  w.u32(3);  // target
  w.u32(1);  // nonce
  w.u32(static_cast<std::uint32_t>(kMaxPullRanges + 1));
  EXPECT_FALSE(parse_packet(w.data()).has_value());
}

TEST(Message, BulkReplyRejectsBatchCountOverCap) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kBulkReply));
  w.u32(3);  // from
  w.u32(8);  // target
  w.u32(1);  // nonce
  w.u8(1);   // last
  w.u32(static_cast<std::uint32_t>(kMaxBatchMessages + 1));
  EXPECT_FALSE(parse_packet(w.data()).has_value());
}

TEST(Message, BulkReplyRejectsEmptyAndOversizedBlobs) {
  // A blob is capped at the largest possible DATA packet; empty blobs are
  // equally meaningless and rejected.
  const std::size_t data_packet_cap =
      1 + 8 + 1 + 4 + kMaxPayloadBytes + 2 * crypto::kWireSignatureBytes;
  for (std::size_t blob_size : {std::size_t{0}, data_packet_cap + 1}) {
    util::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(MsgType::kBulkReply));
    w.u32(3);  // from
    w.u32(8);  // target
    w.u32(1);  // nonce
    w.u8(1);   // last
    w.u32(1);  // one blob
    std::vector<std::uint8_t> blob(blob_size, 0xAB);
    w.bytes(blob);
    w.raw(std::vector<std::uint8_t>(crypto::kWireSignatureBytes, 0));
    EXPECT_FALSE(parse_packet(w.data()).has_value())
        << "blob_size=" << blob_size;
  }
}

TEST(Message, SyncBoolsMustBeCanonical) {
  // read_bool rejects any byte > 1 — a Byzantine sender cannot smuggle
  // two wire encodings of the same logical packet past the signature.
  FrontierMsg frontier;
  frontier.from = 3;
  frontier.target = 8;
  frontier.entries = {{1, 5, 0x11}};
  util::Buffer wire = serialize(Packet{frontier});
  std::vector<std::uint8_t> bytes(wire.begin(), wire.end());
  bytes[1 + 4 + 4] = 2;  // the `response` byte
  EXPECT_FALSE(parse_packet(bytes).has_value());

  BulkReplyMsg reply;
  reply.from = 3;
  reply.target = 8;
  const std::vector<std::uint8_t> blob{1, 2, 3};
  reply.messages = {util::Buffer::copy_of(blob)};
  util::Buffer reply_wire = serialize(Packet{reply});
  std::vector<std::uint8_t> reply_bytes(reply_wire.begin(), reply_wire.end());
  reply_bytes[1 + 4 + 4 + 4] = 2;  // the `last` byte
  EXPECT_FALSE(parse_packet(reply_bytes).has_value());
}

TEST(Message, SyncSignBytesCoverEveryField) {
  FrontierMsg frontier;
  frontier.from = 3;
  frontier.target = 8;
  frontier.entries = {{1, 5, 0x11}};
  auto reference = frontier_sign_bytes(frontier);
  FrontierMsg changed = frontier;
  changed.response = true;
  EXPECT_NE(frontier_sign_bytes(changed), reference);
  changed = frontier;
  changed.nonce = 9;
  EXPECT_NE(frontier_sign_bytes(changed), reference);
  changed = frontier;
  changed.entries[0].tail_digest ^= 1;
  EXPECT_NE(frontier_sign_bytes(changed), reference);

  BulkPullMsg pull;
  pull.from = 8;
  pull.target = 3;
  pull.ranges = {{1, 2, 3}};
  auto pull_reference = bulk_pull_sign_bytes(pull);
  BulkPullMsg pull_changed = pull;
  pull_changed.ranges[0].count = 4;
  EXPECT_NE(bulk_pull_sign_bytes(pull_changed), pull_reference);

  BulkReplyMsg reply;
  reply.from = 3;
  reply.target = 8;
  const std::vector<std::uint8_t> blob{1, 2, 3};
  reply.messages = {util::Buffer::copy_of(blob)};
  auto reply_reference = bulk_reply_sign_bytes(reply);
  BulkReplyMsg reply_changed = reply;
  reply_changed.last = false;
  EXPECT_NE(bulk_reply_sign_bytes(reply_changed), reply_reference);
  reply_changed = reply;
  const std::vector<std::uint8_t> other_blob{1, 2, 4};
  reply_changed.messages = {util::Buffer::copy_of(other_blob)};
  EXPECT_NE(bulk_reply_sign_bytes(reply_changed), reply_reference);
}

TEST(Message, SyncKindMapping) {
  EXPECT_EQ(to_msg_kind(MsgType::kFrontier), stats::MsgKind::kFrontier);
  EXPECT_EQ(to_msg_kind(MsgType::kBulkPull), stats::MsgKind::kBulkPull);
  EXPECT_EQ(to_msg_kind(MsgType::kBulkReply), stats::MsgKind::kBulkReply);
  EXPECT_EQ(packet_type(Packet{FrontierMsg{}}), MsgType::kFrontier);
  EXPECT_EQ(packet_type(Packet{BulkPullMsg{}}), MsgType::kBulkPull);
  EXPECT_EQ(packet_type(Packet{BulkReplyMsg{}}), MsgType::kBulkReply);
}

TEST(Message, ParseSurvivesRandomFuzz) {
  des::Rng rng(1234);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    // Must not crash; may parse by chance only into a valid structure.
    (void)parse_packet(junk);
  }
  SUCCEED();
}

TEST(Message, ParseSurvivesBitFlippedValidPackets) {
  des::Rng rng(99);
  util::Buffer wire = serialize(Packet{sample_data()});
  std::vector<std::uint8_t> bytes(wire.begin(), wire.end());
  for (int trial = 0; trial < 2000; ++trial) {
    auto copy = bytes;
    copy[rng.next_below(copy.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    (void)parse_packet(copy);  // must not crash
  }
  SUCCEED();
}

TEST(Message, SignBytesDifferPerMessage) {
  MessageId a{1, 1}, b{1, 2};
  std::vector<std::uint8_t> payload{9};
  EXPECT_NE(data_sign_bytes(a, payload), data_sign_bytes(b, payload));
  EXPECT_NE(gossip_sign_bytes(a), gossip_sign_bytes(b));
  // DATA and GOSSIP sign-bytes are domain-separated.
  EXPECT_FALSE(
      std::ranges::equal(data_sign_bytes(a, {}), gossip_sign_bytes(a)));
}

TEST(Message, GossipSignBytesLayout) {
  // Type byte, then origin and seq little-endian: the bytes every gossip
  // signature ever issued covers.
  GossipSignBytes expected{2, 0x04, 0x03, 0x02, 0x01, 0x08, 0x07, 0x06, 0x05};
  EXPECT_EQ(gossip_sign_bytes({0x01020304, 0x05060708}), expected);
}

TEST(Message, HelloSignBytesCoverEveryField) {
  HelloMsg base;
  base.from = 1;
  base.neighbors = {2};
  auto reference = hello_sign_bytes(base);

  HelloMsg active = base;
  active.active = true;
  EXPECT_NE(hello_sign_bytes(active), reference);

  HelloMsg more_neighbors = base;
  more_neighbors.neighbors.push_back(3);
  EXPECT_NE(hello_sign_bytes(more_neighbors), reference);

  HelloMsg with_suspects = base;
  with_suspects.suspects = {4};
  EXPECT_NE(hello_sign_bytes(with_suspects), reference);

  HelloMsg with_dominator_neighbors = base;
  with_dominator_neighbors.dominator_neighbors = {2};
  EXPECT_NE(hello_sign_bytes(with_dominator_neighbors), reference);

  HelloMsg dominator = base;
  dominator.dominator = true;
  EXPECT_NE(hello_sign_bytes(dominator), reference);

  HelloMsg with_stability = base;
  with_stability.stability = {{7, 3}};
  EXPECT_NE(hello_sign_bytes(with_stability), reference);
}

TEST(Message, KindMapping) {
  EXPECT_EQ(to_msg_kind(MsgType::kData), stats::MsgKind::kData);
  EXPECT_EQ(to_msg_kind(MsgType::kHello), stats::MsgKind::kHello);
  EXPECT_EQ(packet_type(Packet{sample_data()}), MsgType::kData);
  EXPECT_EQ(packet_type(Packet{GossipMsg{}}), MsgType::kGossip);
}

}  // namespace
}  // namespace byzcast::core
