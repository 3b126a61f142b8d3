// White-box protocol tests for ByzcastNode: real nodes on a quiet medium
// plus "raw" radios the test drives directly to inject crafted packets
// and sniff what the node puts on the air.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>

#include "core/byzcast_node.h"
#include "mobility/static_mobility.h"
#include "net/impairment.h"
#include "obs/profiler.h"
#include "radio/medium.h"
#include "radio/radio.h"

namespace byzcast::core {
namespace {

struct Sniffed {
  NodeId sender;
  Packet packet;
};

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() : pki_(des::Rng(99)) {
    radio::MediumConfig config;
    config.tx_jitter_max = 0;  // deterministic airtime ordering
    medium_ = std::make_unique<radio::Medium>(
        sim_, std::make_unique<radio::UnitDisk>(), config, &metrics_);
  }

  static ProtocolConfig fast_config() {
    ProtocolConfig config;
    config.gossip_period = des::millis(100);
    config.request_timeout = des::millis(50);
    config.hello_period = des::millis(200);
    config.neighbor_timeout = des::millis(700);
    return config;
  }

  ByzcastNode& add_node(geo::Vec2 position,
                        ProtocolConfig config = fast_config()) {
    auto id = static_cast<NodeId>(radios_.size());
    mobility_.push_back(std::make_unique<mobility::StaticMobility>(position));
    radios_.push_back(
        std::make_unique<radio::Radio>(*medium_, id, *mobility_.back(), 100));
    auto node = std::make_unique<ByzcastNode>(
        sim_, *radios_.back(), pki_, pki_.register_node(id), config,
        &metrics_);
    node->start();
    nodes_.push_back(std::move(node));
    raw_signers_.push_back({});  // placeholder to keep indices aligned
    return *nodes_.back();
  }

  /// A radio the test controls directly: captures everything it hears and
  /// can transmit arbitrary bytes. Registered in the PKI so it can also
  /// craft validly-signed packets.
  NodeId add_raw(geo::Vec2 position) {
    auto id = static_cast<NodeId>(radios_.size());
    mobility_.push_back(std::make_unique<mobility::StaticMobility>(position));
    radios_.push_back(
        std::make_unique<radio::Radio>(*medium_, id, *mobility_.back(), 100));
    nodes_.push_back(nullptr);
    raw_signers_.push_back(pki_.register_node(id));
    radios_.back()->set_receive_handler([this, id](const radio::Frame& f) {
      auto packet = parse_packet(f.payload);
      if (packet) sniffed_[id].push_back({f.sender, std::move(*packet)});
    });
    return id;
  }

  void raw_send(NodeId raw, const Packet& packet) {
    radios_[raw]->send(serialize(packet));
  }

  DataMsg make_signed_data(NodeId origin, std::uint32_t seq,
                           std::vector<std::uint8_t> payload,
                           std::uint8_t ttl = 1) {
    DataMsg msg;
    msg.id = {origin, seq};
    msg.ttl = ttl;
    msg.payload = std::move(payload);
    msg.sig = raw_signers_[origin].sign(data_sign_bytes(msg.id, msg.payload));
    msg.gossip_sig = raw_signers_[origin].sign(gossip_sign_bytes(msg.id));
    return msg;
  }

  GossipEntry make_signed_entry(NodeId origin, std::uint32_t seq) {
    return {{origin, seq},
            raw_signers_[origin].sign(gossip_sign_bytes({origin, seq}))};
  }

  /// Count of sniffed packets at `raw` matching a predicate.
  template <typename T>
  std::size_t count_sniffed(NodeId raw) const {
    std::size_t n = 0;
    auto it = sniffed_.find(raw);
    if (it == sniffed_.end()) return 0;
    for (const Sniffed& s : it->second) {
      if (std::holds_alternative<T>(s.packet)) ++n;
    }
    return n;
  }

  template <typename T>
  const T* last_sniffed(NodeId raw) const {
    auto it = sniffed_.find(raw);
    if (it == sniffed_.end()) return nullptr;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (const T* p = std::get_if<T>(&rit->packet)) return p;
    }
    return nullptr;
  }

  des::Simulator sim_{7};
  stats::Metrics metrics_;
  crypto::Pki pki_;
  std::unique_ptr<radio::Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<radio::Radio>> radios_;
  std::vector<std::unique_ptr<ByzcastNode>> nodes_;
  std::vector<crypto::Signer> raw_signers_;
  std::map<NodeId, std::vector<Sniffed>> sniffed_;
};

// ---------------------------------------------------------------------------

TEST_F(NodeTest, BroadcastAcceptedByNeighborExactlyOnce) {
  ByzcastNode& alice = add_node({0, 0});
  ByzcastNode& bob = add_node({50, 0});

  int accepts = 0;
  MessageId got_id;
  std::string got_payload;
  bob.set_accept_handler([&](const MessageId& id,
                             std::span<const std::uint8_t> payload) {
    ++accepts;
    got_id = id;
    got_payload = util::to_string(payload);
  });

  sim_.run_until(des::seconds(1));  // beacons settle
  alice.broadcast(util::to_bytes("hello"));
  sim_.run_until(des::seconds(3));

  EXPECT_EQ(accepts, 1);
  EXPECT_EQ(got_id, (MessageId{alice.id(), 0}));
  EXPECT_EQ(got_payload, "hello");
  EXPECT_TRUE(bob.store().has({alice.id(), 0}));
}

TEST_F(NodeTest, OriginatorNeverAcceptsOwnMessage) {
  ByzcastNode& alice = add_node({0, 0});
  add_node({50, 0});
  int self_accepts = 0;
  alice.set_accept_handler([&](auto&&...) { ++self_accepts; });
  sim_.run_until(des::seconds(1));
  alice.broadcast(util::to_bytes("mine"));
  sim_.run_until(des::seconds(3));
  EXPECT_EQ(self_accepts, 0);
  EXPECT_EQ(alice.next_seq(), 1u);
}

TEST_F(NodeTest, MultiHopDeliveryThroughOverlay) {
  // Chain 0-1-2 with 100 m range at 80 m spacing: only node 1 connects
  // the endpoints, so delivery to node 2 proves overlay forwarding.
  ByzcastNode& a = add_node({0, 0});
  ByzcastNode& mid = add_node({80, 0});
  ByzcastNode& c = add_node({160, 0});

  int accepts = 0;
  c.set_accept_handler([&](auto&&...) { ++accepts; });
  sim_.run_until(des::seconds(2));  // overlay stabilizes
  EXPECT_TRUE(mid.in_overlay());

  a.broadcast(util::to_bytes("far"));
  sim_.run_until(des::seconds(5));
  EXPECT_EQ(accepts, 1);
}

TEST_F(NodeTest, ForgedSignatureRejectedAndSenderSuspected) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });

  DataMsg forged = make_signed_data(raw, 0, {1, 2, 3});
  forged.sig.tag ^= 0xFFFF;  // break the signature
  raw_send(raw, forged);
  sim_.run_until(des::seconds(1));

  EXPECT_EQ(accepts, 0);
  EXPECT_FALSE(bob.store().has({raw, 0}));
  EXPECT_EQ(bob.trust().suspicion_events(fd::SuspicionReason::kBadSignature),
            1u);
  EXPECT_TRUE(bob.trust().suspects(raw));
}

TEST_F(NodeTest, TamperedPayloadRejected) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });

  DataMsg msg = make_signed_data(raw, 0, {1, 2, 3});
  std::vector<std::uint8_t> tampered(msg.payload.begin(), msg.payload.end());
  tampered[0] ^= 0xFF;  // tamper after signing
  msg.payload = std::move(tampered);
  msg.wire = {};  // stale: payload changed after serialization
  raw_send(raw, msg);
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(accepts, 0);
  EXPECT_TRUE(bob.trust().suspects(raw));
}

TEST_F(NodeTest, ValidDataAcceptedFromRawSender) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });
  raw_send(raw, make_signed_data(raw, 0, {9}));
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(accepts, 1);
  EXPECT_FALSE(bob.trust().suspects(raw));
}

TEST_F(NodeTest, DuplicateDataIgnored) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });
  DataMsg msg = make_signed_data(raw, 0, {9});
  raw_send(raw, msg);
  sim_.run_until(des::seconds(1));
  raw_send(raw, msg);
  raw_send(raw, msg);
  sim_.run_until(des::seconds(2));
  EXPECT_EQ(accepts, 1);
}

TEST_F(NodeTest, ReplayAfterPurgeStillNotReaccepted) {
  ProtocolConfig config = fast_config();
  config.purge_timeout = des::millis(300);
  ByzcastNode& bob = add_node({0, 0}, config);
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });
  DataMsg msg = make_signed_data(raw, 0, {9});
  raw_send(raw, msg);
  sim_.run_until(des::seconds(2));
  EXPECT_FALSE(bob.store().has({raw, 0}));  // purged from the buffer
  raw_send(raw, msg);                        // replay attack
  sim_.run_until(des::seconds(3));
  EXPECT_EQ(accepts, 1);  // at-most-once survives purging
}

TEST_F(NodeTest, HelloImpersonationSuspected) {
  ByzcastNode& bob = add_node({0, 0});
  ByzcastNode& alice = add_node({50, 0});
  NodeId raw = add_raw({30, 0});

  // Raw claims to be alice; it cannot produce alice's signature.
  HelloMsg hello;
  hello.from = alice.id();
  hello.neighbors = {bob.id()};
  hello.sig = raw_signers_[raw].sign(hello_sign_bytes(hello));
  raw_send(raw, Packet{hello});
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(bob.trust().suspects(raw));
}

TEST_F(NodeTest, GossipForMissingMessageTriggersTargetedRequest) {
  add_node({0, 0});
  NodeId gossiper = add_raw({50, 0});
  NodeId origin = add_raw({500, 500});  // far away; key registration only

  GossipMsg gossip;
  gossip.entries.push_back(make_signed_entry(origin, 5));
  raw_send(gossiper, gossip);
  sim_.run_until(des::seconds(1));

  ASSERT_EQ(count_sniffed<RequestMsg>(gossiper), 1u);
  const RequestMsg* req = last_sniffed<RequestMsg>(gossiper);
  EXPECT_EQ(req->entry.id, (MessageId{origin, 5}));
  EXPECT_EQ(req->target, gossiper);
}

TEST_F(NodeTest, GossipFromOriginatorAlsoTriggersRequest) {
  // Deliberate deviation from the pseudo-code's line-29 guard (see
  // byzcast_node.cpp): with one-shot broadcasts, a gossip heard from the
  // originator itself must still trigger a REQUEST, or a collided initial
  // transmission could never be recovered.
  add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  GossipMsg gossip;
  gossip.entries.push_back(make_signed_entry(raw, 5));
  raw_send(raw, gossip);
  sim_.run_until(des::seconds(1));
  ASSERT_GE(count_sniffed<RequestMsg>(raw), 1u);
  EXPECT_EQ(last_sniffed<RequestMsg>(raw)->target, raw);
}

TEST_F(NodeTest, GossipRecoveryEndToEnd) {
  // Carol is out of the originator's range and only Bob receives the
  // DATA; Carol must learn of the message from Bob's gossip, request it,
  // and get Bob's retransmission — the full recovery loop.
  ByzcastNode& bob = add_node({0, 0});
  ByzcastNode& carol = add_node({90, 0});
  NodeId origin = add_raw({0, -50});   // 50 m from bob, ~103 m from carol
  NodeId sniffer = add_raw({45, 0});   // hears both bob and carol

  int carol_accepts = 0;
  carol.set_accept_handler([&](auto&&...) { ++carol_accepts; });
  sim_.run_until(des::millis(500));

  raw_send(origin, make_signed_data(origin, 0, {1}));
  sim_.run_until(des::seconds(6));  // gossip -> request -> retransmission
  EXPECT_TRUE(bob.store().has({origin, 0}));
  EXPECT_EQ(carol_accepts, 1);
  EXPECT_TRUE(carol.store().has({origin, 0}));
  // Carol is out of the originator's range, so the message can only have
  // crossed via the recovery loop: a REQUEST must have been on the air.
  EXPECT_GE(count_sniffed<RequestMsg>(sniffer), 1u);
}

TEST_F(NodeTest, TargetedNodeAnswersRequestWithData) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});

  // Give bob the message, then request it back.
  raw_send(raw, make_signed_data(raw, 3, {42}));
  sim_.run_until(des::seconds(1));
  ASSERT_TRUE(bob.store().has({raw, 3}));

  std::size_t data_before = count_sniffed<DataMsg>(raw);
  raw_send(raw, Packet{RequestMsg{make_signed_entry(raw, 3), bob.id()}});
  sim_.run_until(des::seconds(2));
  EXPECT_GT(count_sniffed<DataMsg>(raw), data_before);
  const DataMsg* reply = last_sniffed<DataMsg>(raw);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->id, (MessageId{raw, 3}));
}

TEST_F(NodeTest, PassiveUntargetedNodeStaysSilentOnRequest) {
  // A lone pair: neither node has two non-adjacent neighbours, so bob is
  // passive; a REQUEST targeting someone else must be ignored (line 43).
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  raw_send(raw, make_signed_data(raw, 3, {42}));
  sim_.run_until(des::seconds(1));
  ASSERT_FALSE(bob.in_overlay());

  std::size_t data_before = count_sniffed<DataMsg>(raw);
  raw_send(raw,
           Packet{RequestMsg{make_signed_entry(raw, 3), /*target=*/999}});
  sim_.run_until(des::seconds(2));
  EXPECT_EQ(count_sniffed<DataMsg>(raw), data_before);
}

TEST_F(NodeTest, OverlayNodeIssuesFindForUnknownRequestedMessage) {
  // Make the middle node an overlay member via a 3-node chain.
  add_node({0, 0});
  ByzcastNode& mid = add_node({80, 0});
  add_node({160, 0});
  NodeId raw = add_raw({80, 50});       // neighbour of mid only (dist 50)
  NodeId origin = add_raw({500, 500});  // registration only
  sim_.run_until(des::seconds(2));
  ASSERT_TRUE(mid.in_overlay());

  // Request a message nobody has (and whose originator is NOT the
  // requester — that case is line 55's indictment instead).
  raw_send(raw, Packet{RequestMsg{make_signed_entry(origin, 77), 0}});
  sim_.run_until(sim_.now() + des::seconds(2));
  ASSERT_GE(count_sniffed<FindMissingMsg>(raw), 1u);
  const FindMissingMsg* find = last_sniffed<FindMissingMsg>(raw);
  EXPECT_EQ(find->entry.id, (MessageId{origin, 77}));
  EXPECT_EQ(find->issuer, mid.id());
  EXPECT_EQ(find->ttl, 2);
}

TEST_F(NodeTest, FindRelayedExactlyOnceWithDecrementedTtl) {
  ByzcastNode& bob = add_node({0, 0});
  (void)bob;
  NodeId raw = add_raw({50, 0});

  FindMissingMsg find{make_signed_entry(raw, 9), /*gossiper=*/5,
                      /*issuer=*/raw, /*ttl=*/2};
  raw_send(raw, Packet{find});
  // Duplicate a little later (not back-to-back, or the half-duplex raw
  // radio would still be transmitting when the relay comes back).
  sim_.schedule_after(des::millis(10),
                      [&, find] { raw_send(raw, Packet{find}); });
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(count_sniffed<FindMissingMsg>(raw), 1u);
  const FindMissingMsg* relayed = last_sniffed<FindMissingMsg>(raw);
  EXPECT_EQ(relayed->ttl, 1);
}

TEST_F(NodeTest, FindWithTtl1NotRelayed) {
  add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  FindMissingMsg find{make_signed_entry(raw, 9), 5, raw, /*ttl=*/1};
  raw_send(raw, Packet{find});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(count_sniffed<FindMissingMsg>(raw), 0u);
}

TEST_F(NodeTest, RepeatedRequestsIndictRequester) {
  ProtocolConfig config = fast_config();
  config.verbose.suspicion_threshold = 3;
  // Chain so the node is an overlay member (indictment is line 46's
  // overlay-side rule).
  add_node({0, 0}, config);
  ByzcastNode& mid = add_node({80, 0}, config);
  add_node({160, 0}, config);
  NodeId raw = add_raw({80, 50});
  sim_.run_until(des::seconds(2));
  ASSERT_TRUE(mid.in_overlay());

  // Seed the message, then nag for it far past the tolerated two asks.
  raw_send(raw, make_signed_data(raw, 1, {1}));
  sim_.run_until(des::seconds(3));
  for (int i = 0; i < 8; ++i) {
    raw_send(raw, Packet{RequestMsg{make_signed_entry(raw, 1), mid.id()}});
    sim_.run_until(sim_.now() + des::millis(300));
  }
  EXPECT_TRUE(mid.verbose().suspected(raw));
  EXPECT_TRUE(mid.trust().suspects(raw));
}

std::int64_t gauge_of(const ByzcastNode& node, std::string_view name) {
  struct Finder final : obs::GaugeVisitor {
    std::string_view want;
    std::int64_t value = -1;
    void gauge(std::string_view gauge, std::int64_t v) override {
      if (gauge == want) value = v;
    }
  } finder;
  finder.want = name;
  node.poll_gauges(finder);
  return finder.value;
}

TEST_F(NodeTest, RecoveryMarksExpireAfterRetryWindow) {
  // An overlay node fielding REQUESTs for ids nobody holds (each issues a
  // FIND) and two-hop FINDs (each relayed once) for six retry windows:
  // the FIND marks of a window must be gone a window later.
  add_node({0, 0});
  ByzcastNode& mid = add_node({80, 0});
  add_node({160, 0});
  NodeId raw = add_raw({80, 50});
  NodeId origin = add_raw({500, 500});  // registration only
  sim_.run_until(des::seconds(2));
  ASSERT_TRUE(mid.in_overlay());
  ASSERT_EQ(gauge_of(mid, "recovery_entries"), 0);

  const des::SimDuration retry = mid.config().request_retry;
  std::uint32_t seq = 0;
  std::int64_t peak = 0;
  for (int window = 0; window < 6; ++window) {
    for (int i = 0; i < 5; ++i) {
      raw_send(raw, Packet{RequestMsg{make_signed_entry(origin, seq++), 0}});
      sim_.run_until(sim_.now() + des::millis(40));
      raw_send(raw, Packet{FindMissingMsg{make_signed_entry(origin, seq++),
                                          /*gossiper=*/5, /*issuer=*/raw,
                                          /*ttl=*/2}});
      sim_.run_until(sim_.now() + des::millis(40));
    }
    peak = std::max(peak, gauge_of(mid, "recovery_entries"));
    sim_.run_until(sim_.now() + retry - des::millis(200));
  }
  // Every window left ten marks (five issued FINDs, five relayed); at most
  // the last window's and its predecessor's can still be held.
  EXPECT_GE(peak, 10);
  EXPECT_LE(peak, 20);
  sim_.run_until(sim_.now() + 2 * retry);
  EXPECT_EQ(gauge_of(mid, "recovery_entries"), 0);
}

TEST_F(NodeTest, GossipBundlesAggregateMultipleEntries) {
  ProtocolConfig config = fast_config();
  ByzcastNode& alice = add_node({0, 0}, config);
  NodeId raw = add_raw({50, 0});
  sim_.run_until(des::millis(500));
  // Several broadcasts in one gossip period end up in shared bundles.
  alice.broadcast({1});
  alice.broadcast({2});
  alice.broadcast({3});
  sim_.run_until(des::seconds(2));
  ASSERT_GE(count_sniffed<GossipMsg>(raw), 1u);
  const GossipMsg* bundle = nullptr;
  for (const Sniffed& s : sniffed_[raw]) {
    if (const auto* g = std::get_if<GossipMsg>(&s.packet)) {
      if (g->entries.size() >= 3) bundle = g;
    }
  }
  EXPECT_NE(bundle, nullptr) << "expected an aggregated 3-entry bundle";
}

TEST_F(NodeTest, RecoveryDisabledSendsNoRequests) {
  ProtocolConfig config = fast_config();
  config.recovery_enabled = false;
  add_node({0, 0}, config);
  NodeId raw = add_raw({50, 0});
  GossipMsg gossip;
  gossip.entries.push_back(make_signed_entry(raw, 5));
  raw_send(raw, gossip);
  sim_.run_until(des::seconds(2));
  EXPECT_EQ(count_sniffed<RequestMsg>(raw), 0u);
}

TEST_F(NodeTest, MalformedBytesSuspected) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  radios_[raw]->send({0xde, 0xad});  // unparseable
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(
      bob.trust().suspicion_events(fd::SuspicionReason::kProtocolViolation),
      1u);
}

// ---------------------------------------------------------------------------
// One decode per transmission (DESIGN.md §16): the receivers of one buffer
// share its parse and its signature verdicts, and each still decides
// exactly what it would have decided on a copy of its own.
// ---------------------------------------------------------------------------

/// An endpoint the test delivers to by hand, so that one Buffer reaches
/// several nodes as one transmission. `on_send` runs inside send().
class HandTransport final : public net::Transport {
 public:
  explicit HandTransport(NodeId id) : id_(id) {}
  void send(util::Buffer payload) override {
    if (on_send) on_send(payload);
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  [[nodiscard]] NodeId local_id() const override { return id_; }
  void deliver(const radio::Frame& frame) const { handler_(frame); }

  std::function<void(const util::Buffer&)> on_send;

 private:
  NodeId id_;
  ReceiveHandler handler_;
};

/// What one receiver made of a run.
struct Outcome {
  int accepts = 0;
  std::uint64_t bad_signatures = 0;
  std::uint64_t malformed = 0;
  bool knows_sender = false;  ///< a HELLO from the sender was recorded
  std::size_t pending_requests = 0;
  bool operator==(const Outcome&) const = default;
};

/// Three receivers (ids 0-2) that hear a sender the test signs for (id 3).
/// With `impairment`, receiver 2 listens through an ImpairedTransport.
class Trio {
 public:
  static constexpr NodeId kSender = 3;

  explicit Trio(const net::ImpairmentConfig* impairment = nullptr)
      : pki_(des::Rng(99)) {
    for (NodeId id = 0; id < 3; ++id) {
      links_.push_back(std::make_unique<HandTransport>(id));
      net::Transport* ingress = links_.back().get();
      if (impairment != nullptr && id == 2) {
        impaired_ = std::make_unique<net::ImpairedTransport>(
            sim_, *links_.back(), *impairment);
        ingress = impaired_.get();
      }
      nodes_.push_back(std::make_unique<ByzcastNode>(
          sim_, *ingress, pki_, pki_.register_node(id), ProtocolConfig{}));
      accepts_.push_back(0);
      nodes_.back()->set_accept_handler(
          [this, id](const MessageId&, std::span<const std::uint8_t>) {
            ++accepts_[id];
          });
      nodes_.back()->start();
    }
    sender_ = pki_.register_node(kSender);
    obs::Profiler::reset();
    obs::Profiler::set_enabled(true);
  }
  ~Trio() { obs::Profiler::set_enabled(false); }

  DataMsg data(std::uint32_t seq, std::uint8_t ttl = 1) const {
    DataMsg msg;
    msg.id = {kSender, seq};
    msg.ttl = ttl;
    msg.payload = std::vector<std::uint8_t>(32, static_cast<std::uint8_t>(seq));
    msg.sig = sender_.sign(data_sign_bytes(msg.id, msg.payload));
    msg.gossip_sig = sender_.sign(gossip_sign_bytes(msg.id));
    return msg;
  }
  GossipEntry entry(std::uint32_t seq) const {
    return {{kSender, seq}, sender_.sign(gossip_sign_bytes({kSender, seq}))};
  }
  HelloMsg hello() const {
    HelloMsg hello;
    hello.from = kSender;
    hello.neighbors = {0, 1, 2};
    hello.sig = sender_.sign(hello_sign_bytes(hello));
    return hello;
  }

  /// Hands `bytes` from the sender to receivers 0, 1, 2 in that order: as
  /// the one shared buffer, or as a separately allocated copy each.
  void transmit(const util::Buffer& bytes, bool shared = true) {
    for (const auto& link : links_) {
      link->deliver(radio::Frame{
          kSender, shared ? bytes : util::Buffer::copy_of(bytes)});
    }
  }

  [[nodiscard]] std::vector<Outcome> outcomes() const {
    std::vector<Outcome> out;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      ByzcastNode& node = *nodes_[i];
      out.push_back(
          {accepts_[i],
           node.trust().suspicion_events(fd::SuspicionReason::kBadSignature),
           node.trust().suspicion_events(
               fd::SuspicionReason::kProtocolViolation),
           node.neighbor_table().contains(kSender),
           node.pending_request_count()});
    }
    return out;
  }

  static std::uint64_t parses() {
    return obs::Profiler::stats(obs::ProfileCategory::kParse).count;
  }
  static std::uint64_t verifies() {
    return obs::Profiler::stats(obs::ProfileCategory::kSignatureVerify).count;
  }

  HandTransport& link(NodeId id) { return *links_[id]; }
  ByzcastNode& node(NodeId id) { return *nodes_[id]; }

 private:
  des::Simulator sim_{7};
  crypto::Pki pki_;
  crypto::Signer sender_;
  std::vector<std::unique_ptr<HandTransport>> links_;
  std::unique_ptr<net::ImpairedTransport> impaired_;
  std::vector<std::unique_ptr<ByzcastNode>> nodes_;
  std::vector<int> accepts_;
};

struct MixedRun {
  std::vector<Outcome> outcomes;
  std::uint64_t parses = 0;
  std::uint64_t verifies = 0;
};

/// A valid DATA, a forged DATA, and a GOSSIP carrying a held, a missing
/// and a forged entry plus a piggybacked HELLO — every signed part a
/// receiver judges.
MixedRun run_mixed_traffic(bool shared) {
  Trio trio;
  DataMsg forged = trio.data(1);
  forged.sig.tag ^= 1;
  GossipMsg gossip;
  gossip.entries = {trio.entry(0), trio.entry(5), trio.entry(6)};
  gossip.entries[2].origin_sig.tag ^= 1;
  gossip.hello = trio.hello();
  for (const Packet& packet : {Packet{trio.data(0)}, Packet{forged},
                               Packet{std::move(gossip)}}) {
    trio.transmit(serialize(packet), shared);
  }
  return {trio.outcomes(), Trio::parses(), Trio::verifies()};
}

TEST(SharedDecode, ReceiversOfOneTransmissionDecodeAndVerifyItOnce) {
  const MixedRun shared = run_mixed_traffic(/*shared=*/true);
  const MixedRun copies = run_mixed_traffic(/*shared=*/false);

  // Every receiver decides as it would on a copy of its own...
  EXPECT_EQ(shared.outcomes, copies.outcomes);
  const Outcome expected{/*accepts=*/1, /*bad_signatures=*/2, /*malformed=*/0,
                         /*knows_sender=*/true, /*pending_requests=*/1};
  for (const Outcome& outcome : shared.outcomes) EXPECT_EQ(outcome, expected);
  // ...but one parse per transmission, and each signature verified once:
  // 2 for the valid DATA, 1 for the forged one (its first signature
  // already fails), 1 HELLO + 3 entries for the GOSSIP.
  EXPECT_EQ(shared.parses, 3u);
  EXPECT_EQ(shared.verifies, 7u);
  EXPECT_EQ(copies.parses, 9u);
  EXPECT_EQ(copies.verifies, 21u);
}

TEST(SharedDecode, ForgedHelloSuspectedByEveryReceiver) {
  Trio trio;
  HelloMsg forged = trio.hello();
  forged.neighbors.push_back(9);  // no longer what the sender signed
  trio.transmit(serialize(forged));
  for (const Outcome& outcome : trio.outcomes()) {
    EXPECT_EQ(outcome.bad_signatures, 1u);
    EXPECT_FALSE(outcome.knows_sender);
  }
  EXPECT_EQ(Trio::parses(), 1u);
  EXPECT_EQ(Trio::verifies(), 1u);
}

TEST(SharedDecode, CorruptedCopyIsDecodedAndRejectedOnItsOwn) {
  net::ImpairmentConfig corrupt_all;
  corrupt_all.link.corrupt = 1.0;
  Trio trio(&corrupt_all);
  trio.transmit(serialize(trio.data(0)));
  std::vector<Outcome> outcomes = trio.outcomes();
  for (NodeId clean : {0, 1}) {
    EXPECT_EQ(outcomes[clean].accepts, 1);
    EXPECT_EQ(outcomes[clean].bad_signatures + outcomes[clean].malformed, 0u);
  }
  // Receiver 2 got its own flipped copy: another buffer, another decode.
  EXPECT_EQ(outcomes[2].accepts, 0);
  EXPECT_EQ(outcomes[2].bad_signatures + outcomes[2].malformed, 1u);
  EXPECT_EQ(Trio::parses(), 2u);
}

TEST(SharedDecode, ReentrantDeliveryKeepsTheOuterFrameAlive) {
  Trio trio;
  // Relaying the ttl-2 copy (a send inside handle_data) synchronously
  // delivers a second transmission, which replaces the per-thread memo
  // while the outer handler still reads its message. ASan flags it if the
  // outer frame is not held for the whole dispatch.
  const util::Buffer inner = serialize(trio.data(1));
  bool delivered = false;
  trio.link(0).on_send = [&](const util::Buffer&) {
    if (std::exchange(delivered, true)) return;
    trio.link(0).deliver(radio::Frame{Trio::kSender, inner});
  };
  trio.link(0).deliver(
      radio::Frame{Trio::kSender, serialize(trio.data(0, /*ttl=*/2))});
  ASSERT_TRUE(delivered);
  EXPECT_EQ(trio.outcomes()[0].accepts, 2);
  EXPECT_TRUE(trio.node(0).store().has({Trio::kSender, 0}));
  EXPECT_TRUE(trio.node(0).store().has({Trio::kSender, 1}));
  EXPECT_EQ(Trio::parses(), 2u);
}

}  // namespace
}  // namespace byzcast::core
