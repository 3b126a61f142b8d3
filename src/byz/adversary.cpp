#include "byz/adversary.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace byzcast::byz {

const char* adversary_kind_name(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kNone:
      return "none";
    case AdversaryKind::kMute:
      return "mute";
    case AdversaryKind::kVerbose:
      return "verbose";
    case AdversaryKind::kForger:
      return "forger";
    case AdversaryKind::kLiar:
      return "liar";
    case AdversaryKind::kFakeGossiper:
      return "fake-gossiper";
    case AdversaryKind::kSelectiveForwarder:
      return "selective";
    case AdversaryKind::kDelayedMute:
      return "delayed-mute";
    case AdversaryKind::kTransientMute:
      return "transient-mute";
    case AdversaryKind::kHelloLiar:
      return "hello-liar";
    case AdversaryKind::kReplayer:
      return "replayer";
  }
  return "?";
}

AdversaryKind adversary_kind_from_name(const std::string& name) {
  for (AdversaryKind kind :
       {AdversaryKind::kNone, AdversaryKind::kMute, AdversaryKind::kVerbose,
        AdversaryKind::kForger, AdversaryKind::kLiar,
        AdversaryKind::kFakeGossiper, AdversaryKind::kSelectiveForwarder,
        AdversaryKind::kDelayedMute, AdversaryKind::kTransientMute,
        AdversaryKind::kHelloLiar, AdversaryKind::kReplayer}) {
    if (name == adversary_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown adversary kind: " + name);
}

// --------------------------------------------------------------------------
// MuteAdversary
// --------------------------------------------------------------------------
MuteAdversary::MuteAdversary(net::Env& env, net::Transport& transport,
                             const crypto::Pki& pki, crypto::Signer signer,
                             core::ProtocolConfig config,
                             stats::Metrics* metrics, des::SimTime onset,
                             des::SimTime until)
    : ByzcastNode(env, transport, pki, signer, config, metrics),
      onset_(onset),
      until_(until) {}

void MuteAdversary::handle_data(const core::DataMsg& msg, NodeId from) {
  if (!mute()) {
    ByzcastNode::handle_data(msg, from);
    return;
  }
  // Swallow silently. Keep the store so it "knows" the message (a real
  // selfish node would still read the data) — it just never spends a
  // transmission on anyone else.
  if (verify_data(msg) && !store_.has(msg.id)) {
    store_.insert(msg, env_.now());
  }
}

void MuteAdversary::handle_gossip(const core::GossipMsg& msg, NodeId from) {
  if (!mute()) {
    ByzcastNode::handle_gossip(msg, from);
  } else if (msg.hello) {
    // Keep consuming beacons — including ones piggybacked on gossip — so
    // our own HELLOs report a live neighbour list and the election keeps
    // trusting us. A mute node that ignores beacons betrays itself
    // without the failure detector's help (its HELLOs go stale).
    handle_hello(*msg.hello, from);
  }
}

void MuteAdversary::handle_request(const core::RequestMsg& msg,
                                   NodeId from) {
  if (!mute()) ByzcastNode::handle_request(msg, from);
}

void MuteAdversary::handle_find(const core::FindMissingMsg& msg,
                                NodeId from) {
  if (!mute()) ByzcastNode::handle_find(msg, from);
}

void MuteAdversary::on_hello_tick() {
  if (mute()) {
    claim_overlay();
  } else {
    ByzcastNode::on_hello_tick();
  }
}

void MuteAdversary::on_gossip_tick() {
  if (!mute()) ByzcastNode::on_gossip_tick();
}

// --------------------------------------------------------------------------
// PeriodicAdversary
// --------------------------------------------------------------------------
PeriodicAdversary::PeriodicAdversary(net::Env& env,
                                     net::Transport& transport,
                                     const crypto::Pki& pki,
                                     crypto::Signer signer,
                                     core::ProtocolConfig config,
                                     stats::Metrics* metrics,
                                     des::SimDuration period)
    : ByzcastNode(env, transport, pki, signer, config, metrics),
      timer_(env_, period, [this] { act(); }) {}

void PeriodicAdversary::start() {
  ByzcastNode::start();
  timer_.start();
}

void PeriodicAdversary::stop() {
  ByzcastNode::stop();
  timer_.stop();
}

// --------------------------------------------------------------------------
// VerboseAdversary
// --------------------------------------------------------------------------
void VerboseAdversary::handle_data(const core::DataMsg& msg, NodeId from) {
  if (verify_data(msg)) known_entries_.push_back(msg.gossip_entry());
  ByzcastNode::handle_data(msg, from);
}

void VerboseAdversary::act() {
  if (known_entries_.empty()) return;
  const core::GossipEntry& entry =
      known_entries_[rng_.next_below(known_entries_.size())];
  // Ask for a message we demonstrably already received — pure overhead
  // for whichever overlay node answers.
  NodeId target = id();
  const auto& neighbors = table_.entries();
  if (!neighbors.empty()) {
    target = neighbors[rng_.next_below(neighbors.size())].id;
  }
  send_packet(core::RequestMsg{entry, target});
}

// --------------------------------------------------------------------------
// ForgerAdversary
// --------------------------------------------------------------------------
ForgerAdversary::ForgerAdversary(net::Env& env, net::Transport& transport,
                                 const crypto::Pki& pki, crypto::Signer signer,
                                 core::ProtocolConfig config,
                                 stats::Metrics* metrics,
                                 des::SimDuration period, NodeId victim)
    : PeriodicAdversary(env, transport, pki, signer, config, metrics, period),
      victim_(victim) {}

void ForgerAdversary::act() {
  core::DataMsg msg;
  msg.id = core::MessageId{victim_, forged_seq_++};
  msg.ttl = 1;
  msg.payload = {0xde, 0xad, 0xbe, 0xef};
  // It does not hold the victim's key, so the best it can do is a random
  // tag (2^-64 of passing verification).
  msg.sig = crypto::Signature{rng_.next_u64()};
  msg.gossip_sig = crypto::Signature{rng_.next_u64()};
  send_packet(msg);
}

// --------------------------------------------------------------------------
// LiarAdversary
// --------------------------------------------------------------------------
void LiarAdversary::handle_data(const core::DataMsg& msg, NodeId /*from*/) {
  if (store_.has(msg.id)) return;
  if (!verify_data(msg)) return;
  store_.insert(msg, env_.now());
  // Forward with one byte flipped but the original signature: every
  // correct receiver must reject it and suspect us. The shared payload
  // buffer is immutable, so the tampered copy gets its own bytes — and
  // the stale wire cache must go with them.
  core::DataMsg tampered = msg;
  tampered.ttl = 1;
  tampered.wire = {};
  std::vector<std::uint8_t> bytes(msg.payload.begin(), msg.payload.end());
  if (bytes.empty()) {
    bytes.push_back(0xff);
  } else {
    bytes[0] ^= 0xff;
  }
  tampered.payload = std::move(bytes);
  send_packet(tampered);
}

// --------------------------------------------------------------------------
// FakeGossiperAdversary
// --------------------------------------------------------------------------
void FakeGossiperAdversary::handle_gossip(const core::GossipMsg& msg,
                                          NodeId /*from*/) {
  // Relay every valid entry regardless of whether we hold the message
  // (the honest rule forbids this), and never request the data.
  for (const core::GossipEntry& entry : msg.entries) {
    if (verify_gossip_entry(entry)) gossip_queue_.enqueue(entry);
  }
}

// --------------------------------------------------------------------------
// SelectiveForwarder
// --------------------------------------------------------------------------
SelectiveForwarder::SelectiveForwarder(net::Env& env,
                                       net::Transport& transport,
                                       const crypto::Pki& pki,
                                       crypto::Signer signer,
                                       core::ProtocolConfig config,
                                       stats::Metrics* metrics,
                                       double forward_prob)
    : ByzcastNode(env, transport, pki, signer, config, metrics),
      forward_prob_(forward_prob) {}

void SelectiveForwarder::handle_data(const core::DataMsg& msg, NodeId from) {
  if (store_.has(msg.id)) return;
  if (!verify_data(msg)) return;
  if (rng_.chance(forward_prob_)) {
    // Behave honestly for this one (forward, gossip, the lot).
    ByzcastNode::handle_data(msg, from);
  } else {
    store_.insert(msg, env_.now());  // swallow
  }
}

// --------------------------------------------------------------------------
// HelloLiarAdversary
// --------------------------------------------------------------------------
HelloLiarAdversary::HelloLiarAdversary(net::Env& env,
                                       net::Transport& transport,
                                       const crypto::Pki& pki,
                                       crypto::Signer signer,
                                       core::ProtocolConfig config,
                                       stats::Metrics* metrics, NodeId victim)
    : ByzcastNode(env, transport, pki, signer, config, metrics),
      victim_(victim) {}

void HelloLiarAdversary::on_hello_tick() {
  table_.expire(env_.now());
  active_ = true;
  dominator_ = true;
  core::HelloMsg hello;
  hello.from = id();
  hello.active = true;
  hello.dominator = true;
  // Fabricate: claim adjacency to everything in sight plus invented ids,
  // claim all of them as dominators, and accuse the victim.
  hello.neighbors = table_.neighbor_ids();
  for (NodeId fake = 0; fake < 4; ++fake) {
    hello.neighbors.push_back(10000 + fake);  // nonexistent nodes
  }
  hello.dominator_neighbors = hello.neighbors;
  hello.suspects = {victim_};
  hello.sig = signer_.sign(core::hello_sign_bytes(hello));
  send_packet(hello);
}

// --------------------------------------------------------------------------
// ReplayerAdversary
// --------------------------------------------------------------------------
void ReplayerAdversary::handle_data(const core::DataMsg& msg, NodeId from) {
  if (verify_data(msg) && recorded_.size() < 256) recorded_.push_back(msg);
  ByzcastNode::handle_data(msg, from);
}

void ReplayerAdversary::act() {
  if (recorded_.empty()) return;
  // Replay an old message verbatim; the signature still verifies, so
  // only at-most-once accounting stands between this and a duplicate
  // accept.
  core::DataMsg replayed =
      recorded_[rng_.next_below(recorded_.size())];
  replayed.ttl = 1;
  replayed.wire = {};  // recorded at a possibly different ttl
  send_packet(replayed);
}

// --------------------------------------------------------------------------
std::unique_ptr<core::ByzcastNode> make_adversary(
    AdversaryKind kind, net::Env& env, net::Transport& transport,
    const crypto::Pki& pki, crypto::Signer signer, core::ProtocolConfig config,
    stats::Metrics* metrics, const AdversaryParams& params) {
  constexpr des::SimTime kForever = std::numeric_limits<des::SimTime>::max();
  switch (kind) {
    case AdversaryKind::kNone:
      return std::make_unique<core::ByzcastNode>(env, transport, pki, signer,
                                                 config, metrics);
    case AdversaryKind::kMute:
      return std::make_unique<MuteAdversary>(env, transport, pki, signer,
                                             config, metrics, 0, kForever);
    case AdversaryKind::kVerbose:
      return std::make_unique<VerboseAdversary>(env, transport, pki, signer,
                                                config, metrics,
                                                params.action_period);
    case AdversaryKind::kForger:
      return std::make_unique<ForgerAdversary>(env, transport, pki, signer,
                                               config, metrics,
                                               des::millis(500),
                                               params.victim);
    case AdversaryKind::kLiar:
      return std::make_unique<LiarAdversary>(env, transport, pki, signer,
                                             config, metrics);
    case AdversaryKind::kFakeGossiper:
      return std::make_unique<FakeGossiperAdversary>(env, transport, pki,
                                                     signer, config, metrics);
    case AdversaryKind::kSelectiveForwarder:
      return std::make_unique<SelectiveForwarder>(env, transport, pki, signer,
                                                  config, metrics,
                                                  params.forward_prob);
    case AdversaryKind::kDelayedMute:
      return std::make_unique<MuteAdversary>(env, transport, pki, signer,
                                             config, metrics,
                                             params.mute_onset, kForever);
    case AdversaryKind::kTransientMute:
      return std::make_unique<MuteAdversary>(
          env, transport, pki, signer, config, metrics, params.mute_onset,
          params.mute_onset + params.mute_duration);
    case AdversaryKind::kHelloLiar:
      return std::make_unique<HelloLiarAdversary>(env, transport, pki, signer,
                                                  config, metrics,
                                                  params.victim);
    case AdversaryKind::kReplayer:
      return std::make_unique<ReplayerAdversary>(
          env, transport, pki, signer, config, metrics,
          std::max<des::SimDuration>(params.action_period, des::millis(50)));
  }
  throw std::invalid_argument("make_adversary: unknown kind");
}

}  // namespace byzcast::byz
