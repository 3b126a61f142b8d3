// Byzantine behaviour models (fault injection, DESIGN.md S15).
//
// Each adversary subclasses ByzcastNode and overrides exactly the steps
// it corrupts, inheriting the honest machinery for everything else —
// which is what makes the attacks credible: a MuteAdversary still sends
// perfectly valid HELLOs claiming overlay membership, so only its
// *silence* can betray it, exactly the failure mode the paper's MUTE
// detector exists for.
//
// The menagerie covers §2.1's failure list: "Byzantine processes may fail
// to send messages [Mute, SelectiveForwarder], send too many messages
// [Verbose], send messages with false information [Forger, Liar,
// FakeGossiper]".
#pragma once

#include <memory>
#include <string>

#include "core/byzcast_node.h"
#include "net/timer.h"

namespace byzcast::byz {

enum class AdversaryKind {
  kNone,                ///< honest node
  kMute,                ///< claims overlay membership, forwards nothing
  kVerbose,             ///< floods REQUEST_MSGs for messages it has
  kForger,              ///< injects DATA with forged signatures
  kLiar,                ///< forwards DATA with tampered payloads
  kFakeGossiper,        ///< gossips claims it refuses to back with data
  kSelectiveForwarder,  ///< drops a random fraction of forwards
  kDelayedMute,         ///< honest until an onset time, then mute
  kTransientMute,       ///< mute only during [onset, onset+duration)
  kHelloLiar,           ///< fabricates HELLO contents (election attack)
  kReplayer,            ///< replays old valid DATA messages
};

const char* adversary_kind_name(AdversaryKind kind);
AdversaryKind adversary_kind_from_name(const std::string& name);

/// Behaviour knobs shared by the adversary constructors; every field has
/// a sensible default so `make_adversary(kind, ...)` works bare.
struct AdversaryParams {
  /// kDelayedMute / kTransientMute: when the node stops cooperating.
  des::SimDuration mute_onset = des::seconds(30);
  /// kTransientMute: how long the mute interval lasts.
  des::SimDuration mute_duration = des::seconds(15);
  /// kSelectiveForwarder: probability of behaving honestly per message.
  double forward_prob = 0.3;
  /// kVerbose: spam period. kReplayer: replay period.
  des::SimDuration action_period = des::millis(5);
  /// kForger: whose identity to forge. kHelloLiar: whom to accuse.
  NodeId victim = 0;
};

/// Honest outside the window [onset, until), mute inside it: claims
/// overlay membership in every HELLO but never forwards DATA, never
/// gossips, never answers recovery requests — the paper's "most adverse
/// impact" failure (§4 preamble). The window spans the paper's mute
/// models: [0, ∞) is a mute node from the start (kMute), [onset, ∞) a
/// node that turns mute mid-run (kDelayedMute: a correct baseline, a
/// fault event, a detection, a recovery — the healing timeline E5
/// needs), and a bounded window the I-mute interval of §2.2
/// (kTransientMute), after which suspicions must age out (Interval
/// Strong Accuracy).
class MuteAdversary final : public core::ByzcastNode {
 public:
  MuteAdversary(net::Env& env, net::Transport& transport,
                const crypto::Pki& pki, crypto::Signer signer,
                core::ProtocolConfig config, stats::Metrics* metrics,
                des::SimTime onset, des::SimTime until);

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void handle_gossip(const core::GossipMsg& msg, NodeId from) override;
  void handle_request(const core::RequestMsg& msg, NodeId from) override;
  void handle_find(const core::FindMissingMsg& msg, NodeId from) override;
  void on_hello_tick() override;
  void on_gossip_tick() override;

 private:
  [[nodiscard]] bool mute() const {
    return env_.now() >= onset_ && env_.now() < until_;
  }
  des::SimTime onset_;
  des::SimTime until_;
};

/// Base of the adversaries that act on a clock: runs the honest protocol
/// and calls act() every `period`, on a timer started and stopped with
/// the node.
class PeriodicAdversary : public core::ByzcastNode {
 public:
  PeriodicAdversary(net::Env& env, net::Transport& transport,
                    const crypto::Pki& pki, crypto::Signer signer,
                    core::ProtocolConfig config, stats::Metrics* metrics,
                    des::SimDuration period);
  void start() override;
  void stop() override;

 protected:
  virtual void act() = 0;

 private:
  net::PeriodicTimer timer_;
};

/// Sprays a REQUEST_MSG each period for a message it already holds,
/// trying to make overlay nodes burn airtime on retransmissions.
class VerboseAdversary final : public PeriodicAdversary {
 public:
  using PeriodicAdversary::PeriodicAdversary;

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void act() override;

 private:
  std::vector<core::GossipEntry> known_entries_;
};

/// Injects a DATA message each period that claims `victim` as originator
/// with a random signature (it cannot forge a real one) — the validity
/// property's direct antagonist.
class ForgerAdversary final : public PeriodicAdversary {
 public:
  ForgerAdversary(net::Env& env, net::Transport& transport,
                  const crypto::Pki& pki, crypto::Signer signer,
                  core::ProtocolConfig config, stats::Metrics* metrics,
                  des::SimDuration period, NodeId victim);

 protected:
  void act() override;

 private:
  NodeId victim_;
  std::uint32_t forged_seq_ = 1'000'000;  // away from real sequence space
};

/// Forwards every DATA message with one payload byte flipped, keeping the
/// original signature — receivers must detect and reject the tampering.
class LiarAdversary final : public core::ByzcastNode {
 public:
  using ByzcastNode::ByzcastNode;

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void on_hello_tick() override { claim_overlay(); }
};

/// Relays gossip for messages it does not hold (violating the protocol's
/// "only gossip what you received" rule) and never answers REQUEST/FIND —
/// the exact behaviour §3.2.2 promises gets suspected: "If q gossips
/// about messages that do not exist or q does not want to supply them, it
/// will be suspected."
class FakeGossiperAdversary final : public core::ByzcastNode {
 public:
  using ByzcastNode::ByzcastNode;

 protected:
  void handle_gossip(const core::GossipMsg& msg, NodeId from) override;
  void handle_request(const core::RequestMsg&, NodeId) override {}
  void handle_find(const core::FindMissingMsg&, NodeId) override {}
};

/// Claims overlay membership but forwards each DATA only with probability
/// `forward_prob` — a stealthier mute node.
class SelectiveForwarder final : public core::ByzcastNode {
 public:
  SelectiveForwarder(net::Env& env, net::Transport& transport,
                     const crypto::Pki& pki, crypto::Signer signer,
                     core::ProtocolConfig config, stats::Metrics* metrics,
                     double forward_prob);

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void handle_request(const core::RequestMsg&, NodeId) override {}
  void handle_find(const core::FindMissingMsg&, NodeId) override {}
  void on_hello_tick() override { claim_overlay(); }

 private:
  double forward_prob_;
};

/// Election attacker: forwards data honestly but fabricates its HELLOs —
/// claims every node it ever heard of as a neighbour, always claims
/// dominator status, and accuses a victim of being Byzantine. §3.3's
/// damage bound says this can only *add* correct nodes to the overlay
/// and mark the victim "unknown"; it cannot partition correct nodes.
class HelloLiarAdversary final : public core::ByzcastNode {
 public:
  HelloLiarAdversary(net::Env& env, net::Transport& transport,
                     const crypto::Pki& pki, crypto::Signer signer,
                     core::ProtocolConfig config, stats::Metrics* metrics,
                     NodeId victim);

 protected:
  void on_hello_tick() override;

 private:
  NodeId victim_;
};

/// Replays a previously-heard valid DATA message each period, long after
/// the original — the at-most-once clause of the validity property is its
/// direct antagonist (accepted ids outlive purging).
class ReplayerAdversary final : public PeriodicAdversary {
 public:
  using PeriodicAdversary::PeriodicAdversary;

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void act() override;

 private:
  std::vector<core::DataMsg> recorded_;
};

/// Constructs a node with the requested behaviour against an explicit
/// Env/Transport pair (any backend). Honest nodes get a plain
/// ByzcastNode.
std::unique_ptr<core::ByzcastNode> make_adversary(
    AdversaryKind kind, net::Env& env, net::Transport& transport,
    const crypto::Pki& pki, crypto::Signer signer,
    core::ProtocolConfig config, stats::Metrics* metrics = nullptr,
    const AdversaryParams& params = {});

}  // namespace byzcast::byz
