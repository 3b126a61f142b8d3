// Baseline 2: f+1 node-independent overlays (paper §1, refs [15,34,36]).
//
// "One way around this is to maintain f+1 node independent overlays ...
// and flood each message along each of these overlays, guaranteeing that
// each message will eventually arrive despite possible Byzantine nodes.
// Of course, the price paid by this approach is that every message has to
// be sent f+1 times even if in practice none of the devices suffered from
// a Byzantine fault."
//
// This baseline is *idealized in the baseline's favour*: the k disjoint
// connected-dominating backbones are computed centrally from the
// ground-truth topology (compute_disjoint_overlays) instead of being
// maintained by a distributed protocol, and it pays no gossip/HELLO
// overhead. Even so, E8 shows its DATA cost scales with f+1 while the
// paper's protocol pays ~1x plus cheap gossip.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "crypto/signature.h"
#include "net/env.h"
#include "net/transport.h"
#include "stats/metrics.h"

namespace byzcast::baselines {

/// Computes `k` pairwise node-disjoint connected dominating sets of the
/// graph given by `adjacency` (adjacency[i] = neighbours of node i).
/// Greedy: each CDS grows from a high-degree allowed node, adding the
/// allowed neighbour covering the most uncovered nodes. Throws
/// std::runtime_error when the graph is too sparse to supply k disjoint
/// backbones — the f+1 approach's standing applicability problem.
std::vector<std::set<NodeId>> compute_disjoint_overlays(
    const std::vector<std::vector<std::size_t>>& adjacency, int k);

class MultiOverlayNode {
 public:
  using AcceptHandler = std::function<void(
      NodeId origin, std::uint32_t seq, std::span<const std::uint8_t>)>;

  /// `memberships[i]` is true when this node belongs to overlay i; size
  /// gives k = f+1.
  MultiOverlayNode(net::Env& env, net::Transport& transport,
                   const crypto::Pki& pki, crypto::Signer signer,
                   std::vector<bool> memberships,
                   stats::Metrics* metrics = nullptr);
  virtual ~MultiOverlayNode() = default;
  MultiOverlayNode(const MultiOverlayNode&) = delete;
  MultiOverlayNode& operator=(const MultiOverlayNode&) = delete;

  /// Sends one copy of the message per overlay.
  void broadcast(std::vector<std::uint8_t> payload);
  void set_accept_handler(AcceptHandler handler) {
    accept_handler_ = std::move(handler);
  }
  void set_expected_targets(std::size_t targets) { targets_ = targets; }

  [[nodiscard]] NodeId id() const { return signer_.id(); }
  [[nodiscard]] int overlay_count() const {
    return static_cast<int>(memberships_.size());
  }

  struct CopyPacket {
    std::uint8_t overlay = 0;
    NodeId origin = kInvalidNode;
    std::uint32_t seq = 0;
    util::Buffer payload;
    crypto::Signature sig;  ///< over (origin, seq, payload) — shared by copies
    /// Serialized bytes of this copy (overlay tag included) — shared with
    /// the frame it arrived in, re-sent verbatim when forwarding.
    util::Buffer wire;
  };
  static util::Buffer serialize(const CopyPacket& packet);
  static std::optional<CopyPacket> parse(const util::Buffer& bytes);

 protected:
  /// Overridden by Byzantine variants (drop instead of forward).
  virtual void on_packet(const CopyPacket& packet, NodeId from);

  net::Env& env_;
  net::Transport& transport_;
  const crypto::Pki& pki_;
  crypto::Signer signer_;
  std::vector<bool> memberships_;
  stats::Metrics* metrics_;
  AcceptHandler accept_handler_;
  std::size_t targets_ = 0;
  std::uint32_t next_seq_ = 0;
  /// Copies already forwarded, per (origin, seq, overlay).
  std::set<std::tuple<NodeId, std::uint32_t, std::uint8_t>> forwarded_;
  /// Messages already accepted, per (origin, seq).
  std::set<std::pair<NodeId, std::uint32_t>> accepted_;

  void send_copy(const CopyPacket& packet);
};

}  // namespace byzcast::baselines
