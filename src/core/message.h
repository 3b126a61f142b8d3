// Wire formats of the protocol message types (paper Figures 3 & 4, plus
// the range-sync extension of DESIGN.md §11).
//
//   DATA              msg_id ‖ origin ‖ ttl ‖ payload ‖ sig ‖ gossip_sig
//   GOSSIP            aggregated entries of msg_id ‖ origin ‖ gossip_sig
//   REQUEST_MSG       one gossip entry ‖ target   (line 32: ask `target`
//                     and overlay neighbours to retransmit)
//   FIND_MISSING_MSG  one gossip entry ‖ gossiper ‖ issuer ‖ ttl
//   HELLO             status ‖ neighbours ‖ suspects ‖ sig   (§3.3 beacons,
//                     "overlay maintenance messages are signed as well")
//   FRONTIER          from ‖ target ‖ response ‖ nonce ‖ per-origin
//                     {origin ‖ prefix ‖ tail_digest} ‖ sig — one side of a
//                     range-sync frontier exchange
//   BULK_PULL         from ‖ target ‖ nonce ‖ ranges of
//                     {origin ‖ from_seq ‖ count} ‖ sig — ask `target` for
//                     every stored message in the ranges
//   BULK_REPLY        from ‖ target ‖ nonce ‖ last ‖ length-prefixed DATA
//                     packet blobs ‖ sig — one signed batch served verbatim
//                     from the responder's cached wire bytes
//
// Two deliberate deviations from the pseudo-code, both sanctioned by the
// paper's own footnotes:
//  * The originator's gossip signature rides inside DATA (footnote 5:
//    "possible to piggyback the first gossip of a message"), so any node
//    holding a message can relay its gossip — receiving DATA counts as
//    having received the gossip about it.
//  * Gossip entries are aggregated into one packet per gossip period
//    (§1: "multiple gossip messages are aggregated into one packet").
//
// Signatures occupy crypto::kWireSignatureBytes (40 B, DSA-sized) on the
// wire so byte accounting matches the paper's implementation; see
// crypto/signature.h.
//
// Parsing is total: `parse_packet` returns std::nullopt on any malformed
// input (Byzantine nodes control every payload byte). It is also strict:
// an accepted byte string re-serializes to exactly itself (bools must be
// 0/1, signature padding must be zero, no trailing bytes), which is what
// lets the zero-copy path retransmit received frame bytes verbatim.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/signature.h"
#include "stats/metrics.h"
#include "util/bytes.h"
#include "util/node_id.h"

namespace byzcast::core {

/// Largest application payload a DATA (or baseline flood) packet may
/// carry; parsers reject anything bigger before allocating.
inline constexpr std::size_t kMaxPayloadBytes = 64 * 1024;

enum class MsgType : std::uint8_t {
  kData = 1,
  kGossip = 2,
  kRequestMsg = 3,
  kFindMissingMsg = 4,
  kHello = 5,
  kFrontier = 6,
  kBulkPull = 7,
  kBulkReply = 8,
};

/// Caps on the range-sync packets, enforced by the parser before any
/// allocation happens (a Byzantine sender controls every count field).
inline constexpr std::size_t kMaxFrontierEntries = 512;
inline constexpr std::size_t kMaxPullRanges = 256;
inline constexpr std::size_t kMaxBatchMessages = 64;

stats::MsgKind to_msg_kind(MsgType type);

/// Identity of one application broadcast.
struct MessageId {
  NodeId origin = kInvalidNode;
  std::uint32_t seq = 0;
  auto operator<=>(const MessageId&) const = default;
};

/// msg_id ‖ node_id ‖ sig(msg_id ‖ node_id) — the paper's "gossip
/// message", signed by the originator.
struct GossipEntry {
  MessageId id;
  crypto::Signature origin_sig;
};

struct DataMsg {
  MessageId id;
  std::uint8_t ttl = 1;
  util::Buffer payload;
  crypto::Signature sig;         ///< originator over (origin, seq, payload)
  crypto::Signature gossip_sig;  ///< originator over (origin, seq)

  /// Full serialized packet bytes for this message *at this ttl* —
  /// shared with the frame it arrived in (parse_packet_shared) or with
  /// the frame it went out on (broadcast). Empty when unknown; anyone
  /// mutating ttl or payload on a copy must clear it. Retransmission
  /// paths use it to re-send the original bytes without re-serializing.
  util::Buffer wire;

  [[nodiscard]] GossipEntry gossip_entry() const { return {id, gossip_sig}; }
};

struct HelloMsg {
  NodeId from = kInvalidNode;
  bool active = false;     ///< overlay member (dominator or bridge)
  bool dominator = false;  ///< MIS dominator / CDS member (implies active)
  std::vector<NodeId> neighbors;  ///< sender's current N(1) view
  /// Subset of `neighbors` the sender believes are dominators — the §3.3
  /// "list of its active neighbors" that bridge election consumes.
  std::vector<NodeId> dominator_neighbors;
  std::vector<NodeId> suspects;  ///< sender's untrusted set (§3.3 reports)
  /// Stability vector: per-origin contiguous-accept prefixes ("I have all
  /// of origin o's messages below seq p"), driving the §3.2.2
  /// stability-detection purge when PurgePolicy::kStability is selected.
  std::vector<std::pair<NodeId, std::uint32_t>> stability;
  crypto::Signature sig;  ///< sender over all fields above
};

struct GossipMsg {
  std::vector<GossipEntry> entries;
  /// Piggybacked overlay beacon (§3: "most overlay maintenance messages
  /// can be piggybacked on gossip messages"). A node's hello tick rides
  /// its pending gossip bundle instead of paying for its own packet.
  std::optional<HelloMsg> hello;
};

struct RequestMsg {
  GossipEntry entry;
  NodeId target = kInvalidNode;  ///< the gossiper being asked (p_k in Fig 4)
};

struct FindMissingMsg {
  GossipEntry entry;
  NodeId gossiper = kInvalidNode;  ///< p_k: node known to claim the message
  NodeId issuer = kInvalidNode;    ///< overlay node that issued the FIND
  std::uint8_t ttl = 2;
};

/// One origin's line in a sync frontier: "I have accepted every (origin,
/// seq) with seq < prefix, and `tail_digest` folds the ragged accepted
/// seqs at or above it" (0 when the tail is empty). Comparing frontiers
/// is how a rejoiner computes its missing set locally — O(origins), not
/// O(messages).
struct FrontierEntry {
  NodeId origin = kInvalidNode;
  std::uint32_t prefix = 0;
  std::uint64_t tail_digest = 0;
};

/// Range-sync step 1 (DESIGN.md §11): frontier exchange. The opener sends
/// response=false with its own frontier; the responder answers with
/// response=true echoing `nonce` so a session never confuses replies from
/// an earlier attempt.
struct FrontierMsg {
  NodeId from = kInvalidNode;
  NodeId target = kInvalidNode;
  bool response = false;
  std::uint32_t nonce = 0;
  std::vector<FrontierEntry> entries;
  crypto::Signature sig;  ///< sender over all fields above
};

/// Half-open request [from_seq, from_seq + count) of one origin's seqs.
struct PullRange {
  NodeId origin = kInvalidNode;
  std::uint32_t from_seq = 0;
  std::uint32_t count = 0;
};

/// Range-sync step 2: ask `target` for every stored message in `ranges`.
struct BulkPullMsg {
  NodeId from = kInvalidNode;
  NodeId target = kInvalidNode;
  std::uint32_t nonce = 0;
  std::vector<PullRange> ranges;
  crypto::Signature sig;  ///< sender over all fields above
};

/// Range-sync step 3: one signed batch of full DATA packets, each blob the
/// responder's cached wire bytes verbatim (MessageStore::Stored::wire).
/// The blobs are opaque at this layer — the sync session re-parses and
/// verifies each one before admission, so the batch signature only binds
/// the batch to the responder, it does not vouch for the contents.
/// `last` = false means the batch hit a size cap and the requester should
/// pull again for the remainder (requester-driven paging; the responder
/// keeps no session state).
struct BulkReplyMsg {
  NodeId from = kInvalidNode;
  NodeId target = kInvalidNode;
  std::uint32_t nonce = 0;
  bool last = true;
  std::vector<util::Buffer> messages;
  crypto::Signature sig;  ///< sender over all fields above
};

using Packet = std::variant<DataMsg, GossipMsg, RequestMsg, FindMissingMsg,
                            HelloMsg, FrontierMsg, BulkPullMsg, BulkReplyMsg>;

/// Bytes a signature of `id` covers for DATA (origin ‖ seq ‖ payload).
std::vector<std::uint8_t> data_sign_bytes(
    const MessageId& id, std::span<const std::uint8_t> payload);
/// Bytes the gossip signature covers: the GOSSIP type byte, then origin
/// and seq as little-endian u32s. Fixed-size and returned by value — every
/// received gossip entry is verified against these, so they must not cost
/// a heap allocation.
using GossipSignBytes = std::array<std::uint8_t, 9>;
GossipSignBytes gossip_sign_bytes(const MessageId& id);
/// Bytes a HELLO signature covers (everything but the signature).
std::vector<std::uint8_t> hello_sign_bytes(const HelloMsg& hello);
/// Bytes the range-sync signatures cover (everything but the signature).
std::vector<std::uint8_t> frontier_sign_bytes(const FrontierMsg& msg);
std::vector<std::uint8_t> bulk_pull_sign_bytes(const BulkPullMsg& msg);
std::vector<std::uint8_t> bulk_reply_sign_bytes(const BulkReplyMsg& msg);

/// Serializes into one immutable shared buffer — the only allocation a
/// packet's bytes ever make; radio, medium and store all share it.
util::Buffer serialize(const Packet& packet);
/// Exact byte length of serialize(packet), which reserves it up front.
[[nodiscard]] std::size_t serialized_size(const Packet& packet);

/// Parses a packet from a borrowed view. A parsed DataMsg owns a fresh
/// copy of its payload (the view may die with the caller's stack).
std::optional<Packet> parse_packet(std::span<const std::uint8_t> bytes);

/// Parses a packet from a shared buffer (the receive path). A parsed
/// DataMsg *borrows* its payload as a slice of `bytes` — zero copy — and
/// carries `bytes` itself in DataMsg::wire for verbatim retransmission.
/// Distinct name, not an overload: both std::vector -> std::span and
/// std::vector -> Buffer are user conversions, so overloading would make
/// `parse_packet(some_vector)` ambiguous.
std::optional<Packet> parse_packet_shared(const util::Buffer& bytes);

[[nodiscard]] MsgType packet_type(const Packet& packet);

}  // namespace byzcast::core
