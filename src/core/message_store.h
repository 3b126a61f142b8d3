// Per-node message buffer with timeout purging (paper §3.2.2: "we have
// chosen to use timeout based purging due to its simplicity") and the
// at-most-once accept bookkeeping the validity property requires.
//
// Stored messages back the recovery path (answering REQUEST_MSG /
// FIND_MISSING_MSG); the accepted-id set is kept separately and is never
// purged, so a duplicate arriving after its buffer entry expired is still
// filtered. §3.5 bounds the buffer at max_timeout·(n−1)·δ messages; the
// purge timeout is the config knob realizing that bound.
//
// Layout (DESIGN.md "receive path"): every received copy of a message a
// node already holds costs one lookup here, so the stored set is a flat
// vector of small slots sorted by MessageId — id, receipt time and the
// relay-gossip-once bit — each pointing at a heap-allocated Stored that
// never moves. Lookups binary-search contiguous memory, purges scan it
// without touching the payloads, and a Stored* stays valid until its own
// entry is purged.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/message.h"
#include "des/time.h"
#include "obs/gauge.h"

namespace byzcast::core {

class MessageStore : public obs::GaugeSource {
 public:
  struct Stored {
    DataMsg msg;
    des::SimTime received_at = 0;
    des::SimTime last_reply = 0;   ///< last retransmission we sent
    /// Last time any copy was heard on the air (first receipt or a
    /// duplicate) — recovery replies are suppressed while a copy is
    /// fresh, the standard broadcast-storm damper.
    des::SimTime last_seen = 0;

    /// Serialized DATA bytes for this message at `ttl` (1 or 2), ready to
    /// hand straight to the radio. Seeded from the frame the message
    /// arrived in (DataMsg::wire) when the ttl matches, so a reply
    /// usually re-sends the original bytes; a ttl the store has never
    /// seen is serialized once on first use and cached.
    [[nodiscard]] util::Buffer wire(std::uint8_t ttl);

   private:
    friend class MessageStore;
    util::Buffer wire_by_ttl_[2];  // index ttl - 1
  };

  /// Inserts a verified message. Returns false if already present.
  bool insert(DataMsg msg, des::SimTime now);

  [[nodiscard]] bool has(const MessageId& id) const;
  /// Mutable access for reply bookkeeping; nullptr if absent/purged.
  [[nodiscard]] Stored* find(const MessageId& id);
  [[nodiscard]] const Stored* find(const MessageId& id) const;

  enum class GossipClaim : std::uint8_t {
    kAbsent,   ///< not stored: the caller may need to request it
    kFirst,    ///< stored, and this call claimed its one gossip relay
    kClaimed,  ///< stored, and its gossip relay was claimed before
  };
  /// The relay-gossip-once test of Figure 3 (lines 19-21 and 34-38) in
  /// one lookup: reports whether `id` is stored and, if so, marks its
  /// lazycast as started. kFirst is returned at most once per stored
  /// entry; a purged and re-inserted message can be claimed again.
  GossipClaim claim_gossip(const MessageId& id);

  /// Marks `id` accepted. Returns true exactly once per id.
  bool mark_accepted(const MessageId& id);
  [[nodiscard]] bool accepted(const MessageId& id) const;

  /// Stability prefix for `origin`: the lowest sequence number NOT yet
  /// accepted — i.e. all of (origin, 0..prefix-1) have been accepted.
  /// Drives the stability-detection purging of §3.2.2.
  [[nodiscard]] std::uint32_t stability_prefix(NodeId origin) const;
  /// All origins with a non-zero stability prefix, as (origin, prefix).
  [[nodiscard]] std::vector<std::pair<NodeId, std::uint32_t>>
  stability_vector() const;

  // --- range-sync queries (DESIGN.md §11) --------------------------------
  /// Per-origin sync frontier over the *accepted* set (which is never
  /// purged): one FrontierEntry per origin we accepted anything from,
  /// ascending origin. Note a frontier can advertise messages whose
  /// stored bytes have since been purged; the responder then simply
  /// serves less than it advertised.
  [[nodiscard]] std::vector<FrontierEntry> frontier() const;
  /// Deterministic digest over the ragged accepted tail of `origin`
  /// (accepted seqs at or above its contiguous prefix, folded in
  /// ascending order); 0 when the tail is empty.
  [[nodiscard]] std::uint64_t tail_digest(NodeId origin) const;
  /// Stored entries of `origin` with from_seq <= seq < from_seq + count,
  /// ascending seq. Pointers are mutable because serving a range touches
  /// the per-ttl wire cache; they are invalidated by purge/clear.
  [[nodiscard]] std::vector<Stored*> stored_range(NodeId origin,
                                                  std::uint32_t from_seq,
                                                  std::uint32_t count);

  /// Drops stored messages received before `now - max_age`; accepted ids
  /// are kept.
  void purge(des::SimTime now, des::SimDuration max_age);

  /// Drops stored messages for which `stable` returns true (and which
  /// are older than `min_age`) — the §3.2.2 stability-detection purge.
  void purge_if(des::SimTime now, des::SimDuration min_age,
                const std::function<bool(const MessageId&)>& stable);

  /// Wipes everything — stored messages, accepted ids and stability
  /// prefixes. Models a crash of the volatile memory the store lives in
  /// (fault injection's kCrashRecover); the at-most-once accept guarantee
  /// consequently only spans one node incarnation.
  void clear();

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t accepted_count() const { return accepted_.size(); }

  /// Gauges: buffered message count and cumulative accepted ids, sampled
  /// by the obs::Timeline.
  void poll_gauges(obs::GaugeVisitor& visitor) const override {
    visitor.gauge("store_size", static_cast<std::int64_t>(index_.size()));
    visitor.gauge("accepted", static_cast<std::int64_t>(accepted_.size()));
  }

 private:
  struct Slot {
    MessageId id;
    bool gossip_claimed = false;  ///< claim_gossip() has returned kFirst
    des::SimTime received_at = 0;
    std::unique_ptr<Stored> stored;
  };
  std::vector<Slot> index_;  // ascending id
  std::set<MessageId> accepted_;
  std::map<NodeId, std::uint32_t> prefix_;  // per-origin contiguous accepts
};

}  // namespace byzcast::core
