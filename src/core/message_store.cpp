#include "core/message_store.h"

#include <algorithm>

namespace byzcast::core {

namespace {
/// First slot whose id is not below `id` (const or mutable, like `slots`).
template <typename Slots>
auto lower_bound_id(Slots& slots, const MessageId& id) {
  return std::lower_bound(
      slots.begin(), slots.end(), id,
      [](const auto& slot, const MessageId& key) { return slot.id < key; });
}

/// The slot holding `id`, or nullptr.
template <typename Slots>
auto* find_slot(Slots& slots, const MessageId& id) {
  auto it = lower_bound_id(slots, id);
  return it != slots.end() && it->id == id ? &*it : nullptr;
}
}  // namespace

util::Buffer MessageStore::Stored::wire(std::uint8_t ttl) {
  if (ttl < 1 || ttl > 2) ttl = 1;
  util::Buffer& cached = wire_by_ttl_[ttl - 1];
  if (cached.empty()) {
    DataMsg copy = msg;
    copy.ttl = ttl;
    copy.wire = {};
    cached = serialize(Packet{std::move(copy)});
  }
  return cached;
}

bool MessageStore::insert(DataMsg msg, des::SimTime now) {
  auto it = lower_bound_id(index_, msg.id);
  if (it != index_.end() && it->id == msg.id) return false;
  auto entry = std::make_unique<Stored>();
  entry->msg = std::move(msg);
  entry->received_at = now;
  entry->last_seen = now;
  // The frame bytes the message arrived (or went out) in serve as the
  // ready-made retransmission for the same ttl.
  const DataMsg& kept = entry->msg;
  if (!kept.wire.empty() && kept.ttl >= 1 && kept.ttl <= 2) {
    entry->wire_by_ttl_[kept.ttl - 1] = kept.wire;
  }
  index_.insert(it, Slot{kept.id, false, now, std::move(entry)});
  return true;
}

bool MessageStore::has(const MessageId& id) const {
  return find_slot(index_, id) != nullptr;
}

MessageStore::Stored* MessageStore::find(const MessageId& id) {
  Slot* s = find_slot(index_, id);
  return s == nullptr ? nullptr : s->stored.get();
}

const MessageStore::Stored* MessageStore::find(const MessageId& id) const {
  const Slot* s = find_slot(index_, id);
  return s == nullptr ? nullptr : s->stored.get();
}

MessageStore::GossipClaim MessageStore::claim_gossip(const MessageId& id) {
  Slot* s = find_slot(index_, id);
  if (s == nullptr) return GossipClaim::kAbsent;
  if (s->gossip_claimed) return GossipClaim::kClaimed;
  s->gossip_claimed = true;
  return GossipClaim::kFirst;
}

bool MessageStore::mark_accepted(const MessageId& id) {
  if (!accepted_.insert(id).second) return false;
  // Advance the contiguous prefix while the next expected seq is here.
  std::uint32_t& next = prefix_[id.origin];
  while (accepted_.count({id.origin, next}) > 0) ++next;
  return true;
}

std::uint32_t MessageStore::stability_prefix(NodeId origin) const {
  auto it = prefix_.find(origin);
  return it == prefix_.end() ? 0 : it->second;
}

std::vector<std::pair<NodeId, std::uint32_t>> MessageStore::stability_vector()
    const {
  std::vector<std::pair<NodeId, std::uint32_t>> out;
  out.reserve(prefix_.size());
  for (const auto& [origin, next] : prefix_) {
    if (next > 0) out.emplace_back(origin, next);
  }
  return out;
}

bool MessageStore::accepted(const MessageId& id) const {
  return accepted_.count(id) > 0;
}

namespace {
// FNV-1a fold of one little-endian u32 — the tail digest primitive. Kept
// order-sensitive on purpose: tails are folded in ascending seq order, so
// equal digests mean equal tails for honest parties.
std::uint64_t fnv1a_u32(std::uint64_t h, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
}  // namespace

std::uint64_t MessageStore::tail_digest(NodeId origin) const {
  std::uint32_t prefix = stability_prefix(origin);
  auto it = accepted_.lower_bound({origin, prefix});
  if (it == accepted_.end() || it->origin != origin) return 0;
  std::uint64_t h = kFnvBasis;
  for (; it != accepted_.end() && it->origin == origin; ++it) {
    h = fnv1a_u32(h, it->seq);
  }
  return h;
}

std::vector<FrontierEntry> MessageStore::frontier() const {
  std::vector<FrontierEntry> out;
  // accepted_ is ordered by (origin, seq); one pass groups by origin.
  for (auto it = accepted_.begin(); it != accepted_.end();) {
    NodeId origin = it->origin;
    FrontierEntry entry;
    entry.origin = origin;
    entry.prefix = stability_prefix(origin);
    std::uint64_t h = kFnvBasis;
    bool has_tail = false;
    for (; it != accepted_.end() && it->origin == origin; ++it) {
      if (it->seq >= entry.prefix) {
        h = fnv1a_u32(h, it->seq);
        has_tail = true;
      }
    }
    entry.tail_digest = has_tail ? h : 0;
    out.push_back(entry);
  }
  return out;
}

std::vector<MessageStore::Stored*> MessageStore::stored_range(
    NodeId origin, std::uint32_t from_seq, std::uint32_t count) {
  std::vector<Stored*> out;
  std::uint64_t end = static_cast<std::uint64_t>(from_seq) + count;
  for (auto it = lower_bound_id(index_, {origin, from_seq});
       it != index_.end() && it->id.origin == origin && it->id.seq < end;
       ++it) {
    out.push_back(it->stored.get());
  }
  return out;
}

void MessageStore::purge_if(
    des::SimTime now, des::SimDuration min_age,
    const std::function<bool(const MessageId&)>& stable) {
  std::erase_if(index_, [&](const Slot& s) {
    bool old_enough = now >= min_age && s.received_at <= now - min_age;
    return old_enough && stable(s.id);
  });
}

void MessageStore::purge(des::SimTime now, des::SimDuration max_age) {
  if (now < max_age) return;
  des::SimTime cutoff = now - max_age;
  std::erase_if(index_,
                [cutoff](const Slot& s) { return s.received_at < cutoff; });
}

void MessageStore::clear() {
  index_.clear();
  accepted_.clear();
  prefix_.clear();
}

}  // namespace byzcast::core
