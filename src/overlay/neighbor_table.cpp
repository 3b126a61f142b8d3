#include "overlay/neighbor_table.h"

#include <algorithm>

namespace byzcast::overlay {

void NeighborTable::record(
    NodeId id, bool active, bool dominator,
    const std::vector<NodeId>& neighbors,
    const std::vector<NodeId>& dominator_neighbors, des::SimTime now,
    const std::vector<std::pair<NodeId, std::uint32_t>>& stability) {
  for (Entry& entry : entries_) {
    if (entry.id == id) {
      entry.active = active;
      entry.dominator = dominator;
      entry.neighbors = neighbors;
      entry.dominator_neighbors = dominator_neighbors;
      entry.stability = stability;
      entry.last_heard = now;
      return;
    }
  }
  entries_.push_back(Entry{id, active, dominator, neighbors,
                           dominator_neighbors, stability, now});
}

std::uint32_t NeighborTable::reported_stability(NodeId reporter,
                                                NodeId origin) const {
  const Entry* entry = find(reporter);
  if (entry == nullptr) return 0;
  for (const auto& [o, prefix] : entry->stability) {
    if (o == origin) return prefix;
  }
  return 0;
}

std::vector<NodeId> NeighborTable::expire(des::SimTime now) {
  std::vector<NodeId> expired;
  if (now < entry_timeout_) return expired;
  des::SimTime cutoff = now - entry_timeout_;
  std::erase_if(entries_, [cutoff, &expired](const Entry& e) {
    if (e.last_heard >= cutoff) return false;
    expired.push_back(e.id);
    return true;
  });
  return expired;
}

const NeighborTable::Entry* NeighborTable::find(NodeId id) const {
  for (const Entry& entry : entries_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

bool NeighborTable::reports_neighbor(NodeId reporter, NodeId other) const {
  const Entry* entry = find(reporter);
  if (entry == nullptr) return false;
  return std::find(entry->neighbors.begin(), entry->neighbors.end(), other) !=
         entry->neighbors.end();
}

std::vector<NodeId> NeighborTable::neighbor_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(entries_.size());
  for (const Entry& entry : entries_) ids.push_back(entry.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace byzcast::overlay
