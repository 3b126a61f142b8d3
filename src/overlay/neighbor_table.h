// Local neighbourhood knowledge built from HELLO beacons (paper §3.3).
//
// Each entry records what one neighbour last reported: its overlay status
// and its own neighbour list ("p records for each neighbor the list of its
// active neighbors"; we keep the full list plus the status). Entries
// expire after `entry_timeout` with no beacon — that is how departures and
// crashes vacate the table under mobility (Observation 3.4's "after some
// finite time all of its correct neighbors know").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "des/time.h"
#include "obs/gauge.h"
#include "util/node_id.h"

namespace byzcast::overlay {

class NeighborTable : public obs::GaugeSource {
 public:
  struct Entry {
    NodeId id = kInvalidNode;
    bool active = false;     ///< overlay member (dominator or bridge)
    bool dominator = false;  ///< MIS dominator / CDS member
    std::vector<NodeId> neighbors;  ///< its reported N(1)
    /// The subset of its neighbours it reports as dominators.
    std::vector<NodeId> dominator_neighbors;
    /// Its reported per-origin stability prefixes (§3.2.2 purging).
    std::vector<std::pair<NodeId, std::uint32_t>> stability;
    des::SimTime last_heard = 0;
  };

  explicit NeighborTable(des::SimDuration entry_timeout)
      : entry_timeout_(entry_timeout) {}

  /// Records a beacon from `id` at `now`. The lists are copied into the
  /// entry's existing capacity: a neighbour's beacons keep roughly the
  /// same length, so a steady-state record allocates nothing.
  void record(NodeId id, bool active, bool dominator,
              const std::vector<NodeId>& neighbors,
              const std::vector<NodeId>& dominator_neighbors, des::SimTime now,
              const std::vector<std::pair<NodeId, std::uint32_t>>& stability =
                  {});

  /// The stability prefix `reporter` last claimed for `origin` (0 when
  /// unknown or never reported).
  [[nodiscard]] std::uint32_t reported_stability(NodeId reporter,
                                                 NodeId origin) const;

  /// Drops entries not heard from since `now - entry_timeout`. Returns
  /// the ids dropped, so the caller can release failure-detector
  /// expectations on departed nodes (Observation 3.4: a node that left
  /// the neighbourhood owes us nothing — crashed nodes must not keep
  /// accruing MUTE misses while down).
  std::vector<NodeId> expire(des::SimTime now);

  /// Drops every entry (crash of the owning node's volatile state).
  void clear() { entries_.clear(); }

  [[nodiscard]] const Entry* find(NodeId id) const;
  [[nodiscard]] bool contains(NodeId id) const { return find(id) != nullptr; }
  /// True when `a` appears in `b`'s reported neighbour list (or vice
  /// versa is checked by the caller; beacon views can be asymmetric).
  [[nodiscard]] bool reports_neighbor(NodeId reporter, NodeId other) const;

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// Ids of all live entries (our N(1) estimate), sorted.
  [[nodiscard]] std::vector<NodeId> neighbor_ids() const;

  /// Gauge: current neighbour count, sampled by the obs::Timeline.
  void poll_gauges(obs::GaugeVisitor& visitor) const override {
    visitor.gauge("neighbors", static_cast<std::int64_t>(entries_.size()));
  }

 private:
  des::SimDuration entry_timeout_;
  std::vector<Entry> entries_;  // small degree: linear scans are fine
};

}  // namespace byzcast::overlay
