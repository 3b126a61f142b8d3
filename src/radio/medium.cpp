#include "radio/medium.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/profiler.h"
#include "radio/radio.h"

namespace byzcast::radio {

namespace {

/// How far a node can drift from its grid-indexed position before the
/// grid is refreshed. Queries widen their radius by this much, so the
/// cell walk still yields a guaranteed superset of the true in-range set.
double stale_margin(const MediumConfig& config) {
  return config.max_speed_mps * des::to_seconds(config.grid_refresh) + 1e-9;
}

}  // namespace

Medium::Medium(des::Simulator& sim,
               std::unique_ptr<PropagationModel> propagation,
               MediumConfig config, stats::Metrics* metrics)
    : sim_(sim),
      propagation_(std::move(propagation)),
      config_(config),
      metrics_(metrics),
      rng_(sim.split_rng()) {
  if (!propagation_) {
    throw std::invalid_argument("Medium: propagation model required");
  }
  if (config_.bitrate_bps <= 0) {
    throw std::invalid_argument("Medium: bitrate must be positive");
  }
}

void Medium::register_radio(Radio& radio) {
  NodeId id = radio.local_id();
  if (id >= radios_.size()) {
    radios_.resize(id + 1, nullptr);
    attached_.resize(id + 1, true);
    tx_busy_until_.resize(id + 1, 0);
    tx_intervals_.resize(id + 1);
    receptions_.resize(id + 1);
  }
  if (radios_[id] != nullptr) {
    throw std::invalid_argument("Medium: node id registered twice");
  }
  radios_[id] = &radio;
  max_reach_ = std::max(max_reach_, propagation_->max_range(radio.range()));
  // grid_items_ no longer matches radios_.size(), so the next spatial
  // query rebuilds the grid with the newcomer included.
}

des::SimDuration Medium::airtime(std::size_t wire_bytes) const {
  double seconds = static_cast<double>(wire_bytes) * 8.0 / config_.bitrate_bps;
  return std::max<des::SimDuration>(1, des::from_seconds(seconds));
}

geo::Vec2 Medium::position_of(NodeId id) const {
  if (id >= radios_.size() || radios_[id] == nullptr) {
    throw std::out_of_range("Medium::position_of: unknown node");
  }
  return radios_[id]->position_at(sim_.now());
}

bool Medium::sharding_active() const {
  return config_.sharded && config_.world.width > 0 &&
         config_.world.height > 0 && config_.max_speed_mps >= 0;
}

void Medium::refresh_grid(des::SimTime now) const {
  if (grid_.has_value() && grid_items_ == radios_.size() &&
      now - grid_time_ < config_.grid_refresh) {
    return;
  }
  const double cell = std::max(1.0, max_reach_ + stale_margin(config_));
  grid_.emplace(config_.world, cell);
  std::vector<geo::Vec2> positions(radios_.size(), geo::Vec2{0, 0});
  strays_.clear();
  for (NodeId id = 0; id < radios_.size(); ++id) {
    if (radios_[id] == nullptr) continue;
    positions[id] = radios_[id]->position_at(now);
    // Mobility scripts may take a node outside the configured world; the
    // grid clamps its position, losing the distance bound, so strays are
    // kept on a side list that every query scans unconditionally.
    if (!config_.world.contains(positions[id])) strays_.push_back(id);
  }
  grid_->rebuild(positions);
  grid_time_ = now;
  grid_items_ = radios_.size();
}

void Medium::gather_candidates(geo::Vec2 center, double radius,
                               std::vector<NodeId>& out) const {
  refresh_grid(sim_.now());
  grid_->query_cells(center, radius + stale_margin(config_), cell_scratch_);
  out.clear();
  out.reserve(cell_scratch_.size() + strays_.size());
  for (std::size_t item : cell_scratch_) {
    out.push_back(static_cast<NodeId>(item));
  }
  // Strays are also present in the grid (at clamped positions), so the
  // merged list may repeat them; sort + unique restores the ascending
  // NodeId order the fan-out contract requires.
  out.insert(out.end(), strays_.begin(), strays_.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<NodeId> Medium::neighbors_of(NodeId id, double range) const {
  geo::Vec2 center = position_of(id);
  std::vector<NodeId> out;
  auto consider = [&](NodeId other) {
    if (other == id || radios_[other] == nullptr) return;
    if (geo::distance(center, radios_[other]->position_at(sim_.now())) <=
        range) {
      out.push_back(other);
    }
  };
  if (sharding_active()) {
    gather_candidates(center, range, candidate_scratch_);
    for (NodeId other : candidate_scratch_) consider(other);
  } else {
    for (NodeId other = 0; other < radios_.size(); ++other) consider(other);
  }
  return out;
}

std::uint32_t Medium::alloc_reception(des::SimTime start, des::SimTime end) {
  std::uint32_t idx;
  if (!free_receptions_.empty()) {
    idx = free_receptions_.back();
    free_receptions_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(reception_pool_.size());
    reception_pool_.emplace_back();
  }
  reception_pool_[idx] = Reception{start, end, /*corrupted=*/false, /*refs=*/2};
  return idx;
}

void Medium::release_reception(std::uint32_t idx) {
  if (--reception_pool_[idx].refs == 0) free_receptions_.push_back(idx);
}

void Medium::prune(NodeId id, des::SimTime now) {
  auto& rx = receptions_[id];
  while (!rx.empty() && reception_pool_[rx.front()].end < now) {
    release_reception(rx.front());
    rx.pop_front();
  }
  auto& tx = tx_intervals_[id];
  while (!tx.empty() && tx.front().end < now) tx.pop_front();
}

void Medium::set_attached(NodeId id, bool attached) {
  if (id >= radios_.size() || radios_[id] == nullptr) {
    throw std::out_of_range("Medium::set_attached: unknown node");
  }
  attached_[id] = attached;
}

bool Medium::attached(NodeId id) const {
  return id < radios_.size() && radios_[id] != nullptr && attached_[id];
}

void Medium::transmit(NodeId sender, util::Buffer payload) {
  if (sender >= radios_.size() || radios_[sender] == nullptr) {
    throw std::out_of_range("Medium::transmit: unknown sender");
  }
  if (!attached_[sender]) return;  // powered off: the frame never airs
  Frame frame{sender, std::move(payload)};
  const std::size_t wire = frame.wire_size();

  des::SimTime earliest = sim_.now();
  if (config_.tx_jitter_max > 0) {
    earliest += rng_.next_below(config_.tx_jitter_max + 1);
  }
  // Half-duplex queueing: a node's transmissions are serialized.
  des::SimTime t_start = std::max(earliest, tx_busy_until_[sender]);
  if (config_.carrier_sense) {
    // Defer until our whole frame fits between the transmissions already
    // planned by nodes we can hear (the simulation knows queued
    // transmissions; live hardware senses them as carrier — this models
    // the ideal outcome of that contention among mutually-in-range
    // stations; hidden terminals still collide). Loop until a slot fits.
    const des::SimDuration air = airtime(wire);
    geo::Vec2 my_pos = radios_[sender]->position_at(sim_.now());
    auto sense = [&](NodeId other, bool& moved) {
      if (other == sender || radios_[other] == nullptr) return;
      double reach = propagation_->max_range(radios_[other]->range());
      if (geo::distance(my_pos,
                        radios_[other]->position_at(sim_.now())) > reach) {
        return;
      }
      prune(other, sim_.now());
      for (const Interval& tx : tx_intervals_[other]) {
        if (tx.start < t_start + air && t_start < tx.end) {
          t_start = tx.end + config_.carrier_sense_gap;
          moved = true;
        }
      }
    };
    const bool sharded = sharding_active();
    // Widest radius any *other* node could hear us across, so the cell
    // walk covers every station whose queued frames we must defer to.
    if (sharded) gather_candidates(my_pos, max_reach_, candidate_scratch_);
    bool moved = true;
    while (moved) {
      moved = false;
      if (sharded) {
        for (NodeId other : candidate_scratch_) sense(other, moved);
      } else {
        for (NodeId other = 0; other < radios_.size(); ++other) {
          sense(other, moved);
        }
      }
    }
    t_start = std::max(t_start, tx_busy_until_[sender]);
  }
  des::SimTime t_end = t_start + airtime(wire);
  tx_busy_until_[sender] = t_end;
  tx_intervals_[sender].push_back({t_start, t_end});

  if (metrics_ != nullptr) metrics_->on_frame_sent(wire);

  sim_.schedule_at(t_start, [this, frame = std::move(frame), t_start, t_end]() {
    begin_transmission(frame, t_start, t_end);
  });
}

void Medium::begin_transmission(Frame frame, des::SimTime t_start,
                                des::SimTime t_end) {
  BYZCAST_PROFILE(obs::ProfileCategory::kMediumFanout);
  const NodeId sender = frame.sender;
  if (!attached_[sender]) return;  // radio died between queueing and airtime
  Radio* tx_radio = radios_[sender];
  const geo::Vec2 tx_pos = tx_radio->position_at(t_start);
  const double nominal = tx_radio->range();
  const double reach = propagation_->max_range(nominal);

  // The per-receiver body below must run in ascending NodeId order over
  // exactly the in-range receivers: every RNG draw's position in the
  // stream depends on it, and the golden determinism hashes pin that
  // stream. The sharded path feeds it a sorted candidate superset and
  // relies on the same `dist > reach` test to discard the extras. One
  // loop serves both paths so the body is compiled inline: unsharded, it
  // runs for every registered radio.
  const bool sharded = sharding_active();
  if (sharded) gather_candidates(tx_pos, reach, candidate_scratch_);
  const std::size_t candidates =
      sharded ? candidate_scratch_.size() : radios_.size();
  const std::size_t wire = frame.wire_size();
  std::vector<Delivery> deliveries;
  for (std::size_t i = 0; i < candidates; ++i) {
    const NodeId rx = sharded ? candidate_scratch_[i] : static_cast<NodeId>(i);
    if (rx == sender || radios_[rx] == nullptr || !attached_[rx]) continue;
    geo::Vec2 rx_pos = radios_[rx]->position_at(t_start);
    if (wall_x_ && (tx_pos.x < *wall_x_) != (rx_pos.x < *wall_x_)) {
      continue;  // area split: the wall blocks this link
    }
    double dist = geo::distance(tx_pos, rx_pos);
    if (dist > reach) continue;
    // `rx` is a live in-range candidate: from here on, exactly one of
    // the dropped / collided / delivered outcomes fires for it, so
    // offered == dropped + collided + delivered (counts and bytes) — the
    // conservation identity conservation_test asserts.
    if (metrics_ != nullptr) metrics_->on_frame_offered(wire);
    if (!propagation_->delivered(dist, nominal, rng_) ||
        rng_.chance(config_.base_loss_prob)) {
      if (metrics_ != nullptr) metrics_->on_frame_dropped(wire);
      continue;
    }
    prune(rx, t_start);
    // Half-duplex: receiver busy transmitting during any part of the
    // frame loses it.
    const auto& busy = tx_intervals_[rx];
    if (std::any_of(busy.begin(), busy.end(), [&](const Interval& tx) {
          return tx.start < t_end && t_start < tx.end;
        })) {
      if (metrics_ != nullptr) metrics_->on_frame_dropped(wire);
      continue;
    }
    const std::uint32_t reception = alloc_reception(t_start, t_end);
    if (config_.collisions_enabled) {
      for (std::uint32_t other_idx : receptions_[rx]) {
        Reception& other = reception_pool_[other_idx];
        if (other.start < t_end && t_start < other.end) {
          other.corrupted = true;
          reception_pool_[reception].corrupted = true;
        }
      }
    }
    receptions_[rx].push_back(reception);
    deliveries.push_back({rx, reception});
  }
  if (deliveries.empty()) return;
  // One event delivers to every surviving receiver (DESIGN.md "receive
  // path"). Per-receiver events would all carry this timestamp and
  // consecutive insertion numbers, so nothing could run between them:
  // walking the receivers in the same ascending order inside one event
  // is the identical execution. The lambda's Frame shares the payload
  // buffer with every receiver — zero per-receiver byte copies.
  sim_.schedule_at(t_end + config_.latency,
                   [this, frame = std::move(frame),
                    deliveries = std::move(deliveries)]() {
                     deliver(frame, deliveries);
                   });
}

void Medium::deliver(const Frame& frame,
                     const std::vector<Delivery>& deliveries) {
  const std::size_t wire = frame.wire_size();
  for (const auto& [rx, reception] : deliveries) {
    // Each corrupted reception is counted exactly once, here.
    const bool corrupted = reception_pool_[reception].corrupted;
    release_reception(reception);
    if (corrupted) {
      if (metrics_ != nullptr) metrics_->on_frame_collided(wire);
      continue;
    }
    if (!attached_[rx]) {  // detached while the frame was in flight
      if (metrics_ != nullptr) metrics_->on_frame_dropped(wire);
      continue;
    }
    if (metrics_ != nullptr) metrics_->on_frame_delivered(wire);
    radios_[rx]->deliver(frame);
  }
}

}  // namespace byzcast::radio
