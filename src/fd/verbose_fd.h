// VERBOSE failure detector (class ◇P-verbose / I-verbose, paper §2.2).
//
// Two inputs, per the paper: explicit `indict(node)` calls from the
// protocol ("this method simply indicts a process that has sent too many
// messages of a certain type"), and a minimum-spacing rule per message
// type configured at initialization ("a method that allows to specify
// general requirements about the minimal spacing between consecutive
// arrivals of messages of the same type"). A counter per node accumulates
// indictments; crossing the threshold suspects the node for a suspicion
// interval; an aging pass periodically decrements counters so mistakes
// heal ("both the MUTE and the VERBOSE failure detectors employ an aging
// mechanism").
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/env.h"
#include "net/timer.h"
#include "fd/fd_types.h"

namespace byzcast::fd {

struct VerboseFdConfig {
  /// Indictments before a node is suspected.
  int suspicion_threshold = 12;
  /// How long a suspicion lasts once raised.
  des::SimDuration suspicion_interval = des::seconds(20);
  /// Period of the aging pass that decrements indictment counters.
  des::SimDuration aging_period = des::seconds(5);
};

class VerboseFd {
 public:
  using SuspectCallback = std::function<void(NodeId)>;

  VerboseFd(net::Env& env, VerboseFdConfig config);

  /// Init-time: messages of `type` from one node arriving closer together
  /// than `spacing` count as an indictment each. A zero spacing removes
  /// the rule.
  void set_min_spacing(std::uint8_t type, des::SimDuration spacing);

  /// Figure 2: indict(node id).
  void indict(NodeId node);

  /// Feed every received protocol header through here; applies the
  /// min-spacing rules.
  void observe(const MessageHeader& header, NodeId from);

  void set_on_suspect(SuspectCallback cb) { on_suspect_ = std::move(cb); }

  [[nodiscard]] bool suspected(NodeId node) const;
  [[nodiscard]] std::vector<NodeId> suspects() const;
  [[nodiscard]] int indictment_count(NodeId node) const;

  /// Wipes indictment counters, arrival history and suspicions (crash of
  /// the owning node). Min-spacing rules are init-time config and stay.
  void reset();

 private:
  void age_counters();

  net::Env& env_;
  VerboseFdConfig config_;
  // Min spacing per message type, indexed by type; 0 = no rule. Sized to
  // the largest configured type, so observe() on an unruled type is one
  // bounds check.
  std::vector<des::SimDuration> min_spacing_;
  // (node, type) -> last arrival time, for the spacing rule.
  std::unordered_map<std::uint64_t, des::SimTime> last_arrival_;
  std::unordered_map<NodeId, int> indictments_;
  std::unordered_map<NodeId, des::SimTime> suspected_until_;
  SuspectCallback on_suspect_;
  net::PeriodicTimer aging_timer_;
};

}  // namespace byzcast::fd
