// Deterministic link-impairment decorator over any net::Transport
// (DESIGN.md §14).
//
// ImpairedTransport sits between a protocol node and its real transport
// and injects the faults a lossy network would: per-frame drop,
// duplication, reordering, added delay and payload corruption, each with
// its own probability and each overridable per remote peer. Impairment is
// applied on the *ingress* path, keyed by the link-layer sender of each
// frame. That placement is deliberate: Transport::send is a broadcast
// primitive (one call reaches every peer), so per-receiver selectivity —
// the selective-broadcast model of Tseng/Vaidya (2012) — is only
// expressible at the receiving end. Dropping each node's ingress copy
// independently with probability p is exactly the message-adversary
// regime of Albouy/Frey/Raynal/Taïani (2022): up to d copies of a
// broadcast vanish independently of node faults.
//
// Determinism: every coin flip comes from one des::Rng split off the Env
// at construction, and delayed frames ride Env timers — so over the DES a
// (seed, ImpairmentConfig) pair fully determines the impaired run, and
// over an IoLoop the same code degrades gracefully to wall-clock
// scheduling. Constructing the decorator draws from the Env's rng stream;
// runs that disable impairment must not construct one (the golden
// determinism hashes depend on that, same rule as the fault injector).
//
// Corruption here flips one byte of the frame *payload*, which the strict
// protocol parse (core/message.h) rejects and counts. Wire-level
// corruption that exercises the 'BZC1' datagram decode instead lives in
// UdpTransport::set_wire_mangler (net/udp_backend.h), built from the same
// flip_random_byte helper — the decorator never sees datagram envelopes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "des/rng.h"
#include "net/env.h"
#include "net/transport.h"
#include "obs/gauge.h"

namespace byzcast::net {

/// Impairment rates for one direction of one link (or the default for
/// every link). Probabilities are independent per frame, in [0, 1].
struct LinkImpairment {
  double drop = 0;       ///< frame vanishes
  double duplicate = 0;  ///< frame delivered twice (second copy re-rolls
                         ///< its own delay, so dups can also reorder)
  double reorder = 0;    ///< frame held back by reorder_hold so later
                         ///< frames overtake it
  double corrupt = 0;    ///< one payload byte flipped (strict parse
                         ///< rejects it upstream)
  /// Uniform extra latency in [delay_min, delay_max] added to every
  /// frame; both 0 = synchronous forwarding (no timer, no rng draw).
  des::SimDuration delay_min = 0;
  des::SimDuration delay_max = 0;
  /// Holdback applied to reordered frames (on top of the base delay).
  des::SimDuration reorder_hold = des::millis(40);

  [[nodiscard]] bool any() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || corrupt > 0 ||
           delay_min > 0 || delay_max > 0;
  }
};

/// Fleet-level impairment spec: one default link plus per-peer overrides
/// (keyed by the remote sender's id), so scenarios can single out victims
/// the way a selective adversary would.
struct ImpairmentConfig {
  LinkImpairment link;
  std::map<NodeId, LinkImpairment> per_peer;

  [[nodiscard]] const LinkImpairment& for_peer(NodeId peer) const {
    auto it = per_peer.find(peer);
    return it == per_peer.end() ? link : it->second;
  }
  [[nodiscard]] bool any() const {
    if (link.any()) return true;
    for (const auto& [id, l] : per_peer) {
      if (l.any()) return true;
    }
    return false;
  }
};

/// Asymmetric per-link impairment: a list of (receiver, sender) rules
/// that specialize the fleet's base ImpairmentConfig per *direction* —
/// "1<-0 drop=1" makes node 1 deaf to node 0 while node 0 still hears
/// node 1 (the PR 9 follow-up: A hears B but not vice versa). Either
/// side of a rule may be the wildcard `*`; wildcard-dst rules apply
/// before exact-dst rules and a rule with an exact src lands in the
/// receiver's per_peer map (which beats its base link), so the most
/// specific rule always wins.
struct ImpairmentMatrix {
  struct Rule {
    NodeId dst = kInvalidNode;  ///< receiver; kInvalidNode = every node
    NodeId src = kInvalidNode;  ///< sender; kInvalidNode = base link
    LinkImpairment link;
  };
  std::vector<Rule> rules;

  [[nodiscard]] bool any() const {
    for (const Rule& rule : rules) {
      if (rule.link.any()) return true;
    }
    return false;
  }

  /// Folds every rule matching receiver `dst` into `config`.
  void apply_to(NodeId dst, ImpairmentConfig& config) const;
};

/// Parses a matrix spec: rules separated by newlines or `;`, each
/// `DST<-SRC key=value ...` with `*` wildcards and keys drop, dup,
/// reorder, corrupt, delay-ms, delay-min-ms, hold-ms. `#` starts a
/// comment. Throws std::invalid_argument on malformed input.
ImpairmentMatrix parse_impairment_matrix(const std::string& spec);

/// What the decorator did, for run reports and convergence assertions.
struct ImpairmentStats {
  std::uint64_t forwarded = 0;   ///< frames that reached the handler
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;  ///< extra copies injected
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;     ///< frames that rode a timer
  std::uint64_t corrupted = 0;

  [[nodiscard]] std::uint64_t impaired() const {
    return dropped + duplicated + reordered + delayed + corrupted;
  }
  /// Emits the six counters as the `impair_*` gauges — the one list of
  /// their names, shared by timeline columns and summaries.
  void emit_gauges(obs::GaugeVisitor& visitor) const;
};

/// Flips one uniformly chosen byte's lowest bit in `data` (no-op on an
/// empty span). Shared by the frame-level corruption here and the
/// wire-level datagram mangling in byzcastd.
void flip_random_byte(std::uint8_t* data, std::size_t size, des::Rng& rng);

class ImpairedTransport final : public Transport, public obs::GaugeSource {
 public:
  /// Interposes on `inner`'s receive path. `inner` and `env` must outlive
  /// the decorator. Draws one rng split from `env` (see file comment).
  ImpairedTransport(Env& env, Transport& inner, ImpairmentConfig config);
  ~ImpairedTransport() override;

  /// Egress is untouched: impairment is an ingress (per-sender) affair.
  void send(util::Buffer payload) override { inner_.send(std::move(payload)); }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  [[nodiscard]] NodeId local_id() const override { return inner_.local_id(); }

  [[nodiscard]] const ImpairmentStats& stats() const { return stats_; }
  [[nodiscard]] const ImpairmentConfig& config() const { return config_; }

  /// Flight-recorder row: the cumulative decorator counters, so the
  /// Timeline's per-tick deltas show *when* the chaos hit, not just the
  /// end-of-run totals.
  void poll_gauges(obs::GaugeVisitor& visitor) const override;

 private:
  void on_frame(const radio::Frame& frame);
  /// Hands `frame` up now (delay 0) or via an Env timer.
  void deliver(radio::Frame frame, des::SimDuration delay);
  /// Base delay roll for one delivery under `link`.
  [[nodiscard]] des::SimDuration roll_delay(const LinkImpairment& link);

  Env& env_;
  Transport& inner_;
  ImpairmentConfig config_;
  des::Rng rng_;
  ReceiveHandler handler_;
  ImpairmentStats stats_;
  /// Timers for in-flight delayed frames, cancelled on destruction so a
  /// torn-down decorator cannot deliver into freed memory.
  std::unordered_set<TimerId> in_flight_;
};

}  // namespace byzcast::net
