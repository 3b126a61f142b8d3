// Narrated demo of the paper's headline mechanism: a high-id mute node
// wins the overlay election, silently swallows traffic, gets caught by
// the MUTE failure detector, distrusted by TRUST, and routed around by
// the overlay — all visible as a timeline on stderr/stdout.
//
//   ./build/examples/mute_attack_demo
//
// Topology (range 100 m):
//        M(3)  <- mute, claims overlay membership
//       / | \   (M hears all three)
//  S(0)--X(1)--Y(2)      S-Y out of range; X and M are the only relays.
#include <cstdio>
#include <memory>

#include "byz/adversary.h"
#include "core/byzcast_node.h"
#include "mobility/static_mobility.h"
#include "net/timer.h"
#include "radio/medium.h"
#include "sim/runner.h"
#include "util/log.h"

int main() {
  using namespace byzcast;

  des::Simulator sim(17);
  stats::Metrics metrics;
  crypto::Pki pki(des::Rng(5));
  radio::Medium medium(sim, std::make_unique<radio::UnitDisk>(), {}, &metrics);

  util::Log::set_clock([&sim] { return sim.now(); });

  core::ProtocolConfig config;
  config.gossip_period = des::millis(250);
  config.hello_period = des::millis(500);
  config.neighbor_timeout = des::millis(1800);
  config.mute.expect_timeout = des::millis(600);
  config.mute.suspicion_threshold = 3;
  config.mute.suspicion_interval = des::seconds(30);

  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes;

  auto add = [&](geo::Vec2 pos, byz::AdversaryKind kind) {
    auto id = static_cast<NodeId>(radios.size());
    mobility.push_back(std::make_unique<mobility::StaticMobility>(pos));
    radios.push_back(
        std::make_unique<radio::Radio>(medium, id, *mobility.back(), 100));
    nodes.push_back(byz::make_adversary(kind, sim, *radios.back(), pki,
                                        pki.register_node(id), config,
                                        &metrics));
    nodes.back()->set_expected_targets(2);
    nodes.back()->start();
  };
  add({0, 0}, byz::AdversaryKind::kNone);
  add({80, 0}, byz::AdversaryKind::kNone);
  add({160, 0}, byz::AdversaryKind::kNone);
  add({80, 60}, byz::AdversaryKind::kMute);
  metrics.set_tracked_accepts({0, 1, 2});

  nodes[2]->set_accept_handler(
      [&](const core::MessageId& id, std::span<const std::uint8_t>) {
        std::printf("[%7.3fs]   Y accepted message #%u\n",
                    des::to_seconds(sim.now()), id.seq);
      });

  // Narrator probe: report trust/overlay transitions as they happen.
  bool reported_suspect = false, reported_heal = false;
  net::PeriodicTimer probe(sim, des::millis(250), [&] {
    if (!reported_suspect && nodes[2]->trust().suspects(3)) {
      reported_suspect = true;
      std::printf(
          "[%7.3fs] * Y's MUTE detector caught M swallowing messages; "
          "TRUST now distrusts M\n",
          des::to_seconds(sim.now()));
    }
    if (!reported_heal && reported_suspect && nodes[1]->in_overlay()) {
      reported_heal = true;
      std::printf(
          "[%7.3fs] * overlay healed: X elected itself, traffic routes "
          "around M\n",
          des::to_seconds(sim.now()));
    }
  });
  probe.start();

  sim.run_until(des::seconds(4));
  std::printf("[%7.3fs] overlay after warmup: M in overlay=%d (the liar), "
              "X in overlay=%d\n",
              des::to_seconds(sim.now()), nodes[3]->in_overlay() ? 1 : 0,
              nodes[1]->in_overlay() ? 1 : 0);

  for (int i = 0; i < 12; ++i) {
    sim.schedule_at(des::seconds(4) + des::millis(500) * i, [&, i] {
      std::printf("[%7.3fs] S broadcasts message #%d\n",
                  des::to_seconds(sim.now()), i);
      nodes[0]->broadcast(sim::make_payload(i, 64));
    });
  }
  sim.run_until(des::seconds(16));

  std::printf("\nresult: delivery=%.3f, Y->M trust=%s, X in overlay=%d\n",
              metrics.delivery_ratio(),
              nodes[2]->trust().suspects(3) ? "untrusted" : "trusted",
              nodes[1]->in_overlay() ? 1 : 0);
  return 0;
}
