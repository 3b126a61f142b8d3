// E14 — anti-entropy extension under partition & rejoin (§3.4 footnote 7
// regime: connectivity holds only intermittently). A quarter of the
// nodes walk out of range, miss a burst of broadcasts, and return after
// the lazycast repeats are exhausted. We report how much of the missed
// traffic they recover, over time since rejoin, with the stability-
// vector-driven anti-entropy re-gossip on and off. The scripted
// keyframe mobility keeps this a hand-built simulation rather than a
// SweepSpec.
//
// Expected shape: with anti-entropy the rejoiners converge to 100%
// within a few gossip periods; without it they stay at 0% — after the
// repeats run out, nothing in the paper's base protocol ever tells a
// rejoiner what it missed.
#include "bench_util.h"

#include "mobility/scripted_mobility.h"
#include "mobility/static_mobility.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  args.add_flag("n", 20, "network size")
      .add_flag("away", 5, "wanderers that leave and rejoin")
      .add_flag("bcasts", 12, "broadcasts sent while they are away")
      .add_flag("seed", 37, "simulation seed")
      .add_flag("csv", false, "emit CSV instead of the aligned table");
  if (args.handle_help(argv[0], std::cout)) return 0;
  auto n = static_cast<std::size_t>(args.get_int("n"));
  auto away = static_cast<std::size_t>(args.get_int("away"));
  auto bcasts = static_cast<std::size_t>(args.get_int("bcasts"));
  auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  bench::reject_unknown_flags(args);

  util::Table table({"t_since_rejoin_s", "anti_entropy",
                     "recovered_fraction"});

  for (bool anti_entropy : {true, false}) {
    des::Simulator sim(seed);
    stats::Metrics metrics;
    crypto::Pki pki(sim.split_rng());
    radio::Medium medium(sim, std::make_unique<radio::UnitDisk>(), {},
                         &metrics);
    core::ProtocolConfig config;
    config.anti_entropy = anti_entropy;

    // Static core on a circle; `away` wanderers parked nearby that leave
    // during the broadcast window [10 s, 10+bcasts/2 s] and return at 30 s.
    std::vector<std::unique_ptr<mobility::MobilityModel>> mob;
    std::vector<std::unique_ptr<radio::Radio>> radios;
    std::vector<std::unique_ptr<core::ByzcastNode>> nodes;
    des::Rng rng = sim.split_rng();
    for (std::size_t i = 0; i < n; ++i) {
      geo::Vec2 home{rng.uniform(0, 250), rng.uniform(0, 250)};
      if (i >= n - away) {
        mob.push_back(std::make_unique<mobility::ScriptedMobility>(
            std::vector<mobility::ScriptedMobility::Keyframe>{
                {des::seconds(1), home},
                {des::seconds(8), home},
                {des::seconds(10), {home.x + 5000, home.y}},
                {des::seconds(28), {home.x + 5000, home.y}},
                {des::seconds(30), home}}));
      } else {
        mob.push_back(std::make_unique<mobility::StaticMobility>(home));
      }
      radios.push_back(std::make_unique<radio::Radio>(
          medium, static_cast<NodeId>(i), *mob.back(), 150));
      nodes.push_back(std::make_unique<core::ByzcastNode>(
          sim, *radios.back(), pki, pki.register_node(static_cast<NodeId>(i)),
          config, &metrics));
      nodes.back()->start();
    }

    sim.run_until(des::seconds(10));
    for (std::size_t i = 0; i < bcasts; ++i) {
      sim.schedule_at(des::seconds(10) + des::millis(500) * i, [&, i] {
        nodes[0]->broadcast(sim::make_payload(i, 128));
      });
    }
    sim.run_until(des::seconds(30));  // wanderers just returned

    auto recovered_fraction = [&] {
      std::size_t have = 0;
      for (std::size_t i = n - away; i < n; ++i) {
        have += nodes[i]->store().accepted_count();
      }
      return static_cast<double>(have) /
             static_cast<double>(away * bcasts);
    };
    for (int dt : {0, 2, 5, 10, 20}) {
      sim.run_until(des::seconds(30) + des::seconds(dt));
      table.add_row({static_cast<std::int64_t>(dt),
                     std::string(anti_entropy ? "on" : "off"),
                     recovered_fraction()});
    }
  }
  bench::emit(table, args);
  return 0;
}
