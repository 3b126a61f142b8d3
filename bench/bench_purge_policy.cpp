// E13 — purge-policy extension (paper §3.2.2 names stability detection
// as the alternative to timeout purging but builds only the timeout; we
// build both): buffer occupancy over time and delivery under each
// policy, on a sustained workload. Buffer sampling mid-run keeps this a
// hand-driven timeline rather than a SweepSpec.
//
// Expected shape: identical delivery; under kStability the mean buffer
// tracks the dissemination front (a few messages) while kTimeout grows
// linearly with the injection rate until the 60 s horizon.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  args.add_flag("n", 40, "network size")
      .add_flag("seed", 21, "scenario seed")
      .add_flag("csv", false, "emit CSV instead of the aligned table");
  if (args.handle_help(argv[0], std::cout)) return 0;
  auto n = static_cast<std::size_t>(args.get_int("n"));
  auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  bench::reject_unknown_flags(args);

  util::Table table({"t_s", "policy", "mean_buffer", "max_buffer"});
  double delivery[2] = {0, 0};

  int variant = 0;
  for (core::PurgePolicy policy :
       {core::PurgePolicy::kTimeout, core::PurgePolicy::kStability}) {
    sim::ScenarioConfig config = bench::default_scenario(n, seed);
    config.num_broadcasts = 60;
    config.broadcast_interval = des::millis(250);
    config.protocol_config.purge_policy = policy;
    config.protocol_config.purge_timeout = des::seconds(60);
    config.protocol_config.stability_min_age = des::seconds(2);
    config.cooldown = des::seconds(15);

    sim::Network network(config);
    des::Simulator& sim = network.simulator();
    sim.run_until(config.warmup);
    NodeId sender = network.senders()[0];
    const char* name =
        policy == core::PurgePolicy::kTimeout ? "timeout" : "stability";

    for (std::size_t i = 0; i < config.num_broadcasts; ++i) {
      network.broadcast_from(sender, sim::make_payload(i, 256));
      sim.run_until(sim.now() + config.broadcast_interval);
      if (i % 8 == 7) {  // sample every 2 s
        std::size_t total = 0, peak = 0;
        for (NodeId id : network.correct_nodes()) {
          std::size_t sz = network.byzcast_node(id)->store().size();
          total += sz;
          peak = std::max(peak, sz);
        }
        table.add_row({des::to_seconds(sim.now()), std::string(name),
                       static_cast<double>(total) /
                           static_cast<double>(network.correct_nodes().size()),
                       static_cast<std::int64_t>(peak)});
      }
    }
    sim.run_until(sim.now() + config.cooldown);
    delivery[variant++] = network.metrics().delivery_ratio();
  }
  bench::emit(table, args);
  std::printf("\ndelivery: timeout=%.4f stability=%.4f\n", delivery[0],
              delivery[1]);
  return 0;
}
