// E6 — delivery and latency vs node speed (random waypoint), the mobile
// ad-hoc dimension the paper's model section emphasizes ("due to
// mobility, the physical structure of the network is constantly
// evolving").
//
// Expected shape: flooding loses messages as links churn (no recovery);
// the Byzantine protocol's gossip layer repairs most of the churn, so its
// delivery degrades later and less — at the cost of higher tail latency
// for the recovered messages.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  args.add_flag("n", 50, "network size");
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  auto n = static_cast<std::size_t>(args.get_int("n"));
  bench::reject_unknown_flags(args);

  sim::ScenarioConfig base = bench::default_scenario(n);
  base.num_broadcasts = 16;
  base.cooldown = des::seconds(15);

  sim::SweepSpec spec;
  spec.base(base)
      .axis("speed_mps")
      .protocols({sim::ProtocolKind::kByzcast, sim::ProtocolKind::kFlooding})
      .replicas(opt.replicas)
      .seed_base(600);
  for (double speed : {0.0, 1.0, 2.0, 5.0, 10.0}) {
    spec.value(speed, [speed](sim::ScenarioConfig& c) {
      if (speed > 0) {
        c.mobility = sim::MobilityKind::kRandomWaypoint;
        c.min_speed_mps = std::max(0.5, speed / 2);
        c.max_speed_mps = speed;
        c.pause = des::seconds(1);
      }
    });
  }

  bench::emit(bench::run_sweep(spec, opt),
              {sim::sweep_metrics::delivery().with_ci(),
               sim::sweep_metrics::latency_mean_ms(),
               sim::sweep_metrics::latency_p99_ms()},
              opt);
  return 0;
}
