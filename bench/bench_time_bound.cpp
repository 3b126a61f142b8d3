// E7 — measured worst-case dissemination time against Theorem 3.4's
// bound max_timeout * (n-1), on chain topologies (the analysis section's
// Figure-5 worst-case shape: maximal hop count per node). The chain uses
// a 2-hop transmission reach so mute interior nodes can be bypassed —
// i.e. the correct graph stays connected, as the theorem assumes; the
// sweep engine resamples any adversary placement that still partitions
// it.
//
// Expected shape: the measured maximum stays under the bound, with
// failure-free runs far below it and mute-heavy runs consuming a visible
// fraction (each hop behind a mute node costs about one max_timeout of
// gossip-driven recovery).
//
// The bound column comes from each point's materialized config, so the
// table is assembled from SweepPoint summaries instead of
// SweepResult::to_table.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  bench::reject_unknown_flags(args);

  sim::ScenarioConfig base;
  base.placement = sim::PlacementKind::kChain;
  base.chain_spacing = 55;
  base.tx_range = 115;  // 2-hop reach: mute nodes bypassable
  base.num_broadcasts = 5;
  base.warmup = des::seconds(4);

  sim::SweepSpec spec;
  spec.base(base)
      .axis("n")
      .variant_axis("scenario")
      .replicas(opt.replicas)
      .seed_base(700);
  for (std::size_t n : {5u, 10u, 15u, 20u}) {
    spec.value(static_cast<std::int64_t>(n), [n](sim::ScenarioConfig& c) {
      c.n = n;
      c.cooldown =
          des::seconds(2) +
          des::from_seconds(
              des::to_seconds(c.protocol_config.max_timeout()) *
              static_cast<double>(n));
    });
  }
  spec.variant("failure-free", [](sim::ScenarioConfig&) {})
      .variant("mute-25%", [](sim::ScenarioConfig& c) {
        c.adversaries = {{byz::AdversaryKind::kMute, c.n / 4}};
      });

  sim::SweepResult result = bench::run_sweep(spec, opt);

  util::Table table({"n", "scenario", "bound_s", "measured_max_s",
                     "latency_mean_ms", "utilization", "delivery"});
  for (const sim::SweepPoint& point : result.points) {
    if (!point.feasible()) continue;
    double bound =
        des::to_seconds(point.config.protocol_config.max_timeout()) *
        static_cast<double>(point.config.n - 1);
    double measured =
        point.summarize(sim::sweep_metrics::latency_max_s()).max();
    table.add_row(
        {point.axis_value, point.variant, bound, measured,
         point.summarize(sim::sweep_metrics::latency_mean_ms()).mean(),
         bound > 0 ? measured / bound : 0,
         point.summarize(sim::sweep_metrics::delivery()).mean()});
  }
  bench::emit(table, args);
  return 0;
}
