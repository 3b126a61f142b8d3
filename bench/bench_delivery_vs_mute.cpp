// E2 — delivery ratio vs mute-node fraction (the paper's "nodes
// experience mute failures ... these failures seem to have the most
// adverse impact" evaluation).
//
// Expected shape: the Byzantine protocol holds ~1.0 delivery as mute
// fraction grows (gossip recovery + overlay healing); the same protocol
// with recovery disabled degrades (the overlay alone cannot route around
// silent members before detection); flooding degrades more gently thanks
// to per-node redundancy but without a floor of 1.0.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  args.add_flag("n", 60, "network size");
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  auto n = static_cast<std::size_t>(args.get_int("n"));
  bench::reject_unknown_flags(args);

  sim::SweepSpec spec;
  spec.base(bench::default_scenario(n))
      .axis("mute_fraction")
      .replicas(opt.replicas)
      .seed_base(200);
  for (double fraction : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    auto mute_count =
        static_cast<std::size_t>(fraction * static_cast<double>(n) + 0.5);
    spec.value(fraction, [mute_count](sim::ScenarioConfig& c) {
      c.adversaries.clear();
      if (mute_count > 0) {
        c.adversaries = {{byz::AdversaryKind::kMute, mute_count}};
      }
    });
  }
  spec.variant("byzcast", [](sim::ScenarioConfig&) {})
      .variant("byzcast-no-recovery",
               [](sim::ScenarioConfig& c) {
                 c.protocol_config.recovery_enabled = false;
               })
      .variant("flooding", [](sim::ScenarioConfig& c) {
        c.protocol = sim::ProtocolKind::kFlooding;
      });

  bench::emit(bench::run_sweep(spec, opt),
              {sim::sweep_metrics::delivery().with_ci(),
               sim::sweep_metrics::latency_mean_ms(),
               sim::sweep_metrics::latency_p99_ms()},
              opt);
  return 0;
}
