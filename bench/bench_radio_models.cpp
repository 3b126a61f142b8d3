// E12 — substrate ablation: how much of the protocol's recovery traffic
// is driven by the radio model. The same byzcast scenario runs over four
// channel variants:
//
//   ideal          collisions disabled (the analysis section's "assume
//                  messages do not collide")
//   jitter (def.)  collisions + 15 ms CSMA-backoff stand-in
//   csma           collisions + explicit carrier sense
//   fading         jitter + the paper's footnote-2 shadowing radio
//
// Expected shape: delivery is 1.0 everywhere (recovery absorbs whatever
// the channel does); what moves is the cost — collisions and therefore
// recovery packets shrink under carrier sense and vanish on the ideal
// channel, while fading adds path-loss drops that the gossip layer also
// repairs. This bench is the evidence that the headline results are not
// artifacts of one radio model.
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

  sim::ScenarioConfig base = bench::default_scenario(n);
  base.adversaries = {{byz::AdversaryKind::kMute, n / 6}};

  sim::SweepSpec spec;
  spec.base(base)
      .variant_axis("channel")
      .replicas(opt.replicas)
      .seed_base(1200);
  spec.variant("ideal (no collisions)",
               [](sim::ScenarioConfig& c) {
                 c.medium.collisions_enabled = false;
               })
      .variant("jitter (default)", [](sim::ScenarioConfig&) {})
      .variant("carrier-sense",
               [](sim::ScenarioConfig& c) { c.medium.carrier_sense = true; })
      .variant("fading+shadowing",
               [](sim::ScenarioConfig& c) { c.realistic_radio = true; });

  bench::emit(bench::run_sweep(spec, opt),
              {sim::sweep_metrics::delivery().with_ci(),
               sim::sweep_metrics::latency_mean_ms(),
               sim::sweep_metrics::collisions(),
               sim::sweep_metrics::total_pkts_per_bcast()},
              opt);
  return 0;
}
