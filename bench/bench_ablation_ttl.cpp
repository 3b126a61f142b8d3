// E9 — ablation of the recovery design choices (DESIGN.md §6): the
// FIND_MISSING_MSG two-hop TTL ("the message is sent to overlay nodes at
// distance 2 in order to bypass a potential neighboring Byzantine node")
// and the recovery path as a whole, under a mute-heavy sparse network.
//
// Expected shape: recovery off loses messages outright; TTL=1 recovery
// recovers what a one-hop neighbourhood holds but stalls when the only
// holder sits behind the Byzantine node; the paper's TTL=2 recovers
// everything.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args, 4);
  args.add_flag("n", 40, "network size");
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  auto n = static_cast<std::size_t>(args.get_int("n"));
  bench::reject_unknown_flags(args);

  sim::ScenarioConfig base = bench::default_scenario(n);
  double side = bench::density_side(n, base.tx_range, 6.0);
  base.area = {side, side};
  base.adversaries = {{byz::AdversaryKind::kMute, n / 4}};

  // Overhead = non-DATA packets per broadcast.
  sim::MetricSpec overhead{"overhead_pkts_per_bcast",
                           [](const sim::ReplicaView& v) {
                             auto bcasts = static_cast<double>(
                                 v.config.num_broadcasts);
                             return static_cast<double>(
                                        v.result.metrics.total_packets() -
                                        v.result.metrics.packets(
                                            stats::MsgKind::kData)) /
                                    bcasts;
                           }};

  sim::SweepSpec spec;
  spec.base(base).variant_axis("variant").replicas(opt.replicas).seed_base(900);
  struct Variant {
    const char* name;
    bool recovery;
    std::uint8_t ttl;
  };
  for (const Variant& v :
       {Variant{"recovery-ttl2 (paper)", true, 2},
        Variant{"recovery-ttl1", true, 1},
        Variant{"no-recovery", false, 2}}) {
    spec.variant(v.name, [v](sim::ScenarioConfig& c) {
      c.protocol_config.recovery_enabled = v.recovery;
      c.protocol_config.find_ttl = v.ttl;
    });
  }

  bench::emit(bench::run_sweep(spec, opt),
              {sim::sweep_metrics::delivery().with_ci(),
               sim::sweep_metrics::latency_mean_ms(), overhead},
              opt);
  return 0;
}
