// E10 — ablation of neighbour suspicion propagation (§3.3: "a node that
// suspects one of its neighbors should notify its other neighbors about
// this suspicion in order to preserve connectivity of correct nodes in
// the overlay").
//
// We measure how widely knowledge of the mute nodes spreads (fraction of
// (correct, mute) pairs where the correct node's TRUST level for the mute
// node is not `trusted`) and the late-traffic latency, with reports on
// and off. Both are post-run observations on the Network, declared via
// SweepSpec::observe so the engine can surface them as sweep metrics.
//
// Expected shape: with propagation on, second-hand "unknown" marks spread
// past the direct victims, the overlay stops leaning on the mute nodes
// sooner, and late-message latency drops; with propagation off only
// first-hand victims ever distrust them.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  args.add_flag("n", 30, "network size");
  args.add_flag("bcasts", 30, "broadcasts per run");
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  auto n = static_cast<std::size_t>(args.get_int("n"));
  auto bcasts = static_cast<std::size_t>(args.get_int("bcasts"));
  bench::reject_unknown_flags(args);

  sim::ScenarioConfig base;
  base.n = n;
  base.tx_range = 120;
  double side = bench::density_side(n, base.tx_range, 6.0);
  base.area = {side, side};
  base.adversaries = {{byz::AdversaryKind::kMute, n / 5}};
  base.protocol_config.mute.suspicion_interval = des::seconds(60);
  base.protocol_config.trust.suspicion_interval = des::seconds(60);
  base.protocol_config.trust.report_interval = des::seconds(60);
  base.num_broadcasts = bcasts;
  base.cooldown = des::seconds(12);

  sim::SweepSpec spec;
  spec.base(base)
      .variant_axis("trust_propagation")
      .replicas(opt.replicas)
      .seed_base(900);
  spec.variant("on (paper)", [](sim::ScenarioConfig&) {})
      .variant("off", [](sim::ScenarioConfig& c) {
        c.protocol_config.trust_propagation = false;
      });

  spec.observe("aware_pair_fraction",
               [](sim::Network& network, const sim::RunResult&) {
                 std::size_t aware = 0, pairs = 0;
                 for (NodeId c : network.correct_nodes()) {
                   for (NodeId b : network.byzantine_nodes()) {
                     ++pairs;
                     if (network.byzcast_node(c)->trust().level(b) !=
                         fd::TrustLevel::kTrusted) {
                       ++aware;
                     }
                   }
                 }
                 return pairs == 0 ? 0
                                   : static_cast<double>(aware) /
                                         static_cast<double>(pairs);
               });
  // Mean latency over the last third of the broadcasts (post-healing).
  spec.observe("late_latency_mean_ms",
               [bcasts](sim::Network& network, const sim::RunResult& result) {
                 double late = 0;
                 std::size_t count = 0;
                 NodeId sender = network.senders()[0];
                 for (auto i = static_cast<std::uint32_t>(2 * bcasts / 3);
                      i < bcasts; ++i) {
                   auto rec = result.metrics.records().find({sender, i});
                   if (rec == result.metrics.records().end()) continue;
                   for (const auto& [node, at] : rec->second.accepted) {
                     late += 1e3 * des::to_seconds(at - rec->second.sent_at);
                     ++count;
                   }
                 }
                 return count == 0 ? 0 : late / static_cast<double>(count);
               });

  bench::emit(bench::run_sweep(spec, opt),
              {sim::sweep_metrics::observed("aware_pair_fraction", 0),
               sim::sweep_metrics::observed("late_latency_mean_ms", 1),
               sim::sweep_metrics::delivery()},
              opt);
  return 0;
}
