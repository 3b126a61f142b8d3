// E1 — "messages vs network size" (the paper's headline efficiency
// figure): total packets per broadcast for flooding, the Byzantine
// protocol over CDS and MIS+B overlays, and the f+1 independent-overlay
// baseline, in failure-free runs at constant density.
//
// Expected shape: flooding costs ~n DATA transmissions per broadcast; the
// overlay protocols cost a fraction of that (the backbone), plus cheap
// aggregated gossip; the f+1 baseline costs ~(f+1) backbones.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  // Default 256 B payloads keep the channel below collision saturation so
  // the dissemination-strategy difference is what the figure shows. Rerun
  // with --payload=1024 for the saturated regime, where flooding's
  // delivery collapses and byzcast trades extra recovery DATA for its
  // 1.0 delivery (see EXPERIMENTS.md E1 discussion).
  args.add_flag("payload", 256, "application payload bytes");
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  auto payload = static_cast<std::size_t>(args.get_int("payload"));
  bench::reject_unknown_flags(args);

  sim::ScenarioConfig base = bench::default_scenario(50);
  base.payload_bytes = payload;

  sim::SweepSpec spec;
  spec.base(base).axis("n").replicas(opt.replicas).seed_base(100);
  for (std::size_t n : {25u, 50u, 100u, 150u, 200u}) {
    spec.value(static_cast<std::int64_t>(n), bench::with_n(n));
  }
  spec.variant("flooding",
               [](sim::ScenarioConfig& c) {
                 c.protocol = sim::ProtocolKind::kFlooding;
               })
      .variant("byzcast-cds",
               [](sim::ScenarioConfig& c) {
                 c.protocol_config.overlay_kind = overlay::OverlayKind::kCds;
               })
      .variant("byzcast-misb",
               [](sim::ScenarioConfig& c) {
                 c.protocol_config.overlay_kind = overlay::OverlayKind::kMisB;
               })
      .variant("gossip-only",
               [](sim::ScenarioConfig& c) {
                 c.protocol_config.overlay_kind = overlay::OverlayKind::kNone;
               })
      .variant("f+1-overlays(f=1)", [](sim::ScenarioConfig& c) {
        c.protocol = sim::ProtocolKind::kMultiOverlay;
        c.multi_overlay_count = 2;
      });

  bench::emit(bench::run_sweep(spec, opt),
              {sim::sweep_metrics::data_pkts_per_bcast(),
               sim::sweep_metrics::total_pkts_per_bcast(),
               sim::sweep_metrics::bytes_per_bcast(),
               sim::sweep_metrics::delivery().with_ci()},
              opt);
  return 0;
}
