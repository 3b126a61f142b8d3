// E4 — per-message-type overhead breakdown at n=100, sweeping the gossip
// period. Reproduces the paper's §1 claim that "message signatures are
// typically much smaller than the messages themselves" and that
// aggregation keeps the gossip layer cheap: GOSSIP bytes stay a fraction
// of DATA bytes, and stretching the period shrinks packet counts further
// (at the cost of slower recovery).
//
// The breakdown axis (message kind) is orthogonal to the sweep axis, so
// the table is built from the raw per-point replicas instead of
// SweepResult::to_table.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  args.add_flag("n", 100, "network size");
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  auto n = static_cast<std::size_t>(args.get_int("n"));
  bench::reject_unknown_flags(args);

  sim::ScenarioConfig base = bench::default_scenario(n);
  base.num_broadcasts = 20;
  // Application payloads large enough that the "signatures are much
  // smaller than the messages themselves" effect (§1) is visible.
  base.payload_bytes = 1024;

  sim::SweepSpec spec;
  spec.base(base)
      .axis("gossip_period_ms")
      .replicas(opt.replicas)
      .seed_base(400);
  for (std::uint64_t period_ms : {250u, 500u, 1000u}) {
    spec.value(static_cast<std::int64_t>(period_ms),
               [period_ms](sim::ScenarioConfig& c) {
                 c.protocol_config.gossip_period = des::millis(period_ms);
               });
  }
  sim::SweepResult result = bench::run_sweep(spec, opt);

  util::Table table({"gossip_period_ms", "kind", "packets", "bytes",
                     "bytes_per_bcast"});
  for (const sim::SweepPoint& point : result.points) {
    if (!point.feasible()) continue;
    auto bcasts = static_cast<double>(point.config.num_broadcasts);
    for (auto kind :
         {stats::MsgKind::kData, stats::MsgKind::kGossip,
          stats::MsgKind::kRequestMsg, stats::MsgKind::kFindMissingMsg,
          stats::MsgKind::kHello}) {
      stats::Summary packets, bytes;
      for (const sim::RunResult& r : point.replicas) {
        packets.add(static_cast<double>(r.metrics.packets(kind)));
        bytes.add(static_cast<double>(r.metrics.packet_bytes(kind)));
      }
      table.add_row({point.axis_value,
                     std::string(stats::msg_kind_name(kind)), packets.mean(),
                     bytes.mean(), bytes.mean() / bcasts});
    }
  }
  bench::emit(table, args);
  return 0;
}
