// E5 — detection & healing timeline (the paper's failure-detector story,
// Lemmas 3.7-3.9, measured): a sparse network where one fifth of the
// nodes run the protocol honestly until t = `onset`, then turn mute
// while continuing to claim overlay membership. Per broadcast we report
// the mean accept latency, how many (correct node, faulty node)
// suspicion pairs exist, and whether the correct overlay members alone
// form a healthy backbone.
//
// A timeline over one run is inherently serial, so this bench drives the
// simulator directly instead of declaring a SweepSpec; the shared flag
// registry and the connected-graph resampling rule still come from the
// sweep layer.
//
// Expected shape: three phases — a fast, healthy baseline before onset;
// a degradation window where traffic crawls through gossip recovery and
// suspicion pairs climb as MUTE detectors fire; and a healed tail where
// TRUST has rerouted the election and latency returns to baseline.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  args.add_flag("seed", 9, "base scenario seed (resampled if partitioned)")
      .add_flag("n", 30, "network size")
      .add_flag("bcasts", 40, "broadcasts in the timeline")
      .add_flag("onset", 10.0, "seconds until the faulty fifth turns mute")
      .add_flag("csv", false, "emit CSV instead of the aligned table");
  if (args.handle_help(argv[0], std::cout)) return 0;
  auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  auto n = static_cast<std::size_t>(args.get_int("n"));
  auto bcasts = static_cast<std::size_t>(args.get_int("bcasts"));
  auto onset_s = args.get_double("onset");
  bench::reject_unknown_flags(args);

  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = n;
  config.tx_range = 120;
  // Sparser than the default sweeps (~6 neighbours) so mute overlay
  // nodes actually block paths instead of drowning in redundancy.
  double side = bench::density_side(n, config.tx_range, 6.0);
  config.area = {side, side};
  config.adversaries = {{byz::AdversaryKind::kDelayedMute, n / 5}};
  config.adversary_params.mute_onset = des::from_seconds(onset_s);
  config.protocol_config.mute.suspicion_interval = des::seconds(60);

  // Resample seeds until the paper's assumption (connected correct graph)
  // holds — same rule the sweep engine applies per replica.
  std::unique_ptr<sim::Network> network = sim::make_connected_network(config);
  if (!network) return 1;

  des::Simulator& sim = network->simulator();
  sim.run_until(des::seconds(4));  // short warmup: overlay forms, trusts all

  util::Table table({"t_s", "bcast", "mean_latency_ms", "delivered",
                     "suspicion_pairs", "overlay_correct_members",
                     "overlay_healthy", "recovery_kb"});

  NodeId sender = network->senders()[0];
  for (std::size_t i = 0; i < bcasts; ++i) {
    network->broadcast_from(sender, sim::make_payload(i, 256));
    sim.run_until(sim.now() + des::millis(500));

    // Suspicion pairs: correct node p distrusts Byzantine node b.
    std::int64_t pairs = 0;
    for (NodeId c : network->correct_nodes()) {
      for (NodeId b : network->byzantine_nodes()) {
        if (network->byzcast_node(c)->trust().suspects(b)) ++pairs;
      }
    }
    std::int64_t correct_members = 0;
    for (NodeId m : network->overlay_members()) {
      if (network->kind_of(m) == byz::AdversaryKind::kNone) ++correct_members;
    }

    const auto& records = network->metrics().records();
    auto rec = records.find({sender, static_cast<std::uint32_t>(i)});
    double mean_ms = 0;
    std::int64_t delivered = 0;
    if (rec != records.end() && !rec->second.accepted.empty()) {
      for (const auto& [node, at] : rec->second.accepted) {
        mean_ms += 1e3 * des::to_seconds(at - rec->second.sent_at);
      }
      delivered = static_cast<std::int64_t>(rec->second.accepted.size());
      mean_ms /= static_cast<double>(delivered);
    }
    // Cumulative on-air recovery cost: the degradation window should show
    // this climbing steeply (gossip-repair traffic) while the healed tail
    // flattens out.
    table.add_row({des::to_seconds(sim.now()), static_cast<std::int64_t>(i),
                   mean_ms, delivered, pairs, correct_members,
                   std::string(network->correct_overlay_connected_and_dominating()
                                   ? "yes"
                                   : "no"),
                   static_cast<double>(network->metrics().recovery_bytes()) /
                       1024.0});
  }
  // Let the last broadcasts finish recovering before reading the table.
  sim.run_until(sim.now() + des::seconds(10));
  bench::emit(table, args);

  std::printf("\nfinal delivery ratio: %.4f\n",
              network->metrics().delivery_ratio());
  return 0;
}
