// E16 — crash/recovery robustness (fault-injection subsystem): sweep the
// crashed fraction of correct nodes against the recovery delay and watch
// delivery, availability and post-recovery catch-up latency.
//
// Timeline per run: the crashed set goes down 1 s into the broadcast
// phase — so they miss a slice of the workload — and recovers after the
// configured delay; the runner keeps the simulation alive long enough
// for every recovered node to catch up through gossip/anti-entropy.
//
// Expected shape: delivery to the *surviving* nodes stays high at every
// sweep point (the overlay re-elects around the hole); catch-up latency
// grows with the recovery delay because the recovered node has more
// backlog to pull, but recoveries_completed should equal the crash count
// whenever the delay leaves enough run time.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  args.add_flag("n", 40, "network size")
      .add_flag("sync", false, "enable batched range-sync catch-up");
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  auto n = static_cast<std::size_t>(args.get_int("n"));
  bool sync_on = args.get_bool("sync");
  bench::reject_unknown_flags(args);

  sim::ScenarioConfig base = bench::default_scenario(n);
  // --sync: recovered nodes catch up through batched range-sync sessions
  // (DESIGN.md §11) instead of per-message gossip requests alone; the
  // recovery_kb column shows the on-air cost of either path.
  base.protocol_config.sync.enabled = sync_on;

  sim::SweepSpec spec;
  spec.base(base)
      .axis("crash_frac")
      .variant_axis("delay_s")
      .replicas(opt.replicas)
      .seed_base(4000);
  for (double crash_frac : {0.1, 0.2, 0.3}) {
    // Crash nodes 1..k at warmup+1s: node 0 is the sender and must stay
    // up so the workload keeps flowing. The matching recover events are
    // appended by the delay variant below.
    spec.value(crash_frac, [crash_frac, n](sim::ScenarioConfig& c) {
      auto crashed =
          static_cast<std::size_t>(crash_frac * static_cast<double>(n));
      des::SimTime down_at = c.warmup + des::seconds(1);
      for (std::size_t i = 1; i <= crashed; ++i) {
        c.fault_schedule.events.push_back(
            {down_at, sim::FaultKind::kCrashStop, static_cast<NodeId>(i), 0,
             {}});
      }
    });
  }
  for (double delay_s : {5.0, 10.0, 20.0}) {
    spec.variant(util::format_cell(delay_s), [delay_s](sim::ScenarioConfig& c) {
      std::vector<sim::FaultEvent> recoveries;
      for (const sim::FaultEvent& e : c.fault_schedule.events) {
        if (e.kind != sim::FaultKind::kCrashStop) continue;
        recoveries.push_back({e.at + des::from_seconds(delay_s),
                              sim::FaultKind::kCrashRecover, e.node, 0, {}});
      }
      c.fault_schedule.events.insert(c.fault_schedule.events.end(),
                                     recoveries.begin(), recoveries.end());
    });
  }

  using Reduce = sim::MetricSpec::Reduce;
  bench::emit(
      bench::run_sweep(spec, opt),
      {sim::sweep_metrics::delivery().with_ci(),
       sim::sweep_metrics::availability(),
       sim::MetricSpec{"recovered",
                       [](const sim::ReplicaView& v) {
                         return static_cast<double>(
                             v.result.metrics.recoveries_returned());
                       },
                       Reduce::kSum},
       sim::MetricSpec{"caught_up",
                       [](const sim::ReplicaView& v) {
                         return static_cast<double>(
                             v.result.metrics.recoveries_completed());
                       },
                       Reduce::kSum},
       sim::MetricSpec{"catchup_mean_s",
                       [](const sim::ReplicaView& v) {
                         return v.result.metrics.catchup_latency().mean();
                       }},
       sim::MetricSpec{"catchup_p99_s",
                       [](const sim::ReplicaView& v) {
                         return v.result.metrics.catchup_latency().percentile(
                             0.99);
                       }},
       // On-air catch-up cost: every REQUEST/FIND/sync packet plus every
       // DATA retransmission they trigger (stats::Metrics recovery_bytes).
       sim::MetricSpec{"recovery_kb",
                       [](const sim::ReplicaView& v) {
                         return static_cast<double>(
                                    v.result.metrics.recovery_bytes()) /
                                1024.0;
                       }}},
      opt);
  return 0;
}
