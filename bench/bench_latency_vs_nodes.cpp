// E3 — dissemination latency vs network size, failure-free, constant
// density.
//
// Expected shape: both protocols' latency grows with the hop diameter
// (~sqrt(n) at constant density). Flooding's mean is lower (every node
// re-forwards immediately); the overlay protocol pays a small scheduling
// cost but stays the same order — and its tail (p99) is governed by the
// occasional gossip-recovery round trip.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);
  bench::reject_unknown_flags(args);

  sim::SweepSpec spec;
  spec.base(bench::default_scenario(50))
      .axis("n")
      .protocols({sim::ProtocolKind::kByzcast, sim::ProtocolKind::kFlooding})
      .replicas(opt.replicas)
      .seed_base(300);
  for (std::size_t n : {25u, 50u, 100u, 150u, 200u}) {
    spec.value(static_cast<std::int64_t>(n), bench::with_n(n));
  }

  bench::emit(bench::run_sweep(spec, opt),
              {sim::sweep_metrics::latency_mean_ms().with_ci(),
               sim::sweep_metrics::latency_p99_ms(),
               sim::sweep_metrics::delivery()},
              opt);
  return 0;
}
