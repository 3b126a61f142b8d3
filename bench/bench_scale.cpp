// E17: kernel throughput at scale (DESIGN.md §12).
//
// Runs the standard byzcast workload at growing network sizes on the
// sharded kernel (spatial medium shards + hierarchical timer wheel) and
// reports raw kernel throughput: events per wall-clock second and
// simulated node-seconds per wall-clock second. At --compare-n the same
// scenario also runs on the pre-sharding kernel (`legacy_kernel`: one
// global heap, all-nodes medium fan-out) to measure the speedup — and,
// because sharding is behavior-preserving, the bench asserts that both
// kernels produce byte-identical metrics snapshots before reporting.
//
//   ./build/bench/bench_scale                      # n = 1k, 10k, 100k
//   ./build/bench/bench_scale --max-n=10000        # CI-sized
//   ./build/bench/bench_scale --json > BENCH_scale.json
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/runner.h"
#include "stats/metrics.h"
#include "util/cli.h"
#include "util/json.h"

namespace {

using namespace byzcast;

struct Point {
  std::size_t n = 0;
  double wall_s = 0;
  double sim_seconds = 0;
  std::uint64_t events = 0;
  double events_per_s = 0;
  double node_seconds_per_s = 0;
  double legacy_wall_s = 0;  ///< 0 when the legacy kernel was not run
  double speedup = 0;        ///< legacy_wall_s / wall_s
};

// The scenario is the campus example scaled density-preserving: grid
// placement (connected at any n), static nodes, ideal radio. The knobs
// that matter for a kernel bench are event volume (beacons + gossip +
// the broadcast flood), not protocol behavior under stress.
sim::ScenarioConfig scale_scenario(std::size_t n, std::size_t bcasts) {
  sim::ScenarioConfig config;
  config.seed = 20260808;
  config.n = n;
  const double side = 700 * std::sqrt(static_cast<double>(n) / 80.0);
  config.area = {side, side};
  config.placement = sim::PlacementKind::kGrid;
  config.tx_range = 130;
  config.num_broadcasts = bcasts;
  config.broadcast_interval = des::millis(400);
  config.payload_bytes = 64;
  config.warmup = des::seconds(4);
  config.cooldown = des::seconds(6);
  return config;
}

struct Measured {
  double wall_s = 0;
  sim::RunResult result;
  std::uint64_t events = 0;
};

Measured run_once(const sim::ScenarioConfig& config) {
  Measured m;
  const auto t0 = std::chrono::steady_clock::now();
  sim::Network network(config);
  m.result = sim::run_workload(network);
  const auto t1 = std::chrono::steady_clock::now();
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.events = network.simulator().events_executed();
  return m;
}

void emit_json(const std::vector<Point>& points, std::size_t bcasts) {
  std::printf("{\n");
  std::printf("  \"benchmark\": \"sharded kernel throughput vs network size "
              "(E17)\",\n");
  std::printf("  \"command\": \"./build/bench/bench_scale --json\",\n");
  std::printf("  \"scenario\": \"grid placement at campus density, static, "
              "ideal radio, %zu broadcasts\",\n", bcasts);
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::printf("    { \"n\": %zu, \"wall_s\": %s, \"sim_seconds\": %s, "
                "\"events\": %llu, \"events_per_s\": %s, "
                "\"node_seconds_per_s\": %s",
                p.n, util::json_double(p.wall_s).c_str(),
                util::json_double(p.sim_seconds).c_str(),
                static_cast<unsigned long long>(p.events),
                util::json_double(p.events_per_s).c_str(),
                util::json_double(p.node_seconds_per_s).c_str());
    if (p.legacy_wall_s > 0) {
      std::printf(", \"legacy_wall_s\": %s, \"speedup\": %s, "
                  "\"metrics_identical\": true",
                  util::json_double(p.legacy_wall_s).c_str(),
                  util::json_double(p.speedup).c_str());
    }
    std::printf(" }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  args.add_flag("max-n", 100000,
                "largest network size to run (sizes are 1k/10k/100k "
                "capped here)")
      .add_flag("compare-n", 10000,
                "size at which the pre-sharding kernel also runs for the "
                "speedup figure (0 = skip the comparison)")
      .add_flag("bcasts", 5, "broadcasts per run")
      .add_flag("json", false, "emit BENCH_scale.json to stdout");
  if (args.handle_help("bench_scale", std::cout)) return 0;
  const auto max_n = static_cast<std::size_t>(args.get_int("max-n"));
  const auto compare_n = static_cast<std::size_t>(args.get_int("compare-n"));
  const auto bcasts = static_cast<std::size_t>(args.get_int("bcasts"));
  const bool json = args.get_bool("json");
  bench::reject_unknown_flags(args);

  std::vector<Point> points;
  for (std::size_t n : {std::size_t{1000}, std::size_t{10000},
                        std::size_t{100000}}) {
    if (n > max_n) break;
    sim::ScenarioConfig config = scale_scenario(n, bcasts);
    Measured sharded = run_once(config);

    Point p;
    p.n = n;
    p.wall_s = sharded.wall_s;
    p.sim_seconds = sharded.result.sim_seconds;
    p.events = sharded.events;
    p.events_per_s = static_cast<double>(sharded.events) / sharded.wall_s;
    p.node_seconds_per_s =
        static_cast<double>(n) * sharded.result.sim_seconds / sharded.wall_s;

    if (n == compare_n) {
      config.legacy_kernel = true;
      Measured legacy = run_once(config);
      // Sharding is behavior-preserving: the legacy kernel must replay
      // the exact same run, event for event.
      if (legacy.events != sharded.events ||
          stats::snapshot(legacy.result.metrics) !=
              stats::snapshot(sharded.result.metrics)) {
        std::fprintf(stderr,
                     "FATAL: legacy and sharded kernels diverged at n=%zu "
                     "(events %llu vs %llu)\n",
                     n, static_cast<unsigned long long>(legacy.events),
                     static_cast<unsigned long long>(sharded.events));
        return 1;
      }
      p.legacy_wall_s = legacy.wall_s;
      p.speedup = legacy.wall_s / sharded.wall_s;
    }
    points.push_back(p);

    std::fprintf(stderr,
                 "n=%zu: %.2fs wall, %llu events, %.0f events/s, "
                 "%.0f node-s/s%s\n",
                 n, p.wall_s, static_cast<unsigned long long>(p.events),
                 p.events_per_s, p.node_seconds_per_s,
                 p.speedup > 0
                     ? (" (legacy " + std::to_string(p.legacy_wall_s) +
                        "s, speedup " + std::to_string(p.speedup) + "x)")
                           .c_str()
                     : "");
  }

  if (json) {
    emit_json(points, bcasts);
  } else {
    std::printf("%8s %10s %14s %14s %16s %10s\n", "n", "wall_s", "events",
                "events/s", "node-s/s", "speedup");
    for (const Point& p : points) {
      std::printf("%8zu %10.2f %14llu %14.0f %16.0f %10s\n", p.n, p.wall_s,
                  static_cast<unsigned long long>(p.events), p.events_per_s,
                  p.node_seconds_per_s,
                  p.speedup > 0 ? (std::to_string(p.speedup) + "x").c_str()
                                : "-");
    }
  }
  return 0;
}
