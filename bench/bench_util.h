// Shared helpers for the experiment benches (EXPERIMENTS.md).
//
// Every bench declares its experiment as a sim::SweepSpec (base scenario +
// axis + variants + replicas) and executes it on sim::SweepRunner's thread
// pool; per-point averaging and 95% CIs come from the engine, and output
// is byte-identical at any --threads value. The flags every bench shares
// (--seeds, --threads, --csv, --json) are registered in exactly one place
// here; seeds whose correct graph is disconnected are resampled by the
// engine so a partitioned network never pollutes a mean.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "obs/run_report.h"
#include "sim/sweep.h"
#include "util/cli.h"
#include "util/table.h"

namespace byzcast::bench {

/// Field side that keeps average neighbourhood size constant (~10
/// neighbours within range) as n grows — the standard density-controlled
/// MANET sweep.
inline double density_side(std::size_t n, double range,
                           double neighbors_per_disk = 10.0) {
  return range * std::sqrt(3.14159265358979 * static_cast<double>(n) /
                           neighbors_per_disk);
}

/// Baseline scenario all experiments start from. The seed is irrelevant
/// for sweep bases (the engine derives per-replica seeds); it matters
/// only for direct single-run uses.
inline sim::ScenarioConfig default_scenario(std::size_t n,
                                            std::uint64_t seed = 0) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = n;
  config.tx_range = 120;
  double side = density_side(n, config.tx_range);
  config.area = {side, side};
  // Sustained workload (30 messages at 4/s): per-broadcast overhead
  // figures amortize the periodic gossip/beacon machinery the way a live
  // deployment would, instead of billing an idle network's beacons to a
  // handful of messages.
  config.num_broadcasts = 30;
  config.broadcast_interval = des::millis(250);
  config.payload_bytes = 256;
  config.warmup = des::seconds(6);
  config.cooldown = des::seconds(12);
  return config;
}

/// Mutator that re-bases a sweep on `n` nodes at standard density — the
/// common "axis is network size" edit (n drives the field dimensions).
inline sim::SweepSpec::Mutator with_n(std::size_t n,
                                      double neighbors_per_disk = 10.0) {
  return [n, neighbors_per_disk](sim::ScenarioConfig& c) {
    c.n = n;
    double side = density_side(n, c.tx_range, neighbors_per_disk);
    c.area = {side, side};
  };
}

// --- shared flags -----------------------------------------------------------

/// Execution/output options every bench shares.
struct SweepOptions {
  std::size_t replicas = 3;
  unsigned threads = 0;  ///< 0 = all hardware threads
  bool csv = false;
  bool json = false;
  /// --report-dir: directory for one run-report JSON per sweep point
  /// (obs/run_report.h); empty = no reports.
  std::string report_dir;
  /// --telemetry-ms: obs::Timeline sampling interval; defaults on at
  /// 500 ms when --report-dir is given, 0 (off) otherwise.
  double telemetry_ms = 0;
  /// argv[0] basename, recorded in run reports as the emitting tool.
  std::string tool = "bench";
};

/// Registers the shared flags (once, here, instead of 16 copies). Call
/// before handle_help(); per-bench flags are added alongside.
inline void register_sweep_flags(util::CliArgs& args,
                                 std::int64_t default_replicas = 3) {
  args.add_flag("seeds", default_replicas, "replicas averaged per sweep point")
      .add_flag("threads", 0,
                "worker threads for replica execution (0 = all hardware "
                "threads; any value emits identical results)")
      .add_flag("csv", false, "emit CSV instead of the aligned table")
      .add_flag("json", false,
                "emit JSON with mean/stddev/ci95 per point (benches with "
                "custom tables fall back to --csv)")
      .add_flag("report-dir", "",
                "write one run-report JSON per sweep point into this "
                "directory (DESIGN.md §10)")
      .add_flag("telemetry-ms", -1.0,
                "sim-time telemetry sampling interval in ms (0 = off; "
                "default: 500 when --report-dir is set, else off)");
}

inline SweepOptions sweep_options(const util::CliArgs& args,
                                  const std::string& argv0 = "bench") {
  SweepOptions opt;
  opt.replicas = static_cast<std::size_t>(args.get_int("seeds"));
  opt.threads = static_cast<unsigned>(args.get_int("threads"));
  opt.csv = args.get_bool("csv");
  opt.json = args.get_bool("json");
  opt.report_dir = args.get_str("report-dir");
  double telemetry_ms = args.get_double("telemetry-ms");
  opt.telemetry_ms =
      telemetry_ms >= 0 ? telemetry_ms : (opt.report_dir.empty() ? 0 : 500);
  auto slash = argv0.find_last_of('/');
  opt.tool = slash == std::string::npos ? argv0 : argv0.substr(slash + 1);
  if (opt.tool.empty()) opt.tool = "bench";
  return opt;
}

/// Call after a bench's last flag query: a flag the bench never declared
/// (a typo such as --replicas for --seeds) ends the run with status 2
/// instead of silently running the defaults.
inline void reject_unknown_flags(const util::CliArgs& args) {
  try {
    args.reject_unknown();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

/// Executes `spec` with the shared options applied: threads from
/// --threads, telemetry interval stamped into the spec's base when
/// --telemetry-ms (or --report-dir) asks for sampling, and one run-report
/// JSON per point written under --report-dir. All benches run their
/// sweeps through here — including the ones that render custom tables —
/// so reports and timelines work uniformly.
inline sim::SweepResult run_sweep(sim::SweepSpec spec,
                                  const SweepOptions& opt) {
  if (opt.telemetry_ms > 0) {
    spec.mutate_base([&](sim::ScenarioConfig& c) {
      c.telemetry_interval = des::from_seconds(opt.telemetry_ms / 1e3);
    });
  }
  sim::SweepResult result = sim::run_sweep(spec, opt.threads);
  if (!opt.report_dir.empty()) {
    // Benches that run several sweeps (e.g. bench_multi_overlay_cost)
    // get a sweep-<k> subdirectory per extra sweep so point files never
    // silently overwrite each other.
    static int sweep_ordinal = 0;
    std::string dir = opt.report_dir;
    if (sweep_ordinal > 0) dir += "/sweep-" + std::to_string(sweep_ordinal);
    ++sweep_ordinal;
    std::size_t written = obs::write_sweep_reports(result, dir, opt.tool);
    std::fprintf(stderr, "%s: %zu run reports written to %s\n",
                 opt.tool.c_str(), written, dir.c_str());
  }
  return result;
}

// --- output -----------------------------------------------------------------

/// Prints a plain table as text or CSV per the --csv flag (timeline
/// benches that build custom tables).
inline void emit(const util::Table& table, const util::CliArgs& args) {
  if (args.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Prints a sweep per the --csv/--json flags: JSON carries the full
/// per-point Summary of every metric; the table shows the reduced value
/// (plus `_ci95` columns where the metric asks for them).
inline void emit(const sim::SweepResult& result,
                 const std::vector<sim::MetricSpec>& metrics,
                 const SweepOptions& opt) {
  if (opt.json) {
    result.write_json(std::cout, metrics);
    return;
  }
  util::Table table = result.to_table(metrics);
  if (opt.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

}  // namespace byzcast::bench
