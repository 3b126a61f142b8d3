// byzsim — the full command-line simulator: every scenario knob of the
// library behind flags, with a metrics summary, optional overlay-quality
// analysis and optional protocol-event trace output. The binary a
// downstream user scripts their own experiments with.
//
//   ./build/examples/byzsim --n=80 --adversaries=mute:8,liar:2 \
//       --mobility=waypoint --speed-max=3 --bcasts=40 --analyze
//
// Adversary spec: comma-separated kind:count pairs; kinds are the names
// from byz::adversary_kind_name (mute, verbose, forger, liar,
// fake-gossiper, selective, delayed-mute, transient-mute, hello-liar,
// replayer).
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/graph_stats.h"
#include "geo/placement.h"
#include "net/impairment.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "sim/runner.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace byzcast;

std::vector<std::pair<byz::AdversaryKind, std::size_t>> parse_adversaries(
    const std::string& spec) {
  std::vector<std::pair<byz::AdversaryKind, std::size_t>> out;
  std::istringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    auto colon = item.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("adversary spec needs kind:count, got: " +
                                  item);
    }
    out.emplace_back(byz::adversary_kind_from_name(item.substr(0, colon)),
                     static_cast<std::size_t>(
                         std::stoull(item.substr(colon + 1))));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace byzcast;
  util::CliArgs args(argc, argv);

  // byzsim is the DES front-end; live UDP fleets are byzcastd's job. The
  // shared flag keeps scripts portable between the two binaries.
  std::string transport = args.get_str("transport", "sim");
  if (transport == "udp") {
    throw std::invalid_argument(
        "--transport=udp: byzsim only runs the simulator backend; "
        "use byzcastd for live UDP nodes");
  }
  if (transport != "sim") {
    throw std::invalid_argument("--transport: sim|udp");
  }

  sim::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.n = static_cast<std::size_t>(args.get_int("n", 50));
  double side = args.get_double("area", 500);
  config.area = {side, side};
  config.tx_range = args.get_double("range", 120);

  std::string placement = args.get_str("placement", "uniform");
  if (placement == "grid") {
    config.placement = sim::PlacementKind::kGrid;
  } else if (placement == "chain") {
    config.placement = sim::PlacementKind::kChain;
    config.chain_spacing = args.get_double("chain-spacing", 60);
  } else if (placement != "uniform") {
    throw std::invalid_argument("--placement: uniform|grid|chain");
  }

  std::string mobility = args.get_str("mobility", "static");
  if (mobility == "waypoint") {
    config.mobility = sim::MobilityKind::kRandomWaypoint;
  } else if (mobility == "walk") {
    config.mobility = sim::MobilityKind::kRandomWalk;
  } else if (mobility != "static") {
    throw std::invalid_argument("--mobility: static|waypoint|walk");
  }
  config.min_speed_mps = args.get_double("speed-min", 0.5);
  config.max_speed_mps = args.get_double("speed-max", 2.0);
  config.pause = des::from_seconds(args.get_double("pause", 2));

  config.realistic_radio = args.get_bool("realistic-radio", false);
  config.medium.carrier_sense = args.get_bool("carrier-sense", false);
  config.medium.base_loss_prob = args.get_double("loss", 0.0);
  config.medium.collisions_enabled = !args.get_bool("no-collisions", false);

  std::string protocol = args.get_str("protocol", "byzcast");
  config.protocol = sim::protocol_kind_from_name(protocol);
  config.multi_overlay_count =
      static_cast<int>(args.get_int("overlays", 2));

  config.adversaries = parse_adversaries(args.get_str("adversaries", ""));
  config.adversary_params.mute_onset =
      des::from_seconds(args.get_double("onset", 30));
  config.adversary_params.mute_duration =
      des::from_seconds(args.get_double("mute-duration", 15));
  config.adversary_params.forward_prob =
      args.get_double("forward-prob", 0.3);

  config.num_broadcasts = static_cast<std::size_t>(args.get_int("bcasts", 20));
  config.broadcast_interval =
      des::millis(static_cast<std::uint64_t>(args.get_int("interval-ms", 500)));
  config.payload_bytes = static_cast<std::size_t>(args.get_int("payload", 256));
  config.senders = static_cast<std::size_t>(args.get_int("senders", 1));
  config.warmup = des::from_seconds(args.get_double("warmup", 6));
  config.cooldown = des::from_seconds(args.get_double("cooldown", 12));

  config.protocol_config.gossip_period = des::millis(
      static_cast<std::uint64_t>(args.get_int("gossip-ms", 500)));
  config.protocol_config.hello_period = des::millis(
      static_cast<std::uint64_t>(args.get_int("hello-ms", 1000)));
  std::string overlay = args.get_str("overlay", "cds");
  if (overlay == "misb") {
    config.protocol_config.overlay_kind = overlay::OverlayKind::kMisB;
  } else if (overlay == "none") {
    config.protocol_config.overlay_kind = overlay::OverlayKind::kNone;
  } else if (overlay == "cds") {
    config.protocol_config.overlay_kind = overlay::OverlayKind::kCds;
  } else {
    throw std::invalid_argument("--overlay: cds|misb|none");
  }
  std::string purge = args.get_str("purge", "timeout");
  config.protocol_config.purge_policy = purge == "stability"
                                            ? core::PurgePolicy::kStability
                                            : core::PurgePolicy::kTimeout;
  config.protocol_config.recovery_enabled = args.get_bool("recovery", true);
  config.protocol_config.find_ttl =
      static_cast<std::uint8_t>(args.get_int("find-ttl", 2));
  config.protocol_config.trust_propagation =
      args.get_bool("trust-propagation", true);

  // Batched anti-entropy range-sync (DESIGN.md §11). --range-sync turns
  // sessions on for crash recovery; --sync-period additionally runs them
  // periodically (0 = recovery-only, the default).
  config.protocol_config.sync.enabled = args.get_bool("range-sync", false);
  config.protocol_config.sync.period =
      des::from_seconds(args.get_double("sync-period", 0));
  config.protocol_config.sync.startup_delay =
      des::from_seconds(args.get_double("sync-delay", 2));
  config.protocol_config.sync.batch_max_messages =
      static_cast<std::size_t>(args.get_int("sync-batch", 16));

  // Transport-level message adversary (DESIGN.md §14): seeded per-frame
  // drop/duplicate/reorder/corrupt/delay applied on every node's ingress
  // path, orthogonal to the medium's --loss and to byz::Adversary. All
  // zero (the default) builds no decorators at all.
  config.impairment.link.drop = args.get_double("impair-drop", 0.0);
  config.impairment.link.duplicate = args.get_double("impair-dup", 0.0);
  config.impairment.link.reorder = args.get_double("impair-reorder", 0.0);
  config.impairment.link.corrupt = args.get_double("impair-corrupt", 0.0);
  config.impairment.link.delay_max =
      des::millis(static_cast<std::uint64_t>(args.get_int("impair-delay-ms", 0)));

  // Asymmetric per-link rules layered on the base impairment: inline
  // `;`-separated rules, or @FILE to read one rule per line. Example:
  //   --impair-matrix='1<-0 drop=1; *<-5 dup=0.2'
  // makes node 1 deaf to node 0 and duplicates everything node 5 sends.
  std::string impair_matrix = args.get_str("impair-matrix", "");
  if (!impair_matrix.empty()) {
    std::string spec = impair_matrix;
    if (spec[0] == '@') {
      std::ifstream file(spec.substr(1));
      if (!file) {
        throw std::invalid_argument("--impair-matrix: cannot open " +
                                    spec.substr(1));
      }
      std::ostringstream text;
      text << file.rdbuf();
      spec = text.str();
    }
    config.impairment_matrix = net::parse_impairment_matrix(spec);
  }

  // Fault schedule (sim/fault.h documents the line format):
  //   ./byzsim --fault-script=faults.txt
  // with faults.txt containing e.g. "t=10 crash node=3".
  std::string fault_script = args.get_str("fault-script", "");
  if (!fault_script.empty()) {
    std::ifstream file(fault_script);
    if (!file) {
      throw std::invalid_argument("--fault-script: cannot open " +
                                  fault_script);
    }
    std::ostringstream text;
    text << file.rdbuf();
    config.fault_schedule = sim::FaultSchedule::parse(text.str());
  }

  bool analyze = args.get_bool("analyze", false);
  // The protocol trace (DESIGN.md §15), one recorder behind two flags:
  // --trace renders it as text|csv|jsonl (jsonl is the byztrace input
  // format); --trace-out redirects that to a file and keeps the metrics
  // summary on stdout (without it, --trace writes to stdout and exits).
  std::string trace_format = args.get_str("trace", "");
  std::string trace_out = args.get_str("trace-out", "");
  if (!trace_out.empty() && trace_format.empty()) trace_format = "text";
  // --trace-msgs additionally writes the JSONL file, mergeable by
  // byztrace with live-daemon traces of the same schema. --trace-sample
  // keeps 1-in-N messages.
  std::string trace_msgs = args.get_str("trace-msgs", "");
  config.enable_msg_trace = !trace_format.empty() || !trace_msgs.empty();
  config.msg_trace.sample_every =
      static_cast<std::uint32_t>(args.get_int("trace-sample", 1));

  // Flight recorder / run report (DESIGN.md §10): --report writes the
  // unified JSON artifact ("-" = stdout); telemetry sampling defaults on
  // at 500 ms whenever a report is requested.
  std::string report_path = args.get_str("report", "");
  double telemetry_ms =
      args.get_double("telemetry-ms", report_path.empty() ? 0 : 500);
  config.telemetry_interval = des::from_seconds(telemetry_ms / 1e3);
  bool profile = args.get_bool("profile", false);
  obs::Profiler::set_enabled(profile);
  args.reject_unknown();

  sim::Network network(config);
  std::fprintf(stderr,
               "byzsim: %s, n=%zu (%zu byzantine), %s placement, %s "
               "mobility, %zu broadcasts\n",
               protocol.c_str(), config.n, config.byzantine_count(),
               placement.c_str(), mobility.c_str(), config.num_broadcasts);
  sim::RunResult result = sim::run_workload(network);
  const stats::Metrics& m = result.metrics;

  if (!trace_format.empty()) {
    std::ofstream trace_file;
    if (!trace_out.empty()) {
      trace_file.open(trace_out, std::ios::binary | std::ios::trunc);
      if (!trace_file) {
        throw std::invalid_argument("--trace-out: cannot open " + trace_out);
      }
    }
    std::ostream& trace_os = trace_out.empty()
                                 ? static_cast<std::ostream&>(std::cout)
                                 : trace_file;
    if (trace_format == "csv") {
      network.msg_trace().write_csv(trace_os);
    } else if (trace_format == "jsonl") {
      network.msg_trace().write_jsonl(trace_os);
    } else {
      network.msg_trace().write_text(trace_os);
    }
    if (trace_out.empty()) return 0;
    std::fprintf(stderr, "byzsim: trace written to %s (%zu events)\n",
                 trace_out.c_str(), network.msg_trace().events().size());
  }

  if (!trace_msgs.empty()) {
    std::ofstream file(trace_msgs, std::ios::binary | std::ios::trunc);
    if (!file) {
      throw std::invalid_argument("--trace-msgs: cannot open " + trace_msgs);
    }
    network.msg_trace().write_jsonl(file);
    std::fprintf(stderr, "byzsim: message trace written to %s (%zu events)\n",
                 trace_msgs.c_str(), network.msg_trace().events().size());
  }

  util::Table table({"metric", "value"});
  auto add = [&](const char* name, util::Cell value) {
    table.add_row({std::string(name), std::move(value)});
  };
  add("delivery_ratio", m.delivery_ratio());
  add("full_delivery_fraction", m.full_delivery_fraction());
  add("latency_mean_ms", 1e3 * m.latency().mean());
  add("latency_p99_ms", 1e3 * m.latency().percentile(0.99));
  add("duplicate_accepts", static_cast<std::int64_t>(m.duplicate_accepts()));
  add("unknown_accepts", static_cast<std::int64_t>(m.unknown_accepts()));
  for (auto kind :
       {stats::MsgKind::kData, stats::MsgKind::kGossip,
        stats::MsgKind::kRequestMsg, stats::MsgKind::kFindMissingMsg,
        stats::MsgKind::kHello}) {
    add((std::string("packets_") + stats::msg_kind_name(kind)).c_str(),
        static_cast<std::int64_t>(m.packets(kind)));
  }
  add("frames_sent", static_cast<std::int64_t>(m.frames_sent()));
  add("frames_collided", static_cast<std::int64_t>(m.frames_collided()));
  add("sim_seconds", result.sim_seconds);
  if (!config.fault_schedule.empty()) {
    add("availability", result.availability);
    add("downtime_events", static_cast<std::int64_t>(m.downtime_events()));
    add("recoveries_returned",
        static_cast<std::int64_t>(m.recoveries_returned()));
    add("recoveries_completed",
        static_cast<std::int64_t>(m.recoveries_completed()));
    add("catchup_mean_s", m.catchup_latency().mean());
    add("catchup_p99_s", m.catchup_latency().percentile(0.99));
  }
  if (!config.fault_schedule.empty() || config.protocol_config.sync.enabled) {
    add("recovery_bytes", static_cast<std::int64_t>(m.recovery_bytes()));
    add("recovery_packets", static_cast<std::int64_t>(m.recovery_packets()));
  }
  if (config.protocol == sim::ProtocolKind::kByzcast) {
    add("overlay_size", static_cast<std::int64_t>(result.overlay_size_end));
    add("overlay_healthy", std::string(result.overlay_healthy_end ? "yes" : "no"));
  }
  if (config.impairment.any() || config.impairment_matrix.any()) {
    struct Rows final : obs::GaugeVisitor {
      explicit Rows(util::Table& t) : table(t) {}
      void gauge(std::string_view name, std::int64_t value) override {
        table.add_row({std::string(name), value});
      }
      util::Table& table;
    } rows(table);
    network.impairment_stats().emit_gauges(rows);
  }
  // --report=- streams the JSON artifact on stdout; keep it parseable by
  // routing the human summary to stderr instead of interleaving.
  if (report_path == "-") {
    table.print(std::cerr);
  } else {
    table.print(std::cout);
  }

  std::FILE* human_file = report_path == "-" ? stderr : stdout;
  std::ostream& human_stream = report_path == "-" ? std::cerr : std::cout;

  if (analyze && config.protocol == sim::ProtocolKind::kByzcast) {
    std::vector<geo::Vec2> points;
    for (NodeId id = 0; id < network.node_count(); ++id) {
      points.push_back(network.position_of(id));
    }
    analysis::Adjacency adj =
        geo::unit_disk_adjacency(points, config.tx_range);
    analysis::DegreeStats deg = analysis::degree_stats(adj);
    analysis::OverlayReport report =
        analysis::evaluate_overlay(adj, network.overlay_members());
    std::fprintf(human_file, "\n-- topology & overlay analysis --\n");
    std::fprintf(human_file,
                 "degrees: min=%zu mean=%.1f max=%zu; components=%zu\n",
                 deg.min, deg.mean, deg.max, analysis::component_count(adj));
    std::fprintf(human_file,
                 "backbone: %zu members, dominating=%s, connected=%s, "
                 "mean stretch=%.3f\n",
                 report.backbone_size, report.dominating ? "yes" : "no",
                 report.backbone_connected ? "yes" : "no",
                 report.mean_stretch);
  }

  if (profile) {
    util::Table prof({"category", "count", "total_ms", "max_us"});
    for (std::size_t i = 0; i < obs::kProfileCategoryCount; ++i) {
      auto cat = static_cast<obs::ProfileCategory>(i);
      obs::Profiler::CategoryStats st = obs::Profiler::stats(cat);
      prof.add_row({std::string(obs::profile_category_name(cat)),
                    static_cast<std::int64_t>(st.count),
                    static_cast<double>(st.total_ns) / 1e6,
                    static_cast<double>(st.max_ns) / 1e3});
    }
    std::fprintf(human_file, "\n-- profiler (wall-clock) --\n");
    prof.print(human_stream);
  }

  if (!report_path.empty()) {
    obs::RunReport report;
    report.config = &config;
    report.result = &result;
    if (config.enable_msg_trace) report.trace = &network.msg_trace();
    if (report_path == "-") {
      report.write_json(std::cout);
    } else {
      std::ofstream file(report_path, std::ios::binary | std::ios::trunc);
      if (!file) {
        throw std::invalid_argument("--report: cannot open " + report_path);
      }
      report.write_json(file);
      std::fprintf(stderr, "byzsim: run report written to %s\n",
                   report_path.c_str());
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "byzsim: %s\n", e.what());
  return 1;
}
