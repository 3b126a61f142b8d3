// byzcastd — one protocol node as a real OS process (DESIGN.md §13).
//
// The same core::ByzcastNode that runs inside the simulator, constructed
// against the live backend (net::IoLoop + net::UdpTransport) instead of
// the DES. A fleet of byzcastd processes on localhost is the protocol
// with real sockets, real clocks and real process boundaries; the
// `--transport=sim` mode runs the equivalent scenario in-process on the
// DES and emits the *predicted* delivery sets, which the live-harness
// driver (tests/live_harness/live_harness.py) compares against the
// daemons' observed ones.
//
//   # prediction (all nodes, one process, virtual time):
//   byzcastd --transport=sim --n=8 --bcasts=5 --deliveries=expect.json
//   # one live node (repeat for ids 0..n-1, any order):
//   byzcastd --transport=udp --id=3 --n=8 --bcasts=5 --deliveries=n3.json
//
// Keys never cross the wire: every process derives the whole fleet's
// toy-PKI deterministically from --key-seed (crypto::Pki issues keys in
// node-id order), keeping only its own Signer — the operational story a
// real deployment would implement with provisioned key files.
//
// Delivery artifact ("byzcast-deliveries/v1"): per-node sorted accept
// sets as [origin, seq] pairs; the source node's own broadcasts count as
// delivered to itself. --report additionally emits the same
// "byzcast-run-report/v1" JSON byzsim writes, with tool="byzcastd", the
// flight-recorder timeline sampled on wall-clock time, and (udp mode) a
// "net" section of transport/impairment/peer-health counters.
//
// Chaos knobs (DESIGN.md §14): --impair-drop/-dup/-reorder/-delay-ms
// wrap the UDP transport's ingress in a net::ImpairedTransport;
// --impair-corrupt mangles egress datagram bytes pre-sendto so receivers
// exercise the strict 'BZC1' decode. A net::PeerHealth tracker turns
// transport-level silence and send-error streaks into kMute suspicions
// on the node's TrustFd. SIGTERM/SIGINT stop the loop via a self-pipe
// and still flush the delivery/report artifacts, so a harness can kill a
// daemon early without losing its observations.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/byzcast_node.h"
#include "fd/fd_types.h"
#include "net/impairment.h"
#include "net/io_loop.h"
#include "net/peer_health.h"
#include "net/timer.h"
#include "net/udp_backend.h"
#include "obs/msg_trace.h"
#include "obs/run_report.h"
#include "obs/timeline.h"
#include "sim/runner.h"
#include "sync/sync.h"
#include "util/cli.h"
#include "util/json.h"

namespace {

using namespace byzcast;

struct Options {
  NodeId id = 0;
  std::size_t n = 4;
  std::uint64_t seed = 1;
  std::uint64_t key_seed = 42;
  bool source = false;
  std::string transport = "sim";
  std::string host = "127.0.0.1";
  std::uint16_t base_port = 19000;
  std::size_t bcasts = 5;
  des::SimDuration interval = des::millis(500);
  std::size_t payload_bytes = 64;
  des::SimDuration start_delay = des::seconds(2);
  des::SimDuration duration = des::seconds(10);
  core::ProtocolConfig protocol;
  std::string deliveries_path;
  std::string report_path;
  des::SimDuration telemetry_interval = 0;
  /// Message-lifecycle trace destination (DESIGN.md §15): one JSONL
  /// file per daemon (wall-anchored) or per sim prediction (sim clock).
  std::string trace_msgs_path;
  /// Periodic stats snapshot stream (udp mode): JSONL, one line per
  /// stats_interval tick, flushed per line so a SIGKILLed daemon still
  /// leaves a usable prefix behind.
  std::string stats_path;
  des::SimDuration stats_interval = des::millis(500);
  /// Ingress frame impairment (udp mode only; sim predictions stay
  /// ideal-channel so they remain the convergence target).
  net::ImpairmentConfig impairment;
  /// Egress datagram-byte corruption probability (wire mangler).
  double wire_corrupt = 0;
  bool catchup = false;  ///< schedule a range-sync catch-up after start
  net::PeerHealthConfig health;
};

// Self-pipe for async-signal-safe shutdown: the handler writes one byte,
// the IoLoop wakes on the read end and stops, and the normal flush path
// runs. write(2) is on the async-signal-safe list; failure (pipe full)
// is fine — any earlier byte already woke the loop.
int g_signal_pipe_write = -1;

extern "C" void byzcastd_on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe_write, &byte, 1);
}

using DeliverySet = std::set<std::pair<NodeId, std::uint32_t>>;

/// Writes the "byzcast-deliveries/v1" artifact. `nodes` maps node id to
/// its sorted accept set; a live daemon passes exactly one entry, the
/// sim prediction passes all n.
void write_deliveries(std::ostream& os, const Options& opt,
                      const std::map<NodeId, DeliverySet>& nodes) {
  os << "{\n  \"schema\": " << util::json_quote("byzcast-deliveries/v1")
     << ",\n";
  os << "  \"n\": " << opt.n << ",\n";
  // sim mode predicts the whole fleet with node 0 broadcasting; a live
  // daemon only knows whether *it* is the source (-1 = some other node).
  const int source =
      opt.transport == "sim" ? 0 : (opt.source ? int(opt.id) : -1);
  os << "  \"source\": " << source << ",\n";
  os << "  \"bcasts\": " << opt.bcasts << ",\n";
  os << "  \"nodes\": {\n";
  bool first_node = true;
  for (const auto& [id, set] : nodes) {
    if (!first_node) os << ",\n";
    first_node = false;
    os << "    \"" << id << "\": [";
    bool first = true;
    for (const auto& [origin, seq] : set) {
      if (!first) os << ", ";
      first = false;
      os << "[" << origin << ", " << seq << "]";
    }
    os << "]";
  }
  os << "\n  }\n}\n";
}

/// Builds the ScenarioConfig the run report describes; shared by both
/// modes so sim and udp reports diff cleanly apart from their metrics.
/// The channel is the ideal one the fleet runs on: a tight line well
/// inside one transmission range, no collisions, no loss — every node
/// hears every frame, like n daemons fanning out on loopback.
sim::ScenarioConfig report_config(const Options& opt) {
  sim::ScenarioConfig config;
  config.seed = opt.seed;
  config.n = opt.n;
  config.num_broadcasts = opt.bcasts;
  config.broadcast_interval = opt.interval;
  config.payload_bytes = opt.payload_bytes;
  config.senders = 1;
  config.protocol_config = opt.protocol;
  config.telemetry_interval = opt.telemetry_interval;
  config.impairment = opt.impairment;
  config.placement = sim::PlacementKind::kChain;
  config.chain_spacing = 1;
  config.tx_range = 1e5;
  config.medium.collisions_enabled = false;
  config.medium.base_loss_prob = 0;
  return config;
}

/// `trace` is summarised in the report when --trace-msgs is on.
void write_report(const Options& opt, const sim::ScenarioConfig& config,
                  const sim::RunResult& result,
                  const obs::MsgTraceRecorder& trace,
                  const obs::LiveNetStats* net = nullptr) {
  obs::RunReport report;
  report.tool = "byzcastd";
  report.config = &config;
  report.result = &result;
  report.trace = opt.trace_msgs_path.empty() ? nullptr : &trace;
  report.net = net;
  if (opt.report_path == "-") {
    report.write_json(std::cout);
    return;
  }
  std::ofstream file(opt.report_path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::invalid_argument("--report: cannot open " + opt.report_path);
  }
  report.write_json(file);
  std::fprintf(stderr, "byzcastd: run report written to %s\n",
               opt.report_path.c_str());
}

void write_deliveries_file(const Options& opt,
                           const std::map<NodeId, DeliverySet>& nodes) {
  if (opt.deliveries_path.empty()) return;
  if (opt.deliveries_path == "-") {
    write_deliveries(std::cout, opt, nodes);
    return;
  }
  std::ofstream file(opt.deliveries_path,
                     std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::invalid_argument("--deliveries: cannot open " +
                                opt.deliveries_path);
  }
  write_deliveries(file, opt, nodes);
}

std::uint64_t unix_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void write_msg_trace_file(const Options& opt,
                          const obs::MsgTraceRecorder& recorder) {
  if (opt.trace_msgs_path.empty()) return;
  std::ofstream file(opt.trace_msgs_path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::invalid_argument("--trace-msgs: cannot open " +
                                opt.trace_msgs_path);
  }
  recorder.write_jsonl(file);
  std::fprintf(stderr, "byzcastd: message trace written to %s (%zu events)\n",
               opt.trace_msgs_path.c_str(), recorder.events().size());
}

// ---------------------------------------------------------------------------
// --transport=sim: the DES prediction. One process simulates the whole
// fleet under ideal-channel conditions (no collisions, no loss, all
// nodes in range — the localhost analogue), node 0 broadcasting on the
// same schedule the live source uses. Deterministic in (seed, flags).
// ---------------------------------------------------------------------------
int run_sim_prediction(const Options& opt) {
  sim::ScenarioConfig config = report_config(opt);
  // Ingress chaos is a live-daemon knob; the prediction is the
  // convergence target.
  config.impairment = {};
  config.enable_msg_trace = !opt.trace_msgs_path.empty();
  sim::Network network(config);
  des::Simulator& sim = network.simulator();

  std::map<NodeId, DeliverySet> delivered;
  for (NodeId id = 0; id < opt.n; ++id) {
    network.byzcast_node(id)->set_accept_handler(
        [&delivered, id](const core::MessageId& mid,
                         std::span<const std::uint8_t>) {
          delivered[id].emplace(mid.origin, mid.seq);
        });
    delivered[id];  // every node appears, even with an empty set
  }
  for (std::size_t i = 0; i < opt.bcasts; ++i) {
    sim.schedule_at(opt.start_delay + opt.interval * i, [&, i] {
      network.broadcast_from(0, sim::make_payload(i, opt.payload_bytes));
      delivered[0].emplace(0, network.byzcast_node(0)->next_seq() - 1);
    });
  }
  sim.run_until(opt.duration);

  write_deliveries_file(opt, delivered);
  write_msg_trace_file(opt, network.msg_trace());
  if (!opt.report_path.empty()) {
    sim::RunResult result;
    result.metrics = network.metrics();
    result.timeline = network.timeline_data();
    result.correct_count = opt.n;
    result.sim_seconds = des::to_seconds(sim.now());
    write_report(opt, config, result, network.msg_trace());
  }
  std::fprintf(stderr, "byzcastd: sim prediction done, %zu nodes, %zu events\n",
               opt.n, static_cast<std::size_t>(sim.events_executed()));
  return 0;
}

// ---------------------------------------------------------------------------
// --transport=udp: one live node. Peer list is the full id range on
// consecutive ports (base_port + id) — the localhost harness layout.
// ---------------------------------------------------------------------------
int run_udp_daemon(const Options& opt) {
  net::IoLoop loop(opt.seed ^ (0x9e3779b97f4a7c15ULL * (opt.id + 1)));
  stats::Metrics metrics;
  crypto::Pki pki{des::Rng(opt.key_seed)};
  crypto::Signer signer{};
  for (NodeId id = 0; id < opt.n; ++id) {
    crypto::Signer issued = pki.register_node(id);
    if (id == opt.id) signer = issued;
  }

  std::vector<net::UdpPeer> peers;
  for (NodeId id = 0; id < opt.n; ++id) {
    peers.push_back(net::UdpPeer{
        id, opt.host, static_cast<std::uint16_t>(opt.base_port + id)});
  }
  net::UdpTransport transport(
      loop, opt.id, opt.host,
      static_cast<std::uint16_t>(opt.base_port + opt.id), std::move(peers));

  // Egress wire corruption: flip a byte of the encoded datagram for one
  // target with probability --impair-corrupt, so *receivers* exercise
  // the strict 'BZC1' decode / protocol parse rejection paths.
  std::uint64_t wire_corrupted = 0;
  if (opt.wire_corrupt > 0) {
    auto rng = std::make_shared<des::Rng>(loop.split_rng());
    transport.set_wire_mangler(
        [rng, p = opt.wire_corrupt,
         &wire_corrupted](std::vector<std::uint8_t>& bytes) {
          if (rng->next_double() < p) {
            net::flip_random_byte(bytes.data(), bytes.size(), *rng);
            ++wire_corrupted;
          }
        });
  }

  // Ingress impairment: the node reads through the decorator when any
  // rate is configured; otherwise it runs straight on the transport.
  std::optional<net::ImpairedTransport> impaired;
  net::Transport* path = &transport;
  if (opt.impairment.any()) {
    impaired.emplace(loop, transport, opt.impairment);
    path = &*impaired;
  }

  core::ByzcastNode node(loop, *path, pki, signer, opt.protocol, &metrics);

  // Message-lifecycle trace, wall-anchored: the IoLoop clock starts at
  // this daemon's boot, so the anchor pairs env-now with unix-now at the
  // same instant and byztrace rebases every daemon onto the shared wall
  // clock. A respawned daemon re-anchors at its new boot — correct, its
  // clock restarted too.
  obs::MsgTraceRecorder msg_trace;
  if (!opt.trace_msgs_path.empty()) {
    obs::MsgTraceAnchor anchor;
    anchor.node = opt.id;
    anchor.n = static_cast<std::uint32_t>(opt.n);
    anchor.wall_clock = true;
    anchor.anchor_env = loop.now();
    anchor.anchor_unix_us = unix_now_us();
    msg_trace.set_anchor(anchor);
    node.set_msg_trace(&msg_trace);
  }

  std::map<NodeId, DeliverySet> delivered;
  delivered[opt.id];
  node.set_accept_handler(
      [&delivered, &opt](const core::MessageId& mid,
                         std::span<const std::uint8_t>) {
        delivered[opt.id].emplace(mid.origin, mid.seq);
      });
  node.set_expected_targets(opt.n - 1);

  // Transport-level liveness accounting, fed straight off the UDP
  // transport's taps and surfaced to the protocol as kMute suspicions —
  // a peer whose process died looks exactly like the paper's mute node.
  std::vector<NodeId> others;
  for (NodeId id = 0; id < opt.n; ++id) {
    if (id != opt.id) others.push_back(id);
  }
  net::PeerHealth health(loop, others, opt.health);
  transport.set_frame_tap([&health](NodeId peer) { health.on_frame_from(peer); });
  transport.set_send_error_listener(
      [&health](NodeId peer) { health.on_send_error(peer); });
  transport.set_send_ok_listener(
      [&health](NodeId peer) { health.on_send_ok(peer); });
  health.set_on_suspect([&node, &opt](NodeId peer) {
    std::fprintf(stderr, "byzcastd: node %u suspects peer %u (silent/unreachable)\n",
                 opt.id, peer);
    node.suspect(peer, fd::SuspicionReason::kMute);
  });
  health.set_on_alive([&opt](NodeId peer) {
    std::fprintf(stderr, "byzcastd: node %u hears peer %u again\n", opt.id,
                 peer);
  });

  node.start();
  health.start();
  if (opt.catchup && node.sync_manager() != nullptr) {
    // A respawned daemon is a crash-recovered node: pull the backlog via
    // a range-sync session once HELLOs have repopulated the neighbour
    // table (SyncManager waits startup_delay before picking a peer).
    node.sync_manager()->begin_catchup();
  }

  // SIGTERM/SIGINT: wake the loop through the self-pipe and fall out of
  // run_for() into the normal artifact flush below.
  int sig_pipe[2];
  if (::pipe(sig_pipe) != 0) {
    throw std::runtime_error("byzcastd: pipe(2) failed");
  }
  ::fcntl(sig_pipe[0], F_SETFL, O_NONBLOCK);
  ::fcntl(sig_pipe[1], F_SETFL, O_NONBLOCK);
  g_signal_pipe_write = sig_pipe[1];
  bool interrupted = false;
  loop.watch_fd(sig_pipe[0], [&] {
    char buf[16];
    while (::read(sig_pipe[0], buf, sizeof buf) > 0) {
    }
    interrupted = true;
    loop.stop();
  });
  std::signal(SIGTERM, byzcastd_on_signal);
  std::signal(SIGINT, byzcastd_on_signal);

  std::optional<obs::Timeline> timeline;
  if (opt.telemetry_interval > 0) {
    timeline.emplace(loop, metrics, opt.telemetry_interval);
    timeline->add_source("node" + std::to_string(opt.id), node);
    // Transport-level rows (DESIGN.md §15 satellite): peer health and —
    // when the ingress is impaired — the decorator's chaos counters,
    // sampled per tick so --report artifacts show when the chaos hit.
    timeline->add_source("health", health);
    if (impaired) timeline->add_source("impair", *impaired);
    timeline->start();
  }

  // Periodic stats snapshot stream ("byzcast-stats/v1"): an anchor line
  // then one JSONL snapshot per tick, flushed per line — the live
  // harness aggregates these into a fleet timeline, and a SIGKILLed
  // daemon still leaves its prefix behind.
  std::ofstream stats_file;
  std::optional<net::PeriodicTimer> stats_timer;
  auto write_stats_line = [&] {
    stats_file << "{\"t_us\":" << loop.now()
               << ",\"unix_us\":" << unix_now_us()
               << ",\"delivered\":" << delivered[opt.id].size()
               << ",\"store\":" << node.store().size()
               << ",\"pending_requests\":" << node.pending_request_count()
               << ",\"datagrams_sent\":" << transport.datagrams_sent()
               << ",\"datagrams_received\":" << transport.datagrams_received()
               << ",\"datagrams_rejected\":" << transport.datagrams_rejected()
               << ",\"send_errors\":" << transport.send_errors()
               << ",\"send_retries\":" << transport.send_retries()
               << ",\"send_drops\":" << transport.send_drops()
               << ",\"impaired\":"
               << (impaired ? impaired->stats().impaired() : 0)
               << ",\"wire_corrupted\":" << wire_corrupted
               << ",\"health_suspects\":" << health.suspects().size()
               << ",\"health_suspect_transitions\":"
               << health.suspect_transitions() << "}\n";
    stats_file.flush();
  };
  if (!opt.stats_path.empty()) {
    stats_file.open(opt.stats_path, std::ios::binary | std::ios::trunc);
    if (!stats_file) {
      throw std::invalid_argument("--stats-out: cannot open " +
                                  opt.stats_path);
    }
    stats_file << "{\"schema\":" << util::json_quote("byzcast-stats/v1")
               << ",\"node\":" << opt.id << ",\"n\":" << opt.n
               << ",\"anchor_env_us\":" << loop.now()
               << ",\"anchor_unix_us\":" << unix_now_us()
               << ",\"period_us\":" << opt.stats_interval << "}\n";
    stats_file.flush();
    stats_timer.emplace(loop, opt.stats_interval, write_stats_line);
    stats_timer->start();
  }

  if (opt.source) {
    for (std::size_t i = 0; i < opt.bcasts; ++i) {
      loop.schedule_after(opt.start_delay + opt.interval * i, [&, i] {
        node.broadcast(sim::make_payload(i, opt.payload_bytes));
        delivered[opt.id].emplace(opt.id, node.next_seq() - 1);
      });
    }
  }

  loop.run_for(opt.duration);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_signal_pipe_write = -1;
  loop.unwatch_fd(sig_pipe[0]);
  ::close(sig_pipe[0]);
  ::close(sig_pipe[1]);
  if (stats_timer) {
    stats_timer->stop();
    write_stats_line();  // closing snapshot with the final counters
  }
  health.stop();
  node.stop();

  obs::LiveNetStats net;
  net.datagrams_sent = transport.datagrams_sent();
  net.datagrams_received = transport.datagrams_received();
  net.datagrams_rejected = transport.datagrams_rejected();
  net.send_errors = transport.send_errors();
  net.send_retries = transport.send_retries();
  net.send_drops = transport.send_drops();
  if (impaired) {
    const net::ImpairmentStats& imp = impaired->stats();
    net.impaired_dropped = imp.dropped;
    net.impaired_duplicated = imp.duplicated;
    net.impaired_reordered = imp.reordered;
    net.impaired_delayed = imp.delayed;
    net.impaired_corrupted = imp.corrupted;
  }
  net.wire_corrupted = wire_corrupted;
  net.health_suspect_transitions = health.suspect_transitions();
  net.health_alive_transitions = health.alive_transitions();
  net.health_suspected_at_end = health.suspects().size();

  write_deliveries_file(opt, delivered);
  write_msg_trace_file(opt, msg_trace);
  if (!opt.report_path.empty()) {
    if (timeline) timeline->sample_now();
    sim::RunResult result;
    result.metrics = metrics;
    result.correct_count = opt.n;
    result.sim_seconds = static_cast<double>(loop.now()) / 1e6;
    if (timeline) result.timeline = timeline->data();
    write_report(opt, report_config(opt), result, msg_trace, &net);
  }
  std::fprintf(stderr,
               "byzcastd: node %u %s: %zu delivered, %llu datagrams in, "
               "%llu rejected, %llu send errors (%llu retries, %llu drops), "
               "%llu impaired, %zu suspects\n",
               opt.id, interrupted ? "interrupted (flushed)" : "done",
               delivered[opt.id].size(),
               static_cast<unsigned long long>(net.datagrams_received),
               static_cast<unsigned long long>(net.datagrams_rejected),
               static_cast<unsigned long long>(net.send_errors),
               static_cast<unsigned long long>(net.send_retries),
               static_cast<unsigned long long>(net.send_drops),
               static_cast<unsigned long long>(
                   impaired ? impaired->stats().impaired() : 0),
               health.suspects().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  util::CliArgs args(argc, argv);
  args.begin_group("node")
      .add_flag("id", 0, "this node's id (0..n-1)")
      .add_flag("n", 4, "fleet size")
      .add_flag("key-seed", 42, "toy-PKI derivation seed (fleet-wide)")
      .add_flag("transport", "sim",
                "sim = in-process DES prediction of the whole fleet; "
                "udp = one live node")
      .add_flag("source", false, "this node broadcasts the workload");
  args.begin_group("workload")
      .add_flag("seed", 1, "scenario / rng seed")
      .add_flag("bcasts", 5, "broadcasts the source sends")
      .add_flag("interval-ms", 500, "spacing between broadcasts")
      .add_flag("payload", 64, "payload bytes per broadcast")
      .add_flag("start-delay-s", 2.0,
                "overlay warm-up before the first broadcast")
      .add_flag("duration-s", 10.0, "total run length")
      .add_flag("gossip-ms", 500, "gossip period")
      .add_flag("hello-ms", 1000, "HELLO beacon period");
  args.begin_group("udp backend")
      .add_flag("host", "127.0.0.1", "IPv4 address every node binds")
      .add_flag("base-port", 19000, "node i binds base-port + i")
      .add_flag("range-sync", false,
                "enable batched anti-entropy range-sync sessions")
      .add_flag("catchup", false,
                "start a catch-up sync session after boot (respawned "
                "daemon; needs --range-sync)");
  args.begin_group("chaos (udp only)")
      .add_flag("impair-drop", 0.0, "ingress frame drop probability")
      .add_flag("impair-dup", 0.0, "ingress frame duplication probability")
      .add_flag("impair-reorder", 0.0, "ingress frame reorder probability")
      .add_flag("impair-delay-ms", 0,
                "max uniform extra ingress latency per frame")
      .add_flag("impair-corrupt", 0.0,
                "egress datagram byte-flip probability (wire mangler)")
      .add_flag("health-silence-s", 5.0,
                "peer silence before a transport-level kMute suspicion")
      .add_flag("health-send-errors", 8,
                "consecutive send errors before suspecting a peer");
  args.begin_group("output")
      .add_flag("deliveries", "",
                "write the byzcast-deliveries/v1 JSON here (- = stdout)")
      .add_flag("report", "",
                "write a byzcast-run-report/v1 JSON here (- = stdout)")
      .add_flag("telemetry-ms", 0.0,
                "flight-recorder sampling period (0 = off)")
      .add_flag("trace-msgs", "",
                "write a byzcast-msg-trace/v1 JSONL lifecycle trace here")
      .add_flag("stats-out", "",
                "stream periodic byzcast-stats/v1 JSONL snapshots here (udp)")
      .add_flag("stats-ms", 500, "stats snapshot period");
  if (args.handle_help("byzcastd", std::cout)) return 0;

  Options opt;
  opt.id = static_cast<NodeId>(args.get_int("id"));
  opt.n = static_cast<std::size_t>(args.get_int("n"));
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  opt.key_seed = static_cast<std::uint64_t>(args.get_int("key-seed"));
  opt.source = args.get_bool("source");
  opt.transport = args.get_str("transport");
  opt.host = args.get_str("host");
  opt.base_port = static_cast<std::uint16_t>(args.get_int("base-port"));
  opt.bcasts = static_cast<std::size_t>(args.get_int("bcasts"));
  opt.interval = des::millis(
      static_cast<std::uint64_t>(args.get_int("interval-ms")));
  opt.payload_bytes = static_cast<std::size_t>(args.get_int("payload"));
  opt.start_delay = des::from_seconds(args.get_double("start-delay-s"));
  opt.duration = des::from_seconds(args.get_double("duration-s"));
  opt.protocol.gossip_period = des::millis(
      static_cast<std::uint64_t>(args.get_int("gossip-ms")));
  opt.protocol.hello_period = des::millis(
      static_cast<std::uint64_t>(args.get_int("hello-ms")));
  opt.deliveries_path = args.get_str("deliveries");
  opt.report_path = args.get_str("report");
  opt.trace_msgs_path = args.get_str("trace-msgs");
  opt.stats_path = args.get_str("stats-out");
  opt.stats_interval =
      des::millis(static_cast<std::uint64_t>(args.get_int("stats-ms")));
  opt.telemetry_interval =
      des::from_seconds(args.get_double("telemetry-ms") / 1e3);
  opt.protocol.sync.enabled = args.get_bool("range-sync");
  opt.catchup = args.get_bool("catchup");
  opt.impairment.link.drop = args.get_double("impair-drop");
  opt.impairment.link.duplicate = args.get_double("impair-dup");
  opt.impairment.link.reorder = args.get_double("impair-reorder");
  opt.impairment.link.delay_max =
      des::millis(static_cast<std::uint64_t>(args.get_int("impair-delay-ms")));
  opt.wire_corrupt = args.get_double("impair-corrupt");
  opt.health.silence_timeout =
      des::from_seconds(args.get_double("health-silence-s"));
  opt.health.send_error_threshold =
      static_cast<int>(args.get_int("health-send-errors"));
  args.reject_unknown();

  if (opt.n == 0 || opt.id >= opt.n) {
    throw std::invalid_argument("--id must be < --n");
  }
  if (opt.transport == "sim" && !opt.stats_path.empty()) {
    // The stats stream samples a live daemon's wall clock; the DES
    // prediction has --report for its (virtual-time) flight recorder.
    throw std::invalid_argument("--stats-out requires --transport=udp");
  }
  if (opt.transport == "sim") return run_sim_prediction(opt);
  if (opt.transport == "udp") return run_udp_daemon(opt);
  throw std::invalid_argument("--transport: sim|udp");
} catch (const std::exception& e) {
  std::fprintf(stderr, "byzcastd: %s\n", e.what());
  return 1;
}
