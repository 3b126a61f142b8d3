// DES workloads: des_sparse_2k and des_load_300.
//
// Driven through sim::Network, Network::broadcast_from and
// Simulator::run_until only. A run covers several traffic scenarios on
// the workload's fixed network and repeats the first one, which must
// give a byte-identical stats::snapshot(). Sim-time figures pool the
// distinct scenarios; wall and CPU figures pool every repeat. A traced
// run makes one untraced and one traced repeat of the first scenario,
// requires identical snapshots, and reads the obs::Profiler totals of
// the traced one.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>

#include "des/rng.h"
#include "generator.h"
#include "obs/profiler.h"
#include "sim/network_builder.h"
#include "stats.h"
#include "stats/metrics.h"
#include "workloads.h"

namespace byzbench {
namespace {

using byzcast::NodeId;
namespace des = byzcast::des;
namespace obs = byzcast::obs;
namespace sim = byzcast::sim;
namespace stats = byzcast::stats;

constexpr double kSliceS = 0.5;       ///< run_until step between gauge reads
constexpr std::size_t kMinSetups = 7;  ///< setup_s is a median of at least this many
constexpr std::size_t kMaxScenarios = 40;

struct DesSpec {
  /// The network under test. Its seed (placement, roles, crash victims,
  /// every protocol random stream) is part of the workload and fixed;
  /// --seed varies only the traffic offered to it.
  sim::ScenarioConfig config;
  GeneratorSpec gen;
  /// Typical wall seconds of one scenario on a 4-core Release host; a run
  /// of --seconds S covers about S / nominal_rep_s scenarios.
  double nominal_rep_s = 1;
  double drain_s = 12;
  /// Correct non-origin nodes crashed during the measured phase: node k
  /// goes down at crash_at_s + k * crash_stagger_s and comes back down_s
  /// later.
  std::size_t crashes = 0;
  double crash_at_s = 0;
  double crash_stagger_s = 0;
  double down_s = 0;
};

DesSpec des_spec(const std::string& workload) {
  DesSpec s;
  sim::ScenarioConfig& c = s.config;
  c.seed = 1;  // the ROADMAP baseline network (byzsim's default seed)
  if (workload == "des_sparse_2k") {
    // The ROADMAP baseline: sparse, static, one origin, no faults.
    c.n = 2000;
    c.area = {3000, 3000};
    c.tx_range = 120;
    c.senders = 1;
    s.gen.poisson = false;
    s.gen.rate_per_s = 2;     // one broadcast every 500 ms
    s.gen.duration_s = 25;    // 50 broadcasts
    s.gen.origins = 1;
    s.gen.sizes = {{256, 1.0}};
    s.drain_s = 12;
    s.nominal_rep_s = 7.5;
    return s;
  }
  if (workload == "des_load_300") {
    // Sustained open-loop load with Byzantine nodes, ingress loss and
    // crash-recovery under range-sync.
    c.n = 300;
    c.area = {1000, 1000};
    c.tx_range = 120;
    c.senders = 16;
    c.adversaries = {{byzcast::byz::AdversaryKind::kMute, 12},
                     {byzcast::byz::AdversaryKind::kForger, 3}};
    c.impairment.link.drop = 0.05;
    c.protocol_config.sync.enabled = true;
    s.gen.poisson = true;
    s.gen.rate_per_s = 4;
    s.gen.duration_s = 30;
    s.gen.origins = 16;
    s.gen.sizes = {{64, 0.50}, {512, 0.35}, {1400, 0.15}};
    s.drain_s = 20;
    s.crashes = 4;
    s.crash_at_s = 6;
    s.crash_stagger_s = 2;
    s.down_s = 8;
    s.nominal_rep_s = 2.5;
    return s;
  }
  throw std::invalid_argument("unknown DES workload " + workload);
}

/// Everything one repeat measured.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::string snapshot;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t missed_by_recovered = 0;  ///< undelivered pairs at crash victims
  std::size_t broadcasts = 0;
  std::vector<double> latency_ms;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t packet_bytes = 0;
  std::uint64_t kind_packets[stats::kMsgKindCount] = {};
  std::uint64_t kind_bytes[stats::kMsgKindCount] = {};
  std::uint64_t recovery_packets = 0;
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_collided = 0;
  std::uint64_t store_max = 0;
  std::uint64_t mute_suspects = 0;
  std::uint64_t false_suspicions = 0;
  double catchup_p50_s = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t catchups_completed = 0;
  obs::Profiler::CategoryStats prof[obs::kProfileCategoryCount] = {};
};

/// One scenario: the workload's network and crash schedule, and the
/// traffic drawn from one seed.
struct Inputs {
  sim::ScenarioConfig config;
  std::vector<Arrival> arrivals;
  std::set<NodeId> crash_victims;
};

/// The workload's crash victims: correct nodes that originate nothing,
/// drawn from the network seed. Like the roles they are part of the
/// network, not of the traffic; which node crashes (an overlay hub or a
/// leaf) moves recovery more than any traffic seed does.
std::vector<NodeId> crash_victims(const DesSpec& spec) {
  if (spec.crashes == 0) return {};
  sim::Network probe(spec.config);  // roles come from the network seed
  std::vector<NodeId> pool;
  const auto& senders = probe.senders();
  for (NodeId id : probe.correct_nodes()) {
    if (std::find(senders.begin(), senders.end(), id) == senders.end()) {
      pool.push_back(id);
    }
  }
  des::Rng rng(spec.config.seed ^ 0x6372617368ULL);  // "crash"
  std::vector<NodeId> victims;
  for (std::size_t k = 0; k < spec.crashes && !pool.empty(); ++k) {
    std::size_t pick = rng.next_below(pool.size());
    victims.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return victims;
}

Inputs make_inputs(const DesSpec& spec, std::uint64_t seed,
                   const std::vector<NodeId>& victims) {
  Inputs in;
  in.config = spec.config;
  in.arrivals = generate_arrivals(spec.gen, seed);
  const des::SimTime t0 = in.config.warmup;
  for (std::size_t k = 0; k < victims.size(); ++k) {
    in.crash_victims.insert(victims[k]);
    double down_at = spec.crash_at_s + spec.crash_stagger_s * static_cast<double>(k);
    sim::FaultEvent crash;
    crash.at = t0 + des::from_seconds(down_at);
    crash.kind = sim::FaultKind::kCrashStop;
    crash.node = victims[k];
    sim::FaultEvent recover = crash;
    recover.at = t0 + des::from_seconds(down_at + spec.down_s);
    recover.kind = sim::FaultKind::kCrashRecover;
    in.config.fault_schedule.events.push_back(crash);
    in.config.fault_schedule.events.push_back(recover);
  }
  return in;
}

/// Builds the network and runs the overlay warm-up; returns setup seconds.
double build(const sim::ScenarioConfig& config,
             std::unique_ptr<sim::Network>& net) {
  double t0 = wall_now_s();
  net = std::make_unique<sim::Network>(config);
  net->simulator().run_until(config.warmup);
  return wall_now_s() - t0;
}

Rep run_rep(const DesSpec& spec, const Inputs& in, bool traced) {
  Rep rep;
  std::unique_ptr<sim::Network> net;
  rep.setup_s = build(in.config, net);
  des::Simulator& simr = net->simulator();
  const std::vector<NodeId> senders = net->senders();
  for (NodeId v : in.crash_victims) {
    check(net->kind_of(v) == byzcast::byz::AdversaryKind::kNone,
          "crash victim is not a correct node");
  }

  const des::SimTime start = simr.now();
  double last_due = 0;
  for (const Arrival& a : in.arrivals) {
    NodeId origin = senders.at(a.origin % senders.size());
    const std::vector<std::uint8_t>* payload = &a.payload;
    sim::Network* netp = net.get();
    simr.schedule_at(start + des::from_seconds(a.due_s),
                     [netp, origin, payload] { netp->broadcast_from(origin, *payload); });
    last_due = std::max(last_due, a.due_s);
  }
  des::SimTime end = start + des::from_seconds(last_due + spec.drain_s);
  end = std::max(end, in.config.fault_schedule.end_time() +
                          des::from_seconds(spec.drain_s));

  const stats::Metrics& m = net->metrics();
  const std::uint64_t events0 = simr.events_executed();
  const std::uint64_t packets0 = m.total_packets();
  const std::uint64_t bytes0 = m.total_packet_bytes();
  const std::uint64_t recovery0 = m.recovery_packets();
  const std::uint64_t offered0 = m.frames_offered();
  const std::uint64_t fdelivered0 = m.frames_delivered();
  const std::uint64_t collided0 = m.frames_collided();
  std::uint64_t kind0[stats::kMsgKindCount];
  std::uint64_t kbytes0[stats::kMsgKindCount];
  for (std::size_t k = 0; k < stats::kMsgKindCount; ++k) {
    kind0[k] = m.packets(static_cast<stats::MsgKind>(k));
    kbytes0[k] = m.packet_bytes(static_cast<stats::MsgKind>(k));
  }
  std::uint64_t mute0 = 0;
  const auto& correct = net->correct_nodes();
  for (NodeId id : correct) {
    mute0 += net->byzcast_node(id)->trust().suspicion_events(
        byzcast::fd::SuspicionReason::kMute);
  }

  std::set<NodeId> wrongly_suspected;
  auto read_gauges = [&] {
    for (NodeId id : correct) {
      const byzcast::core::ByzcastNode* node = net->byzcast_node(id);
      rep.store_max = std::max<std::uint64_t>(rep.store_max, node->store().size());
    }
    for (NodeId id : correct) {
      if (!net->node_running(id)) continue;
      for (NodeId s : net->byzcast_node(id)->trust().untrusted()) {
        if (net->kind_of(s) == byzcast::byz::AdversaryKind::kNone &&
            in.crash_victims.count(s) == 0) {
          wrongly_suspected.insert(s);
        }
      }
    }
  };

  if (traced) {
    obs::Profiler::reset();
    obs::Profiler::set_enabled(true);
  }
  const double cpu0 = cpu_now_s();
  const double wall0 = wall_now_s();
  for (des::SimTime t = start; t < end;) {
    t = std::min<des::SimTime>(end, t + des::from_seconds(kSliceS));
    simr.run_until(t);
    if (traced) read_gauges();
  }
  rep.wall_s = wall_now_s() - wall0;
  rep.cpu_s = cpu_now_s() - cpu0;
  if (traced) {
    obs::Profiler::set_enabled(false);
    for (std::size_t k = 0; k < obs::kProfileCategoryCount; ++k) {
      rep.prof[k] = obs::Profiler::stats(static_cast<obs::ProfileCategory>(k));
    }
  }

  rep.snapshot = stats::snapshot(m);
  for (const auto& [key, rec] : m.records()) {
    rep.expected += rec.targets;
    rep.delivered += rec.accepted.size();
    for (NodeId v : in.crash_victims) {
      rep.missed_by_recovered += v != key.origin && rec.accepted.count(v) == 0;
    }
    for (const auto& [node, at] : rec.accepted) {
      rep.latency_ms.push_back(static_cast<double>(at - rec.sent_at) / 1e3);
    }
  }
  check(m.duplicate_accepts() == 0, "duplicate accepts (Validity)");
  check(m.unknown_accepts() == 0, "accepts of unknown ids (Validity)");
  check(m.broadcasts() == in.arrivals.size(),
        "broadcast count differs from the generated arrivals");
  rep.broadcasts = m.broadcasts();
  check(rep.delivered <= rep.expected, "more deliveries than targets");

  rep.events = simr.events_executed() - events0;
  rep.packets = m.total_packets() - packets0;
  rep.packet_bytes = m.total_packet_bytes() - bytes0;
  rep.recovery_packets = m.recovery_packets() - recovery0;
  rep.frames_offered = m.frames_offered() - offered0;
  rep.frames_delivered = m.frames_delivered() - fdelivered0;
  rep.frames_collided = m.frames_collided() - collided0;
  for (std::size_t k = 0; k < stats::kMsgKindCount; ++k) {
    rep.kind_packets[k] = m.packets(static_cast<stats::MsgKind>(k)) - kind0[k];
    rep.kind_bytes[k] = m.packet_bytes(static_cast<stats::MsgKind>(k)) - kbytes0[k];
  }
  std::uint64_t mute1 = 0;
  for (NodeId id : correct) {
    mute1 += net->byzcast_node(id)->trust().suspicion_events(
        byzcast::fd::SuspicionReason::kMute);
  }
  rep.mute_suspects = mute1 - mute0;
  rep.false_suspicions = wrongly_suspected.size();
  rep.catchup_p50_s = m.catchup_latency().percentile(0.5);
  rep.recoveries = m.recoveries_returned();
  rep.catchups_completed = m.recoveries_completed();
  return rep;
}

std::uint64_t prof_ns(const Rep& r, obs::ProfileCategory c) {
  return r.prof[static_cast<std::size_t>(c)].total_ns;
}
std::uint64_t prof_calls(const Rep& r, obs::ProfileCategory c) {
  return r.prof[static_cast<std::size_t>(c)].count;
}

/// Seed of scenario `k` of a run seeded with `seed`.
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t k) {
  des::Rng rng(seed);
  std::uint64_t out = rng.next_u64();
  for (std::size_t i = 0; i < k; ++i) out = rng.next_u64();
  return out;
}

}  // namespace

void run_des_workload(const RunOptions& opt, Report& report, std::string& log) {
  const DesSpec spec = des_spec(opt.workload);

  // A run covers a fixed number of traffic scenarios on the workload's
  // network, set by --seconds alone so that sim-time figures never depend
  // on how fast the host is, then repeats the first scenario to check
  // that the repeat is byte-identical.
  const std::vector<NodeId> victims = crash_victims(spec);
  std::vector<Rep> reps;
  std::size_t scenarios = 1;
  if (opt.trace) {
    const Inputs in = make_inputs(spec, scenario_seed(opt.seed, 0), victims);
    reps.push_back(run_rep(spec, in, false));
    reps.push_back(run_rep(spec, in, true));
    check(reps[0].snapshot == reps[1].snapshot,
          "traced run's stats snapshot differs from the untraced run's");
  } else {
    scenarios = static_cast<std::size_t>(
        std::max(1.0, std::round(opt.seconds / spec.nominal_rep_s) - 1));
    scenarios = std::min(scenarios, kMaxScenarios);
    Inputs first;
    for (std::size_t k = 0; k < scenarios; ++k) {
      Inputs in = make_inputs(spec, scenario_seed(opt.seed, k), victims);
      reps.push_back(run_rep(spec, in, false));
      if (k == 0) first = std::move(in);
    }
    Rep again = run_rep(spec, first, false);
    check(again.snapshot == reps[0].snapshot,
          "two untraced repeats gave different stats snapshots");
    reps.push_back(std::move(again));
  }

  // Sim-time figures pool the distinct scenarios (all but the repeat).
  const std::size_t distinct = opt.trace ? 1 : reps.size() - 1;
  std::uint64_t expected = 0, delivered_n = 0, missed = 0, packets = 0, bytes = 0;
  std::size_t broadcasts = 0;
  std::vector<double> lat;
  for (std::size_t k = 0; k < distinct; ++k) {
    const Rep& x = reps[k];
    expected += x.expected;
    delivered_n += x.delivered;
    missed += x.missed_by_recovered;
    packets += x.packets;
    bytes += x.packet_bytes;
    lat.insert(lat.end(), x.latency_ms.begin(), x.latency_ms.end());
    broadcasts += x.broadcasts;
  }
  check(delivered_n > 0, "nothing was delivered");
  const double delivered = static_cast<double>(delivered_n);
  report.attempted = expected;
  report.failed = expected - delivered_n;
  append(log, "undelivered pairs: %.0f, of which %.0f at crash-recovered nodes\n",
         static_cast<double>(report.failed), static_cast<double>(missed));
  const std::size_t samples = lat.size();

  if (!opt.trace) {
    std::vector<double> setups;
    double wall = 0, cpu = 0, all_delivered = 0;
    for (const Rep& x : reps) {
      setups.push_back(x.setup_s);
      wall += x.wall_s;
      cpu += x.cpu_s;
      all_delivered += static_cast<double>(x.delivered);
    }
    // setup_s is a median over at least kMinSetups constructions.
    const Inputs in0 = make_inputs(spec, scenario_seed(opt.seed, 0), victims);
    while (setups.size() < kMinSetups) {
      std::unique_ptr<sim::Network> net;
      setups.push_back(build(in0.config, net));
    }
    report.set("setup_s", median(setups));
    report.set("deliveries_per_s", all_delivered / wall);
    report.set("cpu_us_per_delivery", cpu * 1e6 / all_delivered);
    report.set("delivery_ratio", delivered / static_cast<double>(expected));
    // The pairs of one broadcast share its fate (a lost first hop delays
    // them all), so the sample-count rule counts broadcasts.
    check(percentile_supported(kTailQ, broadcasts),
          "too few broadcasts to support the p90 tail");
    report.set("delivery_p50_ms", percentile(lat, 0.5));
    report.set("delivery_p90_ms", percentile(lat, kTailQ));
    log += "latency_ms quantiles:";
    for (double q : {0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99}) {
      append(log, " p%.0f=%.1f", q * 100, percentile(lat, q));
    }
    log += "\n";
    report.set("packets_per_delivery", static_cast<double>(packets) / delivered);
    report.set("bytes_per_delivery", static_cast<double>(bytes) / delivered);
    report.set("peak_rss_mb", peak_rss_mb());
    log += "per-repeat cpu_us_per_delivery:";
    for (const Rep& x : reps) {
      append(log, " %.2f", x.cpu_s * 1e6 / static_cast<double>(x.delivered));
    }
    log += "\nper-repeat deliveries_per_s:";
    for (const Rep& x : reps) {
      append(log, " %.0f", static_cast<double>(x.delivered) / x.wall_s);
    }
    log += "\n";
    append(log, "scenarios=%.0f repeats=%.0f setups=%.0f\n",
           static_cast<double>(scenarios), static_cast<double>(reps.size()),
           static_cast<double>(setups.size()));
    append(log, "latency_samples=%.0f over %.0f broadcasts (p50 and p90 are exact over these)\n",
           static_cast<double>(samples), static_cast<double>(broadcasts));
    return;
  }

  const Rep& r = reps.back();
  using PC = obs::ProfileCategory;
  const double wall_ms = r.wall_s * 1e3;
  const double dispatch = static_cast<double>(prof_ns(r, PC::kEventDispatch)) * 1e-6;
  const double fanout = static_cast<double>(prof_ns(r, PC::kMediumFanout)) * 1e-6;
  const double parse = static_cast<double>(prof_ns(r, PC::kParse)) * 1e-6;
  const double serialize = static_cast<double>(prof_ns(r, PC::kSerialize)) * 1e-6;
  const double verify = static_cast<double>(prof_ns(r, PC::kSignatureVerify)) * 1e-6;
  const double sign = static_cast<double>(prof_ns(r, PC::kSignatureSign)) * 1e-6;
  const double des_self = wall_ms - dispatch;
  const double core_self = dispatch - fanout - parse - serialize - verify - sign;

  report.set("des.events", static_cast<double>(r.events));
  report.set("des.events_per_s", static_cast<double>(r.events) / r.wall_s);
  report.set("des.dispatch_ms", dispatch);
  report.set("des.self_ms", des_self);
  report.set("radio.fanout_calls", static_cast<double>(prof_calls(r, PC::kMediumFanout)));
  report.set("radio.fanout_ms", fanout);
  report.set("radio.frames_offered", static_cast<double>(r.frames_offered));
  report.set("radio.frames_delivered", static_cast<double>(r.frames_delivered));
  report.set("radio.frames_collided", static_cast<double>(r.frames_collided));
  report.set("radio.delivered_ratio",
             r.frames_offered == 0 ? 0
                                   : static_cast<double>(r.frames_delivered) /
                                         static_cast<double>(r.frames_offered));
  report.set("codec.parse_calls", static_cast<double>(prof_calls(r, PC::kParse)));
  report.set("codec.parse_ms", parse);
  report.set("codec.serialize_calls", static_cast<double>(prof_calls(r, PC::kSerialize)));
  report.set("codec.serialize_ms", serialize);
  report.set("crypto.verify_calls", static_cast<double>(prof_calls(r, PC::kSignatureVerify)));
  report.set("crypto.verify_ms", verify);
  report.set("crypto.sign_calls", static_cast<double>(prof_calls(r, PC::kSignatureSign)));
  report.set("crypto.sign_ms", sign);
  report.set("crypto.verifies_per_delivery",
             static_cast<double>(prof_calls(r, PC::kSignatureVerify)) / delivered);
  report.set("core.self_ms", core_self);
  report.set("core.self_share", core_self / wall_ms);
  report.set("core.rx_calls", 0);
  report.set("core.rx_ms", 0);
  report.set("core.timer_calls", 0);
  report.set("core.timer_ms", 0);
  using MK = stats::MsgKind;
  auto kind = [&](MK k) {
    return static_cast<double>(r.kind_packets[static_cast<std::size_t>(k)]);
  };
  auto kind_bytes = [&](MK k) {
    return static_cast<double>(r.kind_bytes[static_cast<std::size_t>(k)]);
  };
  report.set("core.packets.DATA", kind(MK::kData));
  report.set("core.packets.GOSSIP", kind(MK::kGossip));
  report.set("core.packets.REQUEST_MSG", kind(MK::kRequestMsg));
  report.set("core.packets.FIND_MISSING_MSG", kind(MK::kFindMissingMsg));
  report.set("core.packets.HELLO", kind(MK::kHello));
  report.set("core.recovery_per_delivery",
             static_cast<double>(r.recovery_packets) / delivered);
  report.set("core.store_max", static_cast<double>(r.store_max));
  report.set("core.latency_samples", static_cast<double>(samples));
  report.set("core.broadcasts", static_cast<double>(broadcasts));
  report.set("core.delivery_p99_ms", percentile(lat, 0.99));
  report.set("fd.mute_suspects", static_cast<double>(r.mute_suspects));
  report.set("fd.false_suspicions", static_cast<double>(r.false_suspicions));
  report.set("sync.recovery_bytes",
             kind_bytes(MK::kFrontier) + kind_bytes(MK::kBulkPull) + kind_bytes(MK::kBulkReply));
  report.set("sync.recovery_packets",
             kind(MK::kFrontier) + kind(MK::kBulkPull) + kind(MK::kBulkReply));
  report.set("sync.recoveries", static_cast<double>(r.recoveries));
  report.set("sync.catchups_completed", static_cast<double>(r.catchups_completed));
  report.set("sync.catchup_p50_s", r.catchup_p50_s);
  for (const char* name :
       {"net.send_calls", "net.send_ms", "net.datagrams_received",
        "net.datagrams_rejected", "net.send_errors", "net.send_retries",
        "net.send_drops", "net.idle_ms", "net.loop_self_ms", "net.busy_ratio",
        "generator.late_p99_ms"}) {
    report.set(name, 0);
  }
  report.set("trace.overhead_ratio", reps[1].cpu_s / reps[0].cpu_s);
  report.set("account.wall_ms", wall_ms);

  log += "layer account of the measured phase (ms; parts sum to wall):\n";
  append(log, "  des.self     %12.1f   (kernel: queue, run_until, gauge reads)\n", des_self);
  append(log, "  radio.fanout %12.1f\n", fanout);
  append(log, "  codec        %12.1f   (parse %.1f + serialize %.1f)\n",
         parse + serialize, parse, serialize);
  append(log, "  crypto       %12.1f   (verify %.1f + sign %.1f)\n", verify + sign,
         verify, sign);
  append(log, "  core.self    %12.1f   (residual: handlers, store, fd, overlay, timers; %.1f%% of wall)\n",
         core_self, 100 * core_self / wall_ms);
  append(log, "  = wall       %12.1f\n", wall_ms);
}

std::string des_params(const std::string& workload) {
  const DesSpec s = des_spec(workload);
  char line[320];
  std::snprintf(line, sizeof line,
                "n=%zu area=%.0fx%.0f range=%.0f origins=%u rate=%.1f/s %s "
                "duration=%.0fs drain=%.0fs byzantine=%zu drop=%.2f crashes=%zu "
                "sync=%d",
                s.config.n, s.config.area.width, s.config.area.height,
                s.config.tx_range, s.gen.origins, s.gen.rate_per_s,
                s.gen.poisson ? "poisson" : "periodic", s.gen.duration_s,
                s.drain_s, s.config.byzantine_count(),
                s.config.impairment.link.drop, s.crashes,
                s.config.protocol_config.sync.enabled ? 1 : 0);
  return line;
}

}  // namespace byzbench
