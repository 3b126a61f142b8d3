// Live workload: live_mesh_16.
//
// One process, one thread, one net::IoLoop holding 16 core::ByzcastNodes,
// each on its own net::UdpTransport bound to 127.0.0.1, in a full mesh.
// Traffic crosses real sendto/recvfrom, the BZC1 datagram codec and
// wall-clock timers. Latency runs from each broadcast's due time to the
// accept, so a stalled loop is charged for the wait it imposes.
//
// A traced repeat interposes two benchmark-side decorators: TimingEnv
// times every action the nodes schedule, TimingTransport times send()
// and the receive handler. Untraced repeats run the nodes directly on
// the IoLoop and the UdpTransports.
#include "live_workload.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/byzcast_node.h"
#include "crypto/signature.h"
#include "generator.h"
#include "obs/profiler.h"
#include "stats.h"
#include "stats/metrics.h"
#include "workloads.h"

namespace byzbench {

namespace net = byzcast::net;

std::uint16_t default_port_base(std::uint64_t seed, int attempt) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(::getpid()) << 20) ^
                    (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt + 1));
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  // Bases 20000..59968 in steps of 32: room for a 16-node block.
  return static_cast<std::uint16_t>(20000 + (x % 1250) * 32);
}

std::vector<std::unique_ptr<net::UdpTransport>> bind_fleet(
    net::IoLoop& loop, std::size_t n,
    const std::function<std::uint16_t(int)>& candidate_base, int max_attempts,
    int* attempts_used) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const std::uint16_t base = candidate_base(attempt);
    if (base == 0 || std::size_t{base} + n > 65536) continue;
    std::vector<net::UdpPeer> peers;
    for (std::size_t i = 0; i < n; ++i) {
      peers.push_back(net::UdpPeer{static_cast<byzcast::NodeId>(i), "127.0.0.1",
                                   static_cast<std::uint16_t>(base + i)});
    }
    std::vector<std::unique_ptr<net::UdpTransport>> fleet;
    try {
      for (std::size_t i = 0; i < n; ++i) {
        fleet.push_back(std::make_unique<net::UdpTransport>(
            loop, static_cast<byzcast::NodeId>(i), "127.0.0.1",
            static_cast<std::uint16_t>(base + i), peers));
      }
    } catch (const std::runtime_error&) {
      continue;  // a port of this block is taken: destroy and re-bind
    }
    if (attempts_used != nullptr) *attempts_used = attempt + 1;
    return fleet;
  }
  throw std::runtime_error("bind_fleet: no free block of UDP ports");
}

namespace {

using byzcast::NodeId;
namespace core = byzcast::core;
namespace crypto = byzcast::crypto;
namespace des = byzcast::des;
namespace obs = byzcast::obs;
namespace stats = byzcast::stats;

/// Calls and accumulated wall time of one timed boundary.
struct Span {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  [[nodiscard]] double ms() const { return static_cast<double>(ns) * 1e-6; }
};

/// Adds the lifetime of the stopwatch to `span`.
class Stopwatch {
 public:
  explicit Stopwatch(Span& span)
      : span_(span), start_(std::chrono::steady_clock::now()) {}
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;
  ~Stopwatch() {
    span_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    ++span_.calls;
  }

 private:
  Span& span_;
  std::chrono::steady_clock::time_point start_;
};

constexpr std::size_t kNodes = 16;
constexpr double kRepArrivalsS = 2.5;   ///< arrival window of one repeat
constexpr double kDrainMaxS = 5;        ///< give up on deliveries after this
constexpr double kSetupMaxS = 10;       ///< give up on warm-up after this
constexpr double kNominalRepS = 3.7;    ///< setup + arrivals + drain, typical
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxReps = 20;
constexpr int kBindAttempts = 16;

GeneratorSpec live_gen() {
  GeneratorSpec g;
  g.poisson = true;
  g.rate_per_s = 200;
  g.duration_s = kRepArrivalsS;
  g.origins = 4;
  g.sizes = {{64, 0.50}, {512, 0.35}, {1400, 0.15}};
  return g;
}

/// Times every action scheduled through it (core.timer).
class TimingEnv final : public net::Env {
 public:
  TimingEnv(net::Env& inner, Span& timers) : inner_(inner), timers_(timers) {}

  [[nodiscard]] des::SimTime now() const override { return inner_.now(); }
  net::TimerId schedule_after(des::SimDuration delay,
                              std::function<void()> action) override {
    return inner_.schedule_after(
        delay, [this, action = std::move(action)] {
          Stopwatch sw(timers_);
          action();
        });
  }
  bool cancel(net::TimerId id) override { return inner_.cancel(id); }
  des::Rng split_rng() override { return inner_.split_rng(); }

 private:
  net::Env& inner_;
  Span& timers_;
};

/// Times send() (net.send) and the receive handler (core.rx).
class TimingTransport final : public net::Transport {
 public:
  TimingTransport(net::Transport& inner, Span& sends, Span& receives)
      : inner_(inner), sends_(sends), receives_(receives) {}

  void send(byzcast::util::Buffer payload) override {
    Stopwatch sw(sends_);
    inner_.send(std::move(payload));
  }
  void set_receive_handler(ReceiveHandler handler) override {
    inner_.set_receive_handler(
        [this, handler = std::move(handler)](const byzcast::radio::Frame& f) {
          Stopwatch sw(receives_);
          handler(f);
        });
  }
  [[nodiscard]] NodeId local_id() const override { return inner_.local_id(); }

 private:
  net::Transport& inner_;
  Span& sends_;
  Span& receives_;
};

struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::size_t broadcasts = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::uint64_t packets = 0;
  std::uint64_t packet_bytes = 0;
  std::uint64_t kind_packets[stats::kMsgKindCount] = {};
  std::uint64_t recovery_packets = 0;
  std::uint64_t received = 0, rejected = 0;
  std::uint64_t send_errors = 0, send_retries = 0, send_drops = 0;
  std::uint64_t store_max = 0;
  std::uint64_t mute_suspects = 0;
  std::uint64_t false_suspicions = 0;
  Span timers, sends, receives;
  obs::Profiler::CategoryStats prof[obs::kProfileCategoryCount] = {};
};

/// One live fleet: loop, sockets, optional timing decorators, nodes.
/// Members are destroyed in reverse order, nodes first.
struct Fleet {
  Fleet(std::uint64_t seed, int rep, bool traced, Rep& out)
      : loop(seed * 1000003ULL + static_cast<std::uint64_t>(rep)),
        pki(des::Rng(seed)) {
    udp = bind_fleet(
        loop, kNodes,
        [seed, rep](int attempt) {
          return default_port_base(seed + static_cast<std::uint64_t>(rep) * 7919,
                                   attempt);
        },
        kBindAttempts, nullptr);
    if (traced) env.emplace(loop, out.timers);
    for (std::size_t i = 0; i < kNodes; ++i) {
      crypto::Signer signer = pki.register_node(static_cast<NodeId>(i));
      net::Transport* path = udp[i].get();
      if (traced) {
        timed.push_back(
            std::make_unique<TimingTransport>(*udp[i], out.sends, out.receives));
        path = timed.back().get();
      }
      net::Env& e = traced ? static_cast<net::Env&>(*env) : loop;
      nodes.push_back(std::make_unique<core::ByzcastNode>(
          e, *path, pki, signer, core::ProtocolConfig{}, &metrics));
      nodes.back()->set_expected_targets(kNodes - 1);
    }
  }

  [[nodiscard]] bool warmed_up() const {
    for (const auto& node : nodes) {
      if (node->neighbor_table().entries().size() < kNodes - 1) return false;
    }
    return true;
  }

  net::IoLoop loop;
  crypto::Pki pki;
  stats::Metrics metrics;
  std::vector<std::unique_ptr<net::UdpTransport>> udp;
  std::optional<TimingEnv> env;
  std::vector<std::unique_ptr<TimingTransport>> timed;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes;
};

/// Builds a fleet and runs it until every neighbour table holds the
/// other 15 nodes. Returns setup seconds.
double set_up(std::unique_ptr<Fleet>& fleet, std::uint64_t seed, int rep,
              bool traced, Rep& out) {
  const double t0 = wall_now_s();
  fleet = std::make_unique<Fleet>(seed, rep, traced, out);
  for (auto& node : fleet->nodes) node->start();
  Fleet* f = fleet.get();
  net::TimerId pending = 0;
  std::function<void()> poll = [f, &poll, &pending] {
    pending = 0;
    if (f->warmed_up()) {
      f->loop.stop();
    } else {
      pending = f->loop.schedule_after(des::micros(500), poll);
    }
  };
  pending = f->loop.schedule_after(0, poll);
  f->loop.run_for(des::from_seconds(kSetupMaxS));
  if (pending != 0) f->loop.cancel(pending);  // `poll` dies with this frame
  check(f->warmed_up(), "live fleet did not fill its neighbour tables");
  return wall_now_s() - t0;
}

Rep run_rep(const std::vector<Arrival>& arrivals, std::uint64_t seed, int rep_no,
            bool traced) {
  Rep rep;
  std::unique_ptr<Fleet> fleet;
  rep.setup_s = set_up(fleet, seed, rep_no, traced, rep);
  Fleet& f = *fleet;
  // Warm-up time spent in the decorators is not part of the measured phase.
  rep.timers = rep.sends = rep.receives = Span{};

  const stats::Metrics& m = f.metrics;
  const std::uint64_t packets0 = m.total_packets();
  const std::uint64_t bytes0 = m.total_packet_bytes();
  const std::uint64_t recovery0 = m.recovery_packets();
  std::uint64_t kind0[stats::kMsgKindCount];
  for (std::size_t k = 0; k < stats::kMsgKindCount; ++k) {
    kind0[k] = m.packets(static_cast<stats::MsgKind>(k));
  }
  // Transport and FD counters are cumulative; the measured phase's share
  // is end minus start.
  auto counters = [&f] {
    std::array<std::uint64_t, 6> c{};
    for (std::size_t i = 0; i < kNodes; ++i) {
      const net::UdpTransport& t = *f.udp[i];
      c[0] += t.datagrams_received();
      c[1] += t.datagrams_rejected();
      c[2] += t.send_errors();
      c[3] += t.send_retries();
      c[4] += t.send_drops();
      c[5] += f.nodes[i]->trust().suspicion_events(
          byzcast::fd::SuspicionReason::kMute);
    }
    return c;
  };
  const std::array<std::uint64_t, 6> counters0 = counters();

  // (origin, seq) -> arrival index, filled as broadcasts happen.
  std::map<std::pair<NodeId, std::uint32_t>, std::size_t> sent;
  std::vector<std::set<std::pair<NodeId, std::uint32_t>>> accepted(kNodes);
  std::vector<des::SimTime> due(arrivals.size());
  std::size_t issued = 0;
  std::uint64_t unknown = 0, duplicate = 0, mismatched = 0;
  rep.expected = arrivals.size() * (kNodes - 1);
  rep.broadcasts = arrivals.size();

  for (std::size_t i = 0; i < kNodes; ++i) {
    f.nodes[i]->set_accept_handler(
        [&, i](const core::MessageId& id, std::span<const std::uint8_t> payload) {
          auto key = std::make_pair(id.origin, id.seq);
          auto it = sent.find(key);
          if (it == sent.end()) {
            ++unknown;
            return;
          }
          if (!accepted[i].insert(key).second) {
            ++duplicate;
            return;
          }
          const std::vector<std::uint8_t>& want = arrivals[it->second].payload;
          if (payload.size() != want.size() ||
              !std::equal(payload.begin(), payload.end(), want.begin())) {
            ++mismatched;
          }
          rep.latency_ms.push_back(
              static_cast<double>(f.loop.now() - due[it->second]) / 1e3);
          if (++rep.delivered == rep.expected && issued == arrivals.size()) {
            f.loop.stop();
          }
        });
  }

  if (traced) {
    obs::Profiler::reset();
    obs::Profiler::set_enabled(true);
  }
  const double cpu0 = cpu_now_s();
  const double wall0 = wall_now_s();
  const des::SimTime start = f.loop.now() + des::millis(5);
  net::Env& env = traced ? static_cast<net::Env&>(*f.env) : f.loop;
  double last_due = 0;
  for (std::size_t a = 0; a < arrivals.size(); ++a) {
    due[a] = start + des::from_seconds(arrivals[a].due_s);
    last_due = std::max(last_due, arrivals[a].due_s);
    const std::uint32_t origin = arrivals[a].origin % kNodes;
    const des::SimTime now = f.loop.now();
    env.schedule_after(due[a] > now ? due[a] - now : 0, [&, a, origin] {
      rep.late_ms.push_back(static_cast<double>(f.loop.now() - due[a]) / 1e3);
      core::ByzcastNode& node = *f.nodes[origin];
      sent[{node.id(), node.next_seq()}] = a;
      node.broadcast(arrivals[a].payload);
      ++issued;
    });
  }
  f.loop.run_for(start - f.loop.now() + des::from_seconds(last_due + kDrainMaxS));
  rep.wall_s = wall_now_s() - wall0;
  rep.cpu_s = cpu_now_s() - cpu0;
  if (traced) {
    obs::Profiler::set_enabled(false);
    for (std::size_t k = 0; k < obs::kProfileCategoryCount; ++k) {
      rep.prof[k] = obs::Profiler::stats(static_cast<obs::ProfileCategory>(k));
    }
  }

  check(issued == arrivals.size(), "generator did not issue every arrival");
  check(unknown == 0, "accepts of ids nobody broadcast (Validity)");
  check(duplicate == 0, "a node accepted one id twice (Validity)");
  check(mismatched == 0, "an accepted payload differs from the one broadcast");
  check(m.duplicate_accepts() == 0, "duplicate accepts in Metrics (Validity)");
  check(m.unknown_accepts() == 0, "unknown accepts in Metrics (Validity)");

  rep.packets = m.total_packets() - packets0;
  rep.packet_bytes = m.total_packet_bytes() - bytes0;
  rep.recovery_packets = m.recovery_packets() - recovery0;
  for (std::size_t k = 0; k < stats::kMsgKindCount; ++k) {
    rep.kind_packets[k] = m.packets(static_cast<stats::MsgKind>(k)) - kind0[k];
  }
  const std::array<std::uint64_t, 6> counters1 = counters();
  rep.received = counters1[0] - counters0[0];
  rep.rejected = counters1[1] - counters0[1];
  rep.send_errors = counters1[2] - counters0[2];
  rep.send_retries = counters1[3] - counters0[3];
  rep.send_drops = counters1[4] - counters0[4];
  rep.mute_suspects = counters1[5] - counters0[5];
  for (const auto& node : f.nodes) {
    rep.store_max = std::max<std::uint64_t>(rep.store_max, node->store().size());
    rep.false_suspicions += node->trust().untrusted().size();  // all are correct
  }
  return rep;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

void run_live_workload(const RunOptions& opt, Report& report, std::string& log) {
  check(opt.workload == "live_mesh_16", "unknown live workload " + opt.workload);
  // Repeat k offers its own arrivals (seeded from the run seed and k) to
  // a fresh fleet. The repeat count follows from --seconds alone.
  auto arrivals_of = [&](std::size_t k) {
    return generate_arrivals(live_gen(), opt.seed * 1000003ULL + k);
  };
  std::vector<Rep> reps;
  if (opt.trace) {
    // The first repeat of a process pays for faulting in its heap; a
    // discarded warm-up keeps that out of trace.overhead_ratio.
    const std::vector<Arrival> arrivals = arrivals_of(0);
    run_rep(arrivals, opt.seed, 2, false);
    reps.push_back(run_rep(arrivals, opt.seed, 0, false));
    reps.push_back(run_rep(arrivals, opt.seed, 1, true));
  } else {
    const auto count = static_cast<std::size_t>(
        std::max(2.0, std::round(opt.seconds / kNominalRepS)));
    for (std::size_t k = 0; k < std::min(count, kMaxReps); ++k) {
      reps.push_back(run_rep(arrivals_of(k), opt.seed, static_cast<int>(k), false));
    }
  }

  std::uint64_t expected = 0, delivered = 0, drops = 0;
  std::size_t samples = 0;
  for (const Rep& r : reps) {
    expected += r.expected;
    delivered += r.delivered;
    drops += r.send_drops;
    samples += r.latency_ms.size();
  }
  check(delivered > 0, "nothing was delivered");
  // Failed operations: undelivered (broadcast, receiver) pairs plus
  // datagram copies the transport abandoned.
  report.attempted = expected + drops;
  report.failed = (expected - delivered) + drops;

  if (!opt.trace) {
    // Per-repeat figures. Timings (latency, CPU) report the least-disturbed
    // repeat, the minimum: contention from other tenants of the host only
    // ever adds to them, and it comes and goes within a run. Counts report
    // the median: one fleet whose overlay election went badly moves none.
    std::vector<double> setups, rates, cpus, p50s, p90s, packets, bytes;
    for (Rep& r : reps) {
      check(percentile_supported(kTailQ, r.broadcasts),
            "too few broadcasts in a repeat to support the p90 tail");
      const double d = static_cast<double>(r.delivered);
      setups.push_back(r.setup_s);
      rates.push_back(d / r.wall_s);
      cpus.push_back(r.cpu_s * 1e6 / d);
      p50s.push_back(percentile(r.latency_ms, 0.5));
      p90s.push_back(percentile(r.latency_ms, kTailQ));
      packets.push_back(static_cast<double>(r.packets) / d);
      bytes.push_back(static_cast<double>(r.packet_bytes) / d);
    }
    for (int extra = 0; setups.size() < kMinSetups; ++extra) {
      Rep scratch;
      std::unique_ptr<Fleet> fleet;
      setups.push_back(set_up(fleet, opt.seed, 100 + extra, false, scratch));
    }
    report.set("setup_s", median(setups));
    report.set("deliveries_per_s", median(rates));
    report.set("cpu_us_per_delivery", *std::min_element(cpus.begin(), cpus.end()));
    report.set("delivery_ratio",
               static_cast<double>(delivered) / static_cast<double>(expected));
    report.set("delivery_p50_ms", *std::min_element(p50s.begin(), p50s.end()));
    report.set("delivery_p90_ms", *std::min_element(p90s.begin(), p90s.end()));
    report.set("packets_per_delivery", median(packets));
    report.set("bytes_per_delivery", median(bytes));
    report.set("peak_rss_mb", peak_rss_mb());
    log += "per-repeat p50_ms:";
    for (double v : p50s) append(log, " %.3f", v);
    log += "\nper-repeat p90_ms:";
    for (double v : p90s) append(log, " %.3f", v);
    log += "\nper-repeat cpu_us_per_delivery:";
    for (double v : cpus) append(log, " %.2f", v);
    log += "\n";
    append(log, "repeats=%.0f setups=%.0f\n", static_cast<double>(reps.size()),
           static_cast<double>(setups.size()));
    append(log, "latency_samples=%.0f (%.0f per repeat; p50, p90 and CPU are the minimum over repeats)\n",
           static_cast<double>(samples),
           static_cast<double>(samples) / static_cast<double>(reps.size()));
    return;
  }

  // Per-layer figures come from the traced repeat; the latency and
  // lateness tails from the untraced one, which the decorators do not slow.
  const Rep& r = reps[1];
  const Rep& plain = reps[0];
  using PC = obs::ProfileCategory;
  auto prof = [&](PC c) { return r.prof[static_cast<std::size_t>(c)]; };
  const double wall_ms = r.wall_s * 1e3;
  const double idle = std::max(0.0, (r.wall_s - r.cpu_s) * 1e3);
  const double rx = r.receives.ms(), timers = r.timers.ms(), send = r.sends.ms();
  const double parse = ms(prof(PC::kParse).total_ns);
  const double serialize = ms(prof(PC::kSerialize).total_ns);
  const double verify = ms(prof(PC::kSignatureVerify).total_ns);
  const double sign = ms(prof(PC::kSignatureSign).total_ns);
  const double core_self = rx + timers - send - parse - serialize - verify - sign;
  const double loop_self = wall_ms - idle - rx - timers;
  const double d = static_cast<double>(r.delivered);

  for (const char* name :
       {"des.events", "des.events_per_s", "des.dispatch_ms", "des.self_ms",
        "radio.fanout_calls", "radio.fanout_ms", "radio.frames_offered",
        "radio.frames_delivered", "radio.frames_collided",
        "radio.delivered_ratio", "sync.recovery_bytes", "sync.recovery_packets",
        "sync.recoveries", "sync.catchups_completed", "sync.catchup_p50_s"}) {
    report.set(name, 0);
  }
  report.set("codec.parse_calls", static_cast<double>(prof(PC::kParse).count));
  report.set("codec.parse_ms", parse);
  report.set("codec.serialize_calls", static_cast<double>(prof(PC::kSerialize).count));
  report.set("codec.serialize_ms", serialize);
  report.set("crypto.verify_calls", static_cast<double>(prof(PC::kSignatureVerify).count));
  report.set("crypto.verify_ms", verify);
  report.set("crypto.sign_calls", static_cast<double>(prof(PC::kSignatureSign).count));
  report.set("crypto.sign_ms", sign);
  report.set("crypto.verifies_per_delivery",
             static_cast<double>(prof(PC::kSignatureVerify).count) / d);
  report.set("core.self_ms", core_self);
  report.set("core.self_share", core_self / wall_ms);
  report.set("core.rx_calls", static_cast<double>(r.receives.calls));
  report.set("core.rx_ms", rx);
  report.set("core.timer_calls", static_cast<double>(r.timers.calls));
  report.set("core.timer_ms", timers);
  using MK = stats::MsgKind;
  auto kind = [&](MK k) {
    return static_cast<double>(r.kind_packets[static_cast<std::size_t>(k)]);
  };
  report.set("core.packets.DATA", kind(MK::kData));
  report.set("core.packets.GOSSIP", kind(MK::kGossip));
  report.set("core.packets.REQUEST_MSG", kind(MK::kRequestMsg));
  report.set("core.packets.FIND_MISSING_MSG", kind(MK::kFindMissingMsg));
  report.set("core.packets.HELLO", kind(MK::kHello));
  report.set("core.recovery_per_delivery", static_cast<double>(r.recovery_packets) / d);
  report.set("core.store_max", static_cast<double>(r.store_max));
  report.set("core.latency_samples", static_cast<double>(plain.latency_ms.size()));
  report.set("core.broadcasts", static_cast<double>(plain.broadcasts));
  report.set("fd.mute_suspects", static_cast<double>(r.mute_suspects));
  report.set("fd.false_suspicions", static_cast<double>(r.false_suspicions));
  report.set("net.send_calls", static_cast<double>(r.sends.calls));
  report.set("net.send_ms", send);
  report.set("net.datagrams_received", static_cast<double>(r.received));
  report.set("net.datagrams_rejected", static_cast<double>(r.rejected));
  report.set("net.send_errors", static_cast<double>(r.send_errors));
  report.set("net.send_retries", static_cast<double>(r.send_retries));
  report.set("net.send_drops", static_cast<double>(r.send_drops));
  report.set("net.idle_ms", idle);
  report.set("net.loop_self_ms", loop_self);
  report.set("net.busy_ratio", r.cpu_s / r.wall_s);
  std::vector<double> lat = plain.latency_ms;
  std::vector<double> late = plain.late_ms;
  report.set("core.delivery_p99_ms", percentile(lat, 0.99));
  report.set("generator.late_p99_ms", percentile(late, 0.99));
  report.set("trace.overhead_ratio", r.cpu_s / plain.cpu_s);
  report.set("account.wall_ms", wall_ms);

  log += "layer account of the measured phase (ms; parts sum to wall):\n";
  append(log, "  net.idle      %12.1f   (wall - process CPU: blocked in poll)\n", idle);
  append(log, "  net.loop_self %12.1f   (poll, recvfrom, BZC1 decode, retries)\n", loop_self);
  append(log, "  net.send      %12.1f   (datagram encode + sendto fan-out)\n", send);
  append(log, "  codec         %12.1f   (parse %.1f + serialize %.1f)\n",
         parse + serialize, parse, serialize);
  append(log, "  crypto        %12.1f   (verify %.1f + sign %.1f)\n", verify + sign,
         verify, sign);
  append(log, "  core.self     %12.1f   (residual: handlers, store, fd, overlay; %.1f%% of wall)\n",
         core_self, 100 * core_self / wall_ms);
  append(log, "  = wall        %12.1f\n", wall_ms);
}

std::string live_params() {
  const GeneratorSpec g = live_gen();
  char line[200];
  std::snprintf(line, sizeof line,
                "nodes=%zu full mesh over UDP 127.0.0.1, origins=%u "
                "rate=%.0f/s poisson, %.1fs arrivals per repeat, "
                "sizes 64/512/1400 B at 50/35/15%%",
                kNodes, g.origins, g.rate_per_s, g.duration_s);
  return line;
}

}  // namespace byzbench
