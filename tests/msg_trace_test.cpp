// Protocol-trace tests (obs/msg_trace.h, DESIGN.md §15): the bounded
// sampling recorder and its node-level events, the JSONL / CSV / text
// exports, clock alignment in the merger, propagation-DAG reconstruction
// (including the range-sync catch-up edge of a crash-recovered node),
// the protocol events a traced scenario emits, and the two invariants
// the whole layer stands on — trace-off runs construct nothing, and
// trace-on runs observe without perturbing the event order.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "obs/msg_trace.h"
#include "sim/runner.h"

namespace byzcast {
namespace {

using obs::MsgEventKind;

std::size_t count_kind(const std::vector<obs::MsgEvent>& events,
                       MsgEventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const obs::MsgEvent& e) { return e.kind == kind; }));
}

// ---------------------------------------------------------------------------
// Recorder: sampling and bounds
// ---------------------------------------------------------------------------

TEST(MsgTraceRecorder, RecordsLifecycleEvents) {
  obs::MsgTraceRecorder rec;
  rec.record(100, MsgEventKind::kBroadcast, 0, 0, 7);
  rec.record(250, MsgEventKind::kFirstHeard, 1, 0, 7, /*peer=*/0);
  rec.record(260, MsgEventKind::kDelivered, 1, 0, 7, /*peer=*/0);
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[1].kind, MsgEventKind::kFirstHeard);
  EXPECT_EQ(rec.events()[1].peer, 0u);
  EXPECT_EQ(rec.events()[2].at, 260u);
  EXPECT_EQ(rec.suppressed(), 0u);
}

TEST(MsgTraceRecorder, SamplingIsAFleetAgreedPureFunctionOfTheId) {
  // Whatever subset sample_every=3 selects, every node selects the SAME
  // subset — the predicate depends only on (origin, seq).
  std::size_t sampled = 0;
  for (std::uint32_t seq = 0; seq < 300; ++seq) {
    bool s = obs::msg_trace_sampled(2, seq, 3);
    EXPECT_EQ(s, obs::msg_trace_sampled(2, seq, 3));
    if (s) ++sampled;
  }
  // splitmix64 spreads ids uniformly; 300 draws at rate 1/3 land well
  // inside [60, 140].
  EXPECT_GT(sampled, 60u);
  EXPECT_LT(sampled, 140u);
  // sample_every <= 1 keeps everything.
  EXPECT_TRUE(obs::msg_trace_sampled(5, 17, 0));
  EXPECT_TRUE(obs::msg_trace_sampled(5, 17, 1));
}

TEST(MsgTraceRecorder, UnsampledIdsAreDroppedByEveryRecorder) {
  obs::MsgTraceConfig config;
  config.sample_every = 4;
  obs::MsgTraceRecorder a(config);
  obs::MsgTraceRecorder b(config);
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    a.record(seq, MsgEventKind::kBroadcast, 0, 1, seq);
    b.record(seq, MsgEventKind::kFirstHeard, 2, 1, seq, 0);
  }
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].seq, b.events()[i].seq) << "divergent sampling";
  }
  EXPECT_LT(a.events().size(), 64u);
  EXPECT_GT(a.events().size(), 0u);
}

TEST(MsgTraceRecorder, MessageAndEventCapsBound_Memory) {
  obs::MsgTraceConfig config;
  config.max_messages = 2;
  config.max_events_per_message = 3;
  obs::MsgTraceRecorder rec(config);
  // Two ids fit; the third is refused outright.
  rec.record(1, MsgEventKind::kBroadcast, 0, 0, 0);
  rec.record(2, MsgEventKind::kBroadcast, 0, 0, 1);
  rec.record(3, MsgEventKind::kBroadcast, 0, 0, 2);
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.suppressed(), 1u);
  // Per-id cap: two more events fit for id (0,0), the next is dropped.
  rec.record(4, MsgEventKind::kGossiped, 0, 0, 0);
  rec.record(5, MsgEventKind::kRequested, 1, 0, 0, 0);
  rec.record(6, MsgEventKind::kRequested, 1, 0, 0, 0);
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.suppressed(), 2u);
}

TEST(MsgTraceRecorder, NodeLevelEventsBypassSamplingAndCaps) {
  obs::MsgTraceConfig config;
  config.sample_every = 1000;
  config.max_messages = 0;
  config.max_events_per_message = 0;
  obs::MsgTraceRecorder rec(config);
  rec.record(1, MsgEventKind::kBroadcast, 0, 0, 0);  // no room for any id
  rec.record(2, MsgEventKind::kSuspect, 1, kInvalidNode, 0, /*peer=*/4,
             /*a=*/3);
  rec.record(3, MsgEventKind::kOverlayJoin, 1, kInvalidNode, 0);
  rec.record(4, MsgEventKind::kSyncDone, 2, kInvalidNode, 0, 1, 1);
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].kind, MsgEventKind::kSuspect);
  EXPECT_EQ(rec.events()[0].peer, 4u);
  EXPECT_EQ(rec.events()[0].a, 3u);
}

// ---------------------------------------------------------------------------
// Recorder: order, queries and exports of protocol events
// ---------------------------------------------------------------------------

TEST(TraceRecorder, RecordsInOrderAndCounts) {
  obs::MsgTraceRecorder rec;
  EXPECT_TRUE(rec.empty());
  rec.record(10, MsgEventKind::kBroadcast, 1, 1, 0);
  rec.record(20, MsgEventKind::kDelivered, 2, 1, 0, 1);
  rec.record(30, MsgEventKind::kDelivered, 3, 1, 0, 2);
  const auto& events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at, 10u);
  EXPECT_EQ(events[2].at, 30u);
  EXPECT_EQ(count_kind(events, MsgEventKind::kDelivered), 2u);
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const obs::MsgEvent& e) {
                            return e.kind == MsgEventKind::kDelivered &&
                                   e.node == 2;
                          }),
            1);
  EXPECT_EQ(count_kind(events, MsgEventKind::kSuspect), 0u);
}

TEST(TraceRecorder, QueriesFindEvents) {
  obs::MsgTraceRecorder rec;
  rec.record(10, MsgEventKind::kBroadcast, 1, 1, 0);
  rec.record(20, MsgEventKind::kSuspect, 2, kInvalidNode, 0, /*peer=*/9);
  rec.record(30, MsgEventKind::kSuspect, 3, kInvalidNode, 0, /*peer=*/9);
  const auto& events = rec.events();

  auto first = std::find_if(events.begin(), events.end(),
                            [](const obs::MsgEvent& e) {
                              return e.kind == MsgEventKind::kSuspect;
                            });
  ASSERT_NE(first, events.end());
  EXPECT_EQ(first->at, 20u);
  EXPECT_EQ(first->node, 2u);

  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const obs::MsgEvent& e) { return e.peer == 9; }),
            2);

  auto broadcast = std::find_if(events.begin(), events.end(),
                                [](const obs::MsgEvent& e) {
                                  return e.kind == MsgEventKind::kBroadcast;
                                });
  ASSERT_NE(broadcast, events.end());
  EXPECT_EQ(broadcast->at, 10u);
  EXPECT_EQ(count_kind(events, MsgEventKind::kOverlayJoin), 0u);
}

TEST(TraceRecorder, CsvAndJsonlExport) {
  obs::MsgTraceRecorder rec;
  rec.record(1500000, MsgEventKind::kDelivered, 4, 0, 7, /*peer=*/2);

  std::ostringstream csv;
  rec.write_csv(csv);
  EXPECT_NE(csv.str().find("t_us,kind,node,peer,origin,seq,a"),
            std::string::npos);
  EXPECT_NE(csv.str().find("1500000,delivered,4,2,0,7,0"), std::string::npos);

  std::ostringstream jsonl;
  rec.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"kind\":\"delivered\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"node\":4"), std::string::npos);

  std::ostringstream text;
  rec.write_text(text);
  EXPECT_NE(text.str().find("delivered"), std::string::npos);
  EXPECT_NE(text.str().find("1.500000s"), std::string::npos);
  EXPECT_NE(text.str().find("msg (0,7) peer 2"), std::string::npos);
}

TEST(TraceRecorder, KindNamesAreStable) {
  // The wire names of the byzcast-msg-trace/v1 schema, in enum order.
  const char* const names[] = {
      "broadcast",     "first_heard",   "verified",       "delivered",
      "gossiped",      "requested",     "sync_pulled",    "rejected",
      "forward",       "find",          "retransmission", "suspect",
      "bad_signature", "overlay_join",  "overlay_leave",  "sync_open",
      "sync_pull",     "sync_failover", "sync_done",
  };
  ASSERT_EQ(std::size(names), obs::kMsgEventKindCount);
  for (std::size_t i = 0; i < obs::kMsgEventKindCount; ++i) {
    EXPECT_STREQ(obs::msg_event_name(static_cast<MsgEventKind>(i)), names[i]);
  }
  EXPECT_STREQ(obs::msg_event_name(MsgEventKind::kFind), "find");
  EXPECT_STREQ(obs::msg_event_name(MsgEventKind::kBadSignature),
               "bad_signature");
}

// ---------------------------------------------------------------------------
// JSONL round-trip and parsing
// ---------------------------------------------------------------------------

TEST(MsgTraceJsonl, RoundTripsAnchorAndEvents) {
  obs::MsgTraceRecorder rec;
  obs::MsgTraceAnchor anchor;
  anchor.node = 3;
  anchor.n = 8;
  anchor.wall_clock = true;
  anchor.anchor_env = 1234;
  anchor.anchor_unix_us = 1'700'000'000'000'000ull;
  rec.set_anchor(anchor);
  rec.record(100, MsgEventKind::kFirstHeard, 3, 1, 9, /*peer=*/5);
  rec.record(150, MsgEventKind::kDelivered, 3, 1, 9, /*peer=*/5);
  rec.record(300, MsgEventKind::kRejected, 3, 2, 0, /*peer=*/kInvalidNode);
  rec.record(400, MsgEventKind::kSyncOpen, 3, kInvalidNode, 0, /*peer=*/1,
             /*a=*/0xFEEDF00Dull);

  std::stringstream ss;
  rec.write_jsonl(ss);
  obs::ParsedMsgTrace parsed = obs::parse_msg_trace(ss);

  EXPECT_EQ(parsed.anchor.node, 3u);
  EXPECT_EQ(parsed.anchor.n, 8u);
  EXPECT_TRUE(parsed.anchor.wall_clock);
  EXPECT_EQ(parsed.anchor.anchor_env, 1234u);
  EXPECT_EQ(parsed.anchor.anchor_unix_us, 1'700'000'000'000'000ull);
  ASSERT_EQ(parsed.events.size(), 4u);
  EXPECT_EQ(parsed.events[0].kind, MsgEventKind::kFirstHeard);
  EXPECT_EQ(parsed.events[0].peer, 5u);
  EXPECT_EQ(parsed.events[2].kind, MsgEventKind::kRejected);
  EXPECT_EQ(parsed.events[2].peer, kInvalidNode) << "-1 peer must round-trip";
  EXPECT_EQ(parsed.events[3].kind, MsgEventKind::kSyncOpen);
  EXPECT_EQ(parsed.events[3].origin, kInvalidNode);
  EXPECT_EQ(parsed.events[3].a, 0xFEEDF00Dull);
}

TEST(MsgTraceJsonl, LinesWithoutAParseAsZero) {
  // A v1 file written before events carried "a".
  std::stringstream old(
      R"({"schema":"byzcast-msg-trace/v1","node":-1,"n":2,"clock":"sim",)"
      R"("anchor_env_us":0,"anchor_unix_us":0,"events":1,"suppressed":0})"
      "\n"
      R"({"t_us":5,"kind":"delivered","node":1,"peer":0,"origin":0,"seq":3})"
      "\n");
  obs::ParsedMsgTrace parsed = obs::parse_msg_trace(old);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].kind, MsgEventKind::kDelivered);
  EXPECT_EQ(parsed.events[0].seq, 3u);
  EXPECT_EQ(parsed.events[0].a, 0u);
}

TEST(MsgTraceJsonl, ParserRejectsForeignSchemas) {
  std::stringstream wrong(R"({"schema":"something-else/v1","node":0})"
                          "\n");
  EXPECT_THROW((void)obs::parse_msg_trace(wrong), std::invalid_argument);
  std::stringstream empty("");
  EXPECT_THROW((void)obs::parse_msg_trace(empty), std::invalid_argument);
}

TEST(MsgTraceJsonl, EventKindNamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kMsgEventKindCount; ++i) {
    auto kind = static_cast<MsgEventKind>(i);
    MsgEventKind back{};
    ASSERT_TRUE(obs::msg_event_from_name(obs::msg_event_name(kind), back));
    EXPECT_EQ(back, kind);
  }
  MsgEventKind unused{};
  EXPECT_FALSE(obs::msg_event_from_name("warp_drive", unused));
}

// ---------------------------------------------------------------------------
// Merge: clock alignment
// ---------------------------------------------------------------------------

obs::ParsedMsgTrace wall_trace(NodeId node, des::SimTime anchor_env,
                               std::uint64_t anchor_unix,
                               std::vector<obs::MsgEvent> events) {
  obs::ParsedMsgTrace t;
  t.anchor.node = node;
  t.anchor.n = 2;
  t.anchor.wall_clock = true;
  t.anchor.anchor_env = anchor_env;
  t.anchor.anchor_unix_us = anchor_unix;
  t.events = std::move(events);
  return t;
}

TEST(MsgTraceMerge, AlignsWallClocksThroughTheAnchors) {
  // Node 0 booted 1 wall-second before node 1: both anchors were taken
  // at wall 5'000'000'000 us, where node 0's env clock already read 1e6
  // but node 1's read 0. An event at env 2e6 on node 0 and one at env
  // 1'000'100 on node 1 are therefore 100 us apart in wall time.
  auto a = wall_trace(0, 1'000'000, 5'000'000'000ull,
                      {{2'000'000, MsgEventKind::kBroadcast, 0, kInvalidNode,
                        0, 1}});
  auto b = wall_trace(1, 0, 5'000'000'000ull,
                      {{1'000'100, MsgEventKind::kFirstHeard, 1, 0, 0, 1}});
  obs::MergedMsgTrace merged = obs::merge_msg_traces({a, b});
  EXPECT_TRUE(merged.wall_clock);
  ASSERT_EQ(merged.events.size(), 2u);
  EXPECT_EQ(merged.events[0].node, 0u);
  EXPECT_EQ(merged.events[0].at, 0u) << "rebased to the earliest event";
  EXPECT_EQ(merged.events[1].at, 100u);
  EXPECT_EQ(merged.n, 2u);
}

TEST(MsgTraceMerge, MixedClockBasesThrow) {
  auto wall = wall_trace(0, 0, 5'000'000'000ull,
                         {{10, MsgEventKind::kBroadcast, 0, kInvalidNode, 0,
                           0}});
  obs::ParsedMsgTrace sim;  // default anchor: sim clock
  sim.anchor.node = 1;
  sim.events.push_back({20, MsgEventKind::kFirstHeard, 1, 0, 0, 0});
  EXPECT_THROW((void)obs::merge_msg_traces({wall, sim}),
               std::invalid_argument);
  EXPECT_THROW((void)obs::merge_msg_traces({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DAG completeness under lost parent traces
// ---------------------------------------------------------------------------

// A SIGKILLed daemon loses its trace, but it may have relayed messages
// before dying: survivors' first_heard events name it as the link-layer
// sender, while its own surviving record of the message is only the
// post-respawn sync pull *from one of those survivors*. Naive BFS from
// the origin never enters that parent↔child loop; the unknown-latency
// edge must self-ground (the child's verified hearing attests the
// parent had the message).
TEST(MsgTraceDag, AmnesiacRelayParentStillGroundsTheDag) {
  obs::ParsedMsgTrace t;  // default anchor: whole-fleet sim-clock trace
  t.anchor.n = 4;
  t.events = {
      {100, MsgEventKind::kBroadcast, 0, kInvalidNode, 0, 5},
      {200, MsgEventKind::kFirstHeard, 1, 0, 0, 5},
      {210, MsgEventKind::kDelivered, 1, 0, 0, 5},
      // Node 2 heard from node 3 pre-crash; node 3's own acquisition
      // record died unflushed, so its earliest surviving have-event is
      // the sync pull below — *after* this hop.
      {300, MsgEventKind::kFirstHeard, 2, 3, 0, 5},
      {310, MsgEventKind::kDelivered, 2, 3, 0, 5},
      {9000, MsgEventKind::kSyncPulled, 3, 2, 0, 5},
      {9010, MsgEventKind::kDelivered, 3, 2, 0, 5},
      // Control message: a delivery with no hearing event at all keeps
      // reporting INCOMPLETE — self-grounding is per-edge, not blanket.
      {100, MsgEventKind::kBroadcast, 0, kInvalidNode, 0, 6},
      {400, MsgEventKind::kDelivered, 1, kInvalidNode, 0, 6},
  };
  std::vector<obs::MsgDag> dags =
      obs::build_dags(obs::merge_msg_traces({t}));
  ASSERT_EQ(dags.size(), 2u);

  const obs::MsgDag& dag = dags[0];
  EXPECT_EQ(dag.seq, 5u);
  EXPECT_TRUE(dag.complete);
  EXPECT_EQ(dag.delivered, (std::vector<NodeId>{0, 1, 2, 3}));
  ASSERT_EQ(dag.edges.size(), 3u);
  EXPECT_EQ(dag.edges[1].from, 3u);
  EXPECT_EQ(dag.edges[1].to, 2u);
  EXPECT_EQ(dag.edges[1].latency_us, -1) << "parent acquisition unknown";
  EXPECT_EQ(dag.edges[2].from, 2u);
  EXPECT_EQ(dag.edges[2].to, 3u);
  EXPECT_TRUE(dag.edges[2].sync);
  EXPECT_GE(dag.edges[2].latency_us, 0) << "survivor's have-time is known";

  EXPECT_EQ(dags[1].seq, 6u);
  EXPECT_FALSE(dags[1].complete);
}

// Wire corruption can flip bytes inside the origin/seq fields, so a
// rejection lands under a phantom id no one ever broadcast (e.g. origin
// 256 in a 6-node fleet). Such rejected-only ids must not produce DAGs
// — they'd read as permanently-incomplete messages.
TEST(MsgTraceDag, RejectedOnlyPhantomIdsYieldNoDag) {
  obs::ParsedMsgTrace t;
  t.anchor.n = 2;
  t.events = {
      {100, MsgEventKind::kBroadcast, 0, kInvalidNode, 0, 0},
      {200, MsgEventKind::kFirstHeard, 1, 0, 0, 0},
      {210, MsgEventKind::kDelivered, 1, 0, 0, 0},
      {150, MsgEventKind::kRejected, 1, kInvalidNode, 256, 7},
  };
  std::vector<obs::MsgDag> dags =
      obs::build_dags(obs::merge_msg_traces({t}));
  ASSERT_EQ(dags.size(), 1u) << "phantom (256,7) must be skipped";
  EXPECT_EQ(dags[0].origin, 0u);
  EXPECT_TRUE(dags[0].complete);
}

// Suspicions, overlay changes and sync session steps share the timeline
// but belong to no message: they must not surface as a (-1, 0) DAG.
TEST(MsgTraceDag, NodeLevelEventsYieldNoDag) {
  obs::ParsedMsgTrace t;
  t.anchor.n = 2;
  t.events = {
      {50, MsgEventKind::kOverlayJoin, 0, kInvalidNode, kInvalidNode, 0},
      {100, MsgEventKind::kBroadcast, 0, kInvalidNode, 0, 0},
      {120, MsgEventKind::kSuspect, 1, 0, kInvalidNode, 0, 1},
      {200, MsgEventKind::kFirstHeard, 1, 0, 0, 0},
      {210, MsgEventKind::kDelivered, 1, 0, 0, 0},
      {300, MsgEventKind::kSyncOpen, 1, 0, kInvalidNode, 0, 77},
      {310, MsgEventKind::kSyncDone, 1, 0, kInvalidNode, 0, 1},
  };
  obs::MergedMsgTrace merged = obs::merge_msg_traces({t});
  EXPECT_EQ(merged.events.size(), t.events.size());
  std::vector<obs::MsgDag> dags = obs::build_dags(merged);
  ASSERT_EQ(dags.size(), 1u);
  EXPECT_EQ(dags[0].origin, 0u);
  EXPECT_TRUE(dags[0].complete);
  EXPECT_TRUE(dags[0].stalled.empty());

  std::stringstream chrome;
  obs::write_chrome_trace(chrome, merged);
  EXPECT_NE(chrome.str().find("\"name\":\"suspect\""), std::string::npos);
  EXPECT_EQ(chrome.str().find("m4294967295"), std::string::npos)
      << "node-level events must not open a message span";
}

// ---------------------------------------------------------------------------
// DES scenarios: non-perturbation, determinism, DAG reconstruction
// ---------------------------------------------------------------------------

sim::ScenarioConfig traced_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = 9;
  config.area = {240, 240};
  config.tx_range = 120;
  config.placement = sim::PlacementKind::kGrid;
  config.num_broadcasts = 6;
  config.broadcast_interval = des::millis(500);
  config.payload_bytes = 64;
  config.warmup = des::seconds(6);
  config.cooldown = des::seconds(10);
  return config;
}

TEST(MsgTraceScenario, TracingObservesWithoutPerturbing) {
  sim::ScenarioConfig config = traced_scenario(3);

  sim::Network off(config);
  std::string snap_off = stats::snapshot(sim::run_workload(off).metrics);
  std::size_t events_off = off.simulator().events_executed();
  EXPECT_TRUE(off.msg_trace().empty()) << "trace-off run recorded events";

  config.enable_msg_trace = true;
  sim::Network on(config);
  std::string snap_on = stats::snapshot(sim::run_workload(on).metrics);
  EXPECT_EQ(snap_off, snap_on);
  EXPECT_EQ(events_off, on.simulator().events_executed())
      << "the recorder changed the event order";
  EXPECT_FALSE(on.msg_trace().empty());
}

// The same identity over a run that exercises every hook: mute
// adversaries (suspicions, REQUEST/FIND recovery, retransmissions), a
// crash-recover fault and range-sync sessions.
TEST(MsgTraceScenario, TracingEveryHookObservesWithoutPerturbing) {
  sim::ScenarioConfig config;
  config.seed = 15;
  config.n = 30;
  config.tx_range = 130;
  config.area = {550, 550};
  config.adversaries = {{byz::AdversaryKind::kMute, 6}};
  config.num_broadcasts = 10;
  config.protocol_config.sync.enabled = true;
  config.fault_schedule.events.push_back(
      {des::seconds(7), sim::FaultKind::kCrashStop, 29, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, 29, 0, {}});

  sim::Network off(config);
  std::string snap_off = stats::snapshot(sim::run_workload(off).metrics);
  std::size_t events_off = off.simulator().events_executed();
  EXPECT_TRUE(off.msg_trace().empty());

  config.enable_msg_trace = true;
  sim::Network on(config);
  std::string snap_on = stats::snapshot(sim::run_workload(on).metrics);
  EXPECT_EQ(snap_off, snap_on);
  EXPECT_EQ(events_off, on.simulator().events_executed())
      << "the recorder changed the event order";

  const auto& events = on.msg_trace().events();
  for (MsgEventKind kind :
       {MsgEventKind::kSuspect, MsgEventKind::kOverlayJoin,
        MsgEventKind::kForward, MsgEventKind::kRetransmission,
        MsgEventKind::kSyncOpen, MsgEventKind::kSyncDone}) {
    EXPECT_GT(count_kind(events, kind), 0u) << obs::msg_event_name(kind);
  }
}

TEST(MsgTraceScenario, SameSeedGivesByteIdenticalMergedTrace) {
  sim::ScenarioConfig config = traced_scenario(5);
  config.enable_msg_trace = true;

  auto run_to_merged_json = [&] {
    sim::Network network(config);
    (void)sim::run_workload(network);
    std::stringstream jsonl;
    network.msg_trace().write_jsonl(jsonl);
    obs::MergedMsgTrace merged =
        obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
    std::stringstream out;
    obs::write_merged_json(out, merged, obs::build_dags(merged));
    return out.str();
  };

  std::string a = run_to_merged_json();
  std::string b = run_to_merged_json();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(MsgTraceScenario, DagsAreCompleteOnACleanRun) {
  sim::ScenarioConfig config = traced_scenario(7);
  config.enable_msg_trace = true;
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  ASSERT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0)
      << "scenario must fully deliver for the completeness assertion";

  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::vector<obs::MsgDag> dags = obs::build_dags(merged);
  ASSERT_EQ(dags.size(), config.num_broadcasts);

  for (const obs::MsgDag& dag : dags) {
    EXPECT_TRUE(dag.have_root);
    EXPECT_TRUE(dag.complete)
        << "msg (" << dag.origin << "," << dag.seq << ") has orphan hops";
    EXPECT_EQ(dag.delivered.size(), config.n);
    EXPECT_TRUE(dag.stalled.empty());
    // One first-hop edge per non-origin node, each with a resolvable
    // parent latency (the whole fleet is in one trace).
    EXPECT_EQ(dag.edges.size(), config.n - 1);
    for (const obs::HopEdge& e : dag.edges) {
      EXPECT_NE(e.from, kInvalidNode);
      EXPECT_GE(e.latency_us, 0);
      EXPECT_FALSE(e.sync);
    }
    // Coverage starts at the origin's broadcast and grows to the fleet.
    ASSERT_FALSE(dag.coverage.empty());
    EXPECT_EQ(dag.coverage.front().covered, 1u);
    EXPECT_EQ(dag.coverage.back().covered, config.n);
    // Simultaneous deliveries coalesce into one point, so covered grows
    // strictly but not necessarily by one.
    for (std::size_t i = 1; i < dag.coverage.size(); ++i) {
      EXPECT_GE(dag.coverage[i].at, dag.coverage[i - 1].at);
      EXPECT_GT(dag.coverage[i].covered, dag.coverage[i - 1].covered);
    }
  }
}

TEST(MsgTraceScenario, SampledFleetStillYieldsCompleteDags) {
  sim::ScenarioConfig config = traced_scenario(11);
  config.enable_msg_trace = true;
  config.msg_trace.sample_every = 2;
  sim::Network network(config);
  (void)sim::run_workload(network);

  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::vector<obs::MsgDag> dags = obs::build_dags(merged);
  ASSERT_FALSE(dags.empty());
  ASSERT_LT(dags.size(), config.num_broadcasts)
      << "sampling at 1/2 kept every message";
  for (const obs::MsgDag& dag : dags) {
    EXPECT_TRUE(dag.complete)
        << "a sampled message must still be traced by EVERY node";
    EXPECT_EQ(dag.delivered.size(), config.n);
  }
}

TEST(MsgTraceScenario, CrashRecoveryShowsTheRangeSyncCatchUpEdge) {
  // The sync_test catch-up scenario, now observed through the tracer: a
  // node crashes before the workload, misses everything, recovers and
  // pulls the backlog through range-sync. Its DAG entries must arrive
  // over sync=true edges and the DAGs must still be complete.
  sim::ScenarioConfig config = traced_scenario(7);
  config.enable_msg_trace = true;
  config.protocol_config.sync.enabled = true;
  config.protocol_config.anti_entropy = false;
  const NodeId crashed = 4;
  config.fault_schedule.events.push_back(
      {des::millis(6100), sim::FaultKind::kCrashStop, crashed, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, crashed, 0, {}});

  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  ASSERT_EQ(result.metrics.recoveries_completed(), 1u);

  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::vector<obs::MsgDag> dags = obs::build_dags(merged);
  ASSERT_EQ(dags.size(), config.num_broadcasts);

  std::size_t sync_edges = 0;
  for (const obs::MsgDag& dag : dags) {
    EXPECT_TRUE(dag.complete)
        << "msg (" << dag.origin << "," << dag.seq << ")";
    EXPECT_EQ(dag.delivered.size(), config.n) << "catch-up incomplete";
    for (const obs::HopEdge& e : dag.edges) {
      if (e.sync) {
        ++sync_edges;
        EXPECT_EQ(e.to, crashed)
            << "only the recovering node should pull via sync";
      }
    }
  }
  EXPECT_GT(sync_edges, 0u) << "no range-sync catch-up edge was traced";
}

// ---------------------------------------------------------------------------
// Protocol events of traced scenarios
// ---------------------------------------------------------------------------

TEST(TraceIntegration, ScenarioEmitsCoherentEvents) {
  sim::ScenarioConfig config;
  config.seed = 5;
  config.n = 25;
  config.area = {400, 400};
  config.tx_range = 140;
  config.num_broadcasts = 5;
  config.enable_msg_trace = true;
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  ASSERT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);

  const auto& events = network.msg_trace().events();
  // One broadcast event per workload broadcast, from the sender.
  EXPECT_EQ(count_kind(events, MsgEventKind::kBroadcast),
            config.num_broadcasts);
  // One delivery per (message, correct non-origin node).
  EXPECT_EQ(count_kind(events, MsgEventKind::kDelivered),
            config.num_broadcasts * (config.n - 1));
  // The overlay formed: join events exist, and events are time-ordered.
  EXPECT_GT(count_kind(events, MsgEventKind::kOverlayJoin), 0u);
  des::SimTime prev = 0;
  for (const obs::MsgEvent& e : events) {
    EXPECT_GE(e.at, prev);
    prev = e.at;
  }
  // Every delivery's (origin, seq) corresponds to a recorded broadcast.
  for (const obs::MsgEvent& e : events) {
    if (e.kind != MsgEventKind::kDelivered) continue;
    auto b = std::find_if(events.begin(), events.end(),
                          [&](const obs::MsgEvent& x) {
                            return x.kind == MsgEventKind::kBroadcast &&
                                   x.origin == e.origin && x.seq == e.seq;
                          });
    ASSERT_NE(b, events.end());
    EXPECT_LE(b->at, e.at);  // cause precedes effect
  }
}

TEST(TraceIntegration, MuteAttackLeavesSuspicionTrail) {
  sim::ScenarioConfig config;
  config.seed = 15;  // connected correct graph AND recovery exercised
  config.n = 30;
  config.tx_range = 130;
  // Sparse so the mute nodes matter (cf. bench_recovery_timeline), but
  // dense enough that a connected placement is drawable.
  config.area = {550, 550};
  config.adversaries = {{byz::AdversaryKind::kMute, 6}};
  config.num_broadcasts = 20;
  config.enable_msg_trace = true;
  sim::Network network(config);
  if (!network.correct_graph_connected()) {
    GTEST_SKIP() << "assumption violated for this seed";
  }
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);

  const auto& events = network.msg_trace().events();
  // Recovery machinery visibly ran...
  EXPECT_GT(count_kind(events, MsgEventKind::kRequested), 0u);
  EXPECT_GT(count_kind(events, MsgEventKind::kRetransmission), 0u);
  // ...and any suspicion recorded was raised by a correct node against a
  // Byzantine one (no friendly fire in the trail).
  for (const obs::MsgEvent& e : events) {
    if (e.kind != MsgEventKind::kSuspect) continue;
    EXPECT_EQ(network.kind_of(e.node), byz::AdversaryKind::kNone);
    EXPECT_NE(network.kind_of(e.peer), byz::AdversaryKind::kNone)
        << "correct node " << e.node << " suspected correct node " << e.peer;
  }
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

TEST(MsgTraceExport, MergedJsonCarriesSchemaAndSummary) {
  sim::ScenarioConfig config = traced_scenario(3);
  config.enable_msg_trace = true;
  sim::Network network(config);
  (void)sim::run_workload(network);
  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::stringstream out;
  obs::write_merged_json(out, merged, obs::build_dags(merged));
  const std::string doc = out.str();
  EXPECT_NE(doc.find(obs::kMergedTraceSchema), std::string::npos);
  EXPECT_NE(doc.find("\"summary\""), std::string::npos);
  EXPECT_NE(doc.find("\"hop_latency_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"messages\""), std::string::npos);
}

TEST(MsgTraceExport, ChromeTraceHasProcessesSpansAndFlows) {
  sim::ScenarioConfig config = traced_scenario(3);
  config.enable_msg_trace = true;
  sim::Network network(config);
  (void)sim::run_workload(network);
  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::stringstream out;
  obs::write_chrome_trace(out, merged);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);   // "M" metadata
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);   // spans
  EXPECT_NE(doc.find("\"ph\":\"s\""), std::string::npos);   // flow starts
  EXPECT_NE(doc.find("\"ph\":\"f\""), std::string::npos);   // flow ends
  EXPECT_EQ(doc.find("\"ts\":-"), std::string::npos)
      << "negative timestamps confuse the catapult viewer";
}

}  // namespace
}  // namespace byzcast
