// Determinism regression (DESIGN.md §6): a (ScenarioConfig, seed) pair
// fully determines a run. Two runs of the same pair must produce
// byte-identical metrics snapshots — including runs that exercise the
// fault injector, whose timer-wheel events are part of the deterministic
// event order.
#include <gtest/gtest.h>

#include "crypto/hash.h"
#include "obs/timeline.h"
#include "sim/runner.h"

namespace byzcast {
namespace {

sim::ScenarioConfig small_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = 14;
  config.area = {320, 320};
  config.tx_range = 130;
  config.num_broadcasts = 6;
  config.payload_bytes = 64;
  config.cooldown = des::seconds(8);
  return config;
}

TEST(Determinism, SameSeedSameSnapshot) {
  sim::ScenarioConfig config = small_scenario(5);
  std::string a = stats::snapshot(sim::run_scenario(config).metrics);
  std::string b = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, SameSeedSameSnapshotWithFaultSchedule) {
  sim::ScenarioConfig config = small_scenario(5);
  config.fault_schedule.events.push_back(
      {des::seconds(7), sim::FaultKind::kCrashStop, 2, 0, {}});
  config.fault_schedule.events.push_back(
      {des::millis(7500), sim::FaultKind::kRadioOutage, 5, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(9), sim::FaultKind::kRadioRestore, 5, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(11), sim::FaultKind::kCrashRecover, 2, 0, {}});
  std::string a = stats::snapshot(sim::run_scenario(config).metrics);
  std::string b = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("lifecycle down_events=2"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  std::string a =
      stats::snapshot(sim::run_scenario(small_scenario(5)).metrics);
  std::string b =
      stats::snapshot(sim::run_scenario(small_scenario(6)).metrics);
  EXPECT_NE(a, b);
}

// Golden snapshot: the hash below was recorded on the commit *before* the
// zero-copy frame pipeline landed, so it pins the refactor (and any future
// byte-path change) to bit-identical behaviour — same wire bytes, same
// event order, same stats. If this fails, the byte path changed observable
// behaviour; do not update the constant without understanding why.
TEST(Determinism, GoldenSnapshotHashUnchanged) {
  sim::ScenarioConfig config;
  config.seed = 20260805;
  config.n = 16;
  config.area = {340, 340};
  config.tx_range = 130;
  config.num_broadcasts = 8;
  config.payload_bytes = 96;
  config.cooldown = des::seconds(8);
  config.adversaries = {{byz::AdversaryKind::kMute, 1},
                        {byz::AdversaryKind::kLiar, 1}};
  std::string snap = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_EQ(snap.size(), 2508u);
  EXPECT_EQ(crypto::fnv1a(snap), 0x4771d0fe352e8837ULL) << snap;
}

// One golden hash per adversary kind: each behaviour must stay
// event-for-event identical through any restructuring of src/byz/. The
// mute onset and duration fall inside the run, so the delayed and
// transient variants turn mute (and the transient one back) on air.
struct KindHash {
  byz::AdversaryKind kind;
  std::uint64_t hash;
};

// Names the parameter by its kind; the default printer would dump the
// struct's bytes, padding included, into the listed test names.
void PrintTo(const KindHash& param, std::ostream* os) {
  *os << byz::adversary_kind_name(param.kind);
}

class PerKindSnapshotHash : public ::testing::TestWithParam<KindHash> {};

TEST_P(PerKindSnapshotHash, Unchanged) {
  sim::ScenarioConfig config;
  config.seed = 20260805;
  config.n = 16;
  config.area = {340, 340};
  config.tx_range = 130;
  config.num_broadcasts = 8;
  config.payload_bytes = 96;
  config.cooldown = des::seconds(8);
  config.adversary_params.mute_onset = des::seconds(3);
  config.adversary_params.mute_duration = des::seconds(4);
  config.adversaries = {{GetParam().kind, 2}};
  std::string snap = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_EQ(crypto::fnv1a(snap), GetParam().hash) << snap;
}

INSTANTIATE_TEST_SUITE_P(
    Determinism, PerKindSnapshotHash,
    ::testing::Values(
        KindHash{byz::AdversaryKind::kMute, 0x7d4a05d4dcccdbedULL},
        KindHash{byz::AdversaryKind::kVerbose, 0xf2df925346ab880dULL},
        KindHash{byz::AdversaryKind::kForger, 0xdea2f749f70e99c2ULL},
        KindHash{byz::AdversaryKind::kLiar, 0x4c8ca1fe31ac4441ULL},
        KindHash{byz::AdversaryKind::kFakeGossiper, 0x87987ba83e4b7c1fULL},
        KindHash{byz::AdversaryKind::kSelectiveForwarder,
                 0xcee8b9a857b8ef27ULL},
        KindHash{byz::AdversaryKind::kDelayedMute, 0xe161f56bcc581f56ULL},
        KindHash{byz::AdversaryKind::kTransientMute, 0x7d315756049852b1ULL},
        KindHash{byz::AdversaryKind::kHelloLiar, 0xcb1460d7ecb58d02ULL},
        KindHash{byz::AdversaryKind::kReplayer, 0x9da05d9226d76a41ULL}),
    [](const ::testing::TestParamInfo<KindHash>& info) {
      std::string name = byz::adversary_kind_name(info.param.kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The obs::Timeline samples from a DES timer, so its snapshot is part of
// the deterministic surface too: same (ScenarioConfig, seed) — with
// telemetry enabled — must give byte-identical timeline dumps, and the
// metrics snapshot must match the telemetry-off run exactly (the sampler
// only reads counters; it must never perturb the event order).
TEST(Determinism, TelemetryRunsAreByteIdenticalAndNonPerturbing) {
  sim::ScenarioConfig config = small_scenario(5);
  std::string plain = stats::snapshot(sim::run_scenario(config).metrics);

  config.telemetry_interval = des::millis(500);
  sim::RunResult a = sim::run_scenario(config);
  sim::RunResult b = sim::run_scenario(config);
  EXPECT_FALSE(a.timeline.empty());
  EXPECT_EQ(obs::snapshot(a.timeline), obs::snapshot(b.timeline));
  EXPECT_EQ(stats::snapshot(a.metrics), stats::snapshot(b.metrics));
  EXPECT_EQ(stats::snapshot(a.metrics), plain);
}

TEST(Determinism, AdversarialRunsAreDeterministicToo) {
  sim::ScenarioConfig config = small_scenario(9);
  config.adversaries.push_back({byz::AdversaryKind::kMute, 2});
  config.fault_schedule.events.push_back(
      {des::seconds(7), sim::FaultKind::kCrashStop, 1, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, 1, 0, {}});
  std::string a = stats::snapshot(sim::run_scenario(config).metrics);
  std::string b = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace byzcast
