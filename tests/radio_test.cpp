#include <gtest/gtest.h>

#include <memory>

#include "des/simulator.h"
#include "mobility/static_mobility.h"
#include "net/transport.h"
#include "radio/medium.h"
#include "radio/propagation.h"
#include "radio/radio.h"

namespace byzcast::radio {
namespace {

struct Received {
  NodeId from;
  util::Buffer payload;
  des::SimTime at;
};

/// Test fixture: a medium with fixed node positions, zero jitter (so
/// timing assertions are exact unless a test opts in).
class MediumTest : public ::testing::Test {
 protected:
  void build(MediumConfig config,
             std::unique_ptr<PropagationModel> propagation = nullptr) {
    if (!propagation) propagation = std::make_unique<UnitDisk>();
    medium_ = std::make_unique<Medium>(sim_, std::move(propagation), config,
                                       &metrics_);
  }

  NodeId add_node(geo::Vec2 position, double range = 100) {
    auto id = static_cast<NodeId>(radios_.size());
    mobility_.push_back(std::make_unique<mobility::StaticMobility>(position));
    radios_.push_back(
        std::make_unique<Radio>(*medium_, id, *mobility_.back(), range));
    received_.emplace_back();
    radios_.back()->set_receive_handler([this, id](const Frame& frame) {
      received_[id].push_back({frame.sender, frame.payload, sim_.now()});
    });
    return id;
  }

  des::Simulator sim_{1};
  stats::Metrics metrics_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::vector<Received>> received_;
};

MediumConfig quiet_config() {
  MediumConfig config;
  config.tx_jitter_max = 0;  // deterministic timing
  return config;
}

TEST_F(MediumTest, DeliversWithinRangeOnly) {
  build(quiet_config());
  add_node({0, 0});
  add_node({50, 0});    // in range (100)
  add_node({150, 0});   // out of range
  radios_[0]->send({1, 2, 3});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_TRUE(received_[2].empty());
  EXPECT_TRUE(received_[0].empty());  // no self-reception
  EXPECT_EQ(received_[1][0].from, 0u);
  EXPECT_EQ(received_[1][0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(MediumTest, RadioIsTheDesTransport) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  NodeId b = add_node({50, 0});   // in range
  NodeId c = add_node({150, 0});  // out of range
  net::Transport& sender = *radios_[a];
  net::Transport& receiver = *radios_[b];
  EXPECT_EQ(sender.local_id(), a);
  EXPECT_EQ(receiver.local_id(), b);
  std::vector<NodeId> heard_from;
  receiver.set_receive_handler(
      [&heard_from](const Frame& frame) { heard_from.push_back(frame.sender); });
  sender.send({4, 5, 6});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(heard_from, std::vector<NodeId>{a});
  EXPECT_TRUE(received_[c].empty());
}

TEST_F(MediumTest, DeliveryDelayIsAirtimePlusLatency) {
  MediumConfig config = quiet_config();
  config.bitrate_bps = 1e6;
  config.latency = des::micros(5);
  build(config);
  add_node({0, 0});
  add_node({10, 0});
  std::vector<std::uint8_t> payload(66);  // 66 + 34 overhead = 100 B
  radios_[0]->send(payload);
  sim_.run_until(des::seconds(1));
  ASSERT_EQ(received_[1].size(), 1u);
  // 100 B at 1 Mb/s = 800 us airtime, + 5 us latency.
  EXPECT_EQ(received_[1][0].at, des::micros(805));
}

TEST_F(MediumTest, SimultaneousTransmissionsCollideAtCommonReceiver) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  NodeId b = add_node({100, 0});
  add_node({50, 0});  // c hears both
  radios_[a]->send({1});
  radios_[b]->send({2});
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(received_[2].empty());  // both corrupted
  // a and b are out of range of each other (distance 100 <= range? exactly
  // 100 == range, so actually in range... both were transmitting:
  // half-duplex drops anyway).
  EXPECT_TRUE(received_[0].empty());
  EXPECT_TRUE(received_[1].empty());
  EXPECT_GE(metrics_.frames_collided(), 2u);
}

TEST_F(MediumTest, CollisionsCanBeDisabled) {
  MediumConfig config = quiet_config();
  config.collisions_enabled = false;
  build(config);
  NodeId a = add_node({0, 0});
  NodeId b = add_node({100, 0});
  add_node({50, 0});
  radios_[a]->send({1});
  radios_[b]->send({2});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[2].size(), 2u);
}

TEST_F(MediumTest, StaggeredTransmissionsDoNotCollide) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  NodeId b = add_node({100, 0});
  add_node({50, 0});
  radios_[a]->send({1});
  sim_.schedule_after(des::millis(100), [&] { radios_[b]->send({2}); });
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[2].size(), 2u);
}

TEST_F(MediumTest, HalfDuplexReceiverMissesWhileTransmitting) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  NodeId b = add_node({50, 0});
  // b transmits at the same instant a does: b cannot hear a's frame.
  radios_[a]->send({1});
  radios_[b]->send({2});
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(received_[1].empty());
  // a equally missed b's frame.
  EXPECT_TRUE(received_[0].empty());
}

TEST_F(MediumTest, SenderSerializesOwnTransmissions) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  add_node({50, 0});
  // Two back-to-back sends from one radio must both arrive (queued, not
  // self-collided).
  radios_[a]->send({1});
  radios_[a]->send({2});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[1].size(), 2u);
}

TEST_F(MediumTest, BaseLossDropsFraction) {
  MediumConfig config = quiet_config();
  config.base_loss_prob = 0.5;
  build(config);
  NodeId a = add_node({0, 0});
  add_node({50, 0});
  for (int i = 0; i < 400; ++i) {
    sim_.schedule_after(des::millis(10) * (i + 1),
                        [&] { radios_[a]->send({7}); });
  }
  sim_.run_until(des::seconds(100));
  EXPECT_NEAR(static_cast<double>(received_[1].size()), 200.0, 40.0);
  EXPECT_GT(metrics_.frames_dropped(), 100u);
}

TEST_F(MediumTest, MetricsCountFrames) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  add_node({50, 0});
  add_node({60, 0});
  radios_[a]->send({1, 2, 3});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(metrics_.frames_sent(), 1u);
  EXPECT_EQ(metrics_.frames_delivered(), 2u);
}

TEST_F(MediumTest, OneEventDeliversEveryReceiverInAscendingId) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  for (int i = 0; i < 4; ++i) add_node({10.0 + 10 * i, 0});
  std::vector<NodeId> order;
  for (NodeId rx = 1; rx <= 4; ++rx) {
    radios_[rx]->set_receive_handler(
        [&order, rx](const Frame&) { order.push_back(rx); });
  }
  radios_[a]->send({1, 2, 3});
  // Two events in all: the start of airtime and the single delivery event
  // that walks all four receivers.
  EXPECT_EQ(sim_.run_until(des::seconds(1)), 2u);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(metrics_.frames_delivered(), 4u);
}

TEST_F(MediumTest, ReceiverDetachedInFlightCountsAsDropped) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  NodeId b = add_node({10, 0});
  NodeId c = add_node({20, 0});
  NodeId d = add_node({30, 0});
  // b is detached during the airtime; c's delivery detaches d, whose
  // copy is settled later in the same event.
  radios_[c]->set_receive_handler(
      [this, d](const Frame&) { medium_->set_attached(d, false); });
  radios_[a]->send({1, 2, 3});
  sim_.schedule_at(des::micros(1),
                   [this, b] { medium_->set_attached(b, false); });
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(received_[b].empty());
  EXPECT_TRUE(received_[d].empty());
  EXPECT_EQ(metrics_.frames_offered(), 3u);
  EXPECT_EQ(metrics_.frames_delivered(), 1u);
  EXPECT_EQ(metrics_.frames_dropped(), 2u);
  EXPECT_EQ(metrics_.frames_collided(), 0u);
}

TEST_F(MediumTest, OfferedEqualsDroppedCollidedDelivered) {
  MediumConfig config;
  config.tx_jitter_max = des::micros(3000);  // some overlap, some not
  config.base_loss_prob = 0.2;
  build(config);
  for (int i = 0; i < 12; ++i) add_node({15.0 * (i % 4), 15.0 * (i / 4)});
  for (int round = 0; round < 20; ++round) {
    sim_.schedule_at(des::millis(10) * round, [this, round] {
      for (NodeId id = 0; id < radios_.size(); id += 1 + round % 3) {
        radios_[id]->send(std::vector<std::uint8_t>(8 + round, 7));
      }
    });
  }
  sim_.run_until(des::seconds(2));
  EXPECT_GT(metrics_.frames_collided(), 0u);
  EXPECT_GT(metrics_.frames_dropped(), 0u);
  EXPECT_GT(metrics_.frames_delivered(), 0u);
  EXPECT_EQ(metrics_.frames_offered(), metrics_.frames_dropped() +
                                           metrics_.frames_collided() +
                                           metrics_.frames_delivered());
  EXPECT_EQ(metrics_.frame_bytes_offered(),
            metrics_.frame_bytes_dropped() + metrics_.frame_bytes_collided() +
                metrics_.frame_bytes_delivered());
}

TEST_F(MediumTest, RejectsDuplicateRegistrationAndUnknownSender) {
  build(quiet_config());
  add_node({0, 0});
  EXPECT_THROW(Radio(*medium_, 0, *mobility_[0], 100), std::invalid_argument);
  EXPECT_THROW(medium_->transmit(42, {1}), std::out_of_range);
}

TEST_F(MediumTest, NeighborsOfUsesCurrentPositions) {
  build(quiet_config());
  add_node({0, 0});
  add_node({50, 0});
  add_node({500, 0});
  EXPECT_EQ(medium_->neighbors_of(0, 100), (std::vector<NodeId>{1}));
  EXPECT_EQ(medium_->neighbors_of(2, 100), (std::vector<NodeId>{}));
}

TEST_F(MediumTest, CarrierSenseAvoidsInCellCollisions) {
  MediumConfig config = quiet_config();
  config.carrier_sense = true;
  build(config);
  NodeId a = add_node({0, 0});
  NodeId b = add_node({50, 0});
  add_node({25, 0});  // c hears both
  // a and b transmit "simultaneously"; with carrier sense b defers past
  // a's frame, so c receives both.
  radios_[a]->send({1});
  sim_.schedule_after(des::micros(100), [&] { radios_[b]->send({2}); });
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[2].size(), 2u);
  EXPECT_EQ(metrics_.frames_collided(), 0u);
}

TEST_F(MediumTest, CarrierSenseCannotStopHiddenTerminals) {
  MediumConfig config = quiet_config();
  config.carrier_sense = true;
  build(config);
  NodeId a = add_node({0, 0});
  NodeId b = add_node({200, 0});  // out of range of a: cannot sense it
  add_node({100, 0});             // c hears both
  radios_[a]->send({1});
  sim_.schedule_after(des::micros(100), [&] { radios_[b]->send({2}); });
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(received_[2].empty());  // the classic hidden-terminal loss
}

TEST_F(MediumTest, CarrierSenseSerializesBursts) {
  MediumConfig config = quiet_config();
  config.carrier_sense = true;
  build(config);
  std::vector<NodeId> senders;
  for (int i = 0; i < 5; ++i) {
    senders.push_back(add_node({static_cast<double>(10 * i), 0}));
  }
  NodeId listener = add_node({25, 30});
  // Five in-range nodes fire within one airtime of each other; carrier
  // sense must deliver all five frames to the listener.
  for (std::size_t i = 0; i < senders.size(); ++i) {
    sim_.schedule_after(des::micros(50) * i, [this, &senders, i] {
      radios_[senders[i]]->send({static_cast<std::uint8_t>(i)});
    });
  }
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[listener].size(), 5u);
}

// ---------------------------------------------------------------------------
// Propagation models
// ---------------------------------------------------------------------------

TEST(Propagation, UnitDiskIsSharp) {
  UnitDisk model;
  des::Rng rng(1);
  EXPECT_TRUE(model.delivered(99.9, 100, rng));
  EXPECT_TRUE(model.delivered(100.0, 100, rng));
  EXPECT_FALSE(model.delivered(100.1, 100, rng));
  EXPECT_DOUBLE_EQ(model.max_range(100), 100);
}

TEST(Propagation, ShadowingValidatesParams) {
  LogDistanceShadowing::Params p;
  p.inner_fraction = 0.9;
  p.outer_fraction = 0.5;
  EXPECT_THROW(LogDistanceShadowing{p}, std::invalid_argument);
  p = {};
  p.shadowing_sigma = -1;
  EXPECT_THROW(LogDistanceShadowing{p}, std::invalid_argument);
}

TEST(Propagation, ShadowingBandIsMonotone) {
  LogDistanceShadowing::Params p;
  p.shadowing_sigma = 0;  // deterministic band for this test
  LogDistanceShadowing model(p);
  des::Rng rng(3);
  auto rate = [&](double dist) {
    int ok = 0;
    for (int i = 0; i < 2000; ++i) ok += model.delivered(dist, 100, rng);
    return ok / 2000.0;
  };
  EXPECT_DOUBLE_EQ(rate(70), 1.0);    // inside inner band
  double mid = rate(100);             // middle of the fade band
  EXPECT_GT(mid, 0.2);
  EXPECT_LT(mid, 0.8);
  EXPECT_DOUBLE_EQ(rate(130), 0.0);   // beyond outer band
  EXPECT_GT(rate(85), mid);           // closer in is likelier
}

TEST(Propagation, ShadowingMaxRangeCoversJitter) {
  LogDistanceShadowing model;
  EXPECT_GT(model.max_range(100), 120.0);
}

}  // namespace
}  // namespace byzcast::radio
