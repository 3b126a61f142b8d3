// Self-tests of the benchmark's own pieces: the seeded generator, the
// percentile and sample-count rule, the metric catalogue and the live
// port selection.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "generator.h"
#include "live_workload.h"
#include "report.h"
#include "stats.h"

namespace byzbench {
namespace {

GeneratorSpec poisson_mix() {
  GeneratorSpec g;
  g.poisson = true;
  g.rate_per_s = 200;
  g.duration_s = 50;
  g.origins = 4;
  g.sizes = {{64, 0.50}, {512, 0.35}, {1400, 0.15}};
  return g;
}

TEST(Generator, SameSeedSameArrivals) {
  auto a = generate_arrivals(poisson_mix(), 7);
  auto b = generate_arrivals(poisson_mix(), 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].origin, b[i].origin);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

TEST(Generator, OtherSeedOtherArrivals) {
  auto a = generate_arrivals(poisson_mix(), 7);
  auto b = generate_arrivals(poisson_mix(), 8);
  bool differ = a.size() != b.size();
  for (std::size_t i = 0; !differ && i < a.size(); ++i) {
    differ = a[i].due_s != b[i].due_s || a[i].payload != b[i].payload;
  }
  EXPECT_TRUE(differ);
}

TEST(Generator, PoissonRateOriginsAndMix) {
  auto a = generate_arrivals(poisson_mix(), 3);
  EXPECT_EQ(a.size(), 10000u);
  std::set<std::uint32_t> origins;
  std::size_t small = 0, large = 0;
  double last = -1;
  for (const Arrival& x : a) {
    EXPECT_GE(x.due_s, last);
    EXPECT_LT(x.due_s, 50);
    last = x.due_s;
    origins.insert(x.origin);
    small += x.payload.size() == 64;
    large += x.payload.size() == 1400;
  }
  EXPECT_EQ(origins.size(), 4u);
  EXPECT_NEAR(static_cast<double>(small) / static_cast<double>(a.size()), 0.50, 0.03);
  EXPECT_NEAR(static_cast<double>(large) / static_cast<double>(a.size()), 0.15, 0.02);
}

TEST(Generator, PeriodicIsExact) {
  GeneratorSpec g;
  g.poisson = false;
  g.rate_per_s = 2;
  g.duration_s = 25;
  auto a = generate_arrivals(g, 1);
  ASSERT_EQ(a.size(), 50u);
  const double phase = a[0].due_s;
  EXPECT_GE(phase, 0);
  EXPECT_LT(phase, 0.5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].due_s, phase + static_cast<double>(i) * 0.5);
    EXPECT_EQ(a[i].payload.size(), 256u);
  }
  EXPECT_NE(generate_arrivals(g, 2)[0].due_s, phase);
}

TEST(Stats, SampleCountRule) {
  EXPECT_FALSE(percentile_supported(0.99, 999));
  EXPECT_TRUE(percentile_supported(0.99, 1000));
  EXPECT_FALSE(percentile_supported(0.5, 19));
  EXPECT_TRUE(percentile_supported(0.5, 20));
  EXPECT_FALSE(percentile_supported(1.0, 1000000));
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile(v, 0.001), 1);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 0.5), 0);
}

TEST(Stats, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Metrics, NamesValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
      EXPECT_FALSE(std::string(d.unit).empty()) << d.name;
    }
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("µs"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name("core.packets.REQUEST_MSG"));
}

TEST(Metrics, ReportRequiresEveryMetric) {
  Report r(false);
  EXPECT_THROW(r.set("des.events", 1), std::logic_error);
  EXPECT_THROW((void)r.json(), std::logic_error);
  for (const MetricDef& d : end_to_end_metrics()) r.set(d.name, 1.5);
  r.attempted = 10;
  r.failed = 1;
  std::string json = r.json();
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 1", 0), 0u);
  EXPECT_NE(json.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"), std::string::npos);
}

/// Binds a UDP socket on 127.0.0.1:`port`; returns the fd or -1.
int hold_port(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(Ports, RebindsOnCollision) {
  // Occupy one port inside the first candidate block.
  std::uint16_t taken = 0;
  int fd = -1;
  for (int attempt = 0; fd < 0 && attempt < 50; ++attempt) {
    taken = static_cast<std::uint16_t>(default_port_base(99, attempt) + 5);
    fd = hold_port(taken);
  }
  ASSERT_GE(fd, 0);
  byzcast::net::IoLoop loop(1);
  std::vector<std::uint16_t> tried;
  int used = 0;
  auto fleet = bind_fleet(
      loop, 16,
      [&](int attempt) {
        std::uint16_t base = attempt == 0 ? static_cast<std::uint16_t>(taken - 5)
                                          : default_port_base(1234, attempt);
        tried.push_back(base);
        return base;
      },
      16, &used);
  EXPECT_EQ(fleet.size(), 16u);
  EXPECT_GE(used, 2);
  EXPECT_EQ(tried.front(), taken - 5);
  fleet.clear();
  // The collided block was released in full: its free ports bind again.
  int again = hold_port(static_cast<std::uint16_t>(taken - 5));
  EXPECT_GE(again, 0);
  if (again >= 0) ::close(again);
  ::close(fd);
}

TEST(Ports, GivesUpAfterMaxAttempts) {
  std::uint16_t taken = 0;
  int fd = -1;
  for (int attempt = 0; fd < 0 && attempt < 50; ++attempt) {
    taken = default_port_base(77, attempt);
    fd = hold_port(taken);
  }
  ASSERT_GE(fd, 0);
  byzcast::net::IoLoop loop(1);
  EXPECT_THROW(bind_fleet(loop, 16, [&](int) { return taken; }, 3, nullptr),
               std::runtime_error);
  ::close(fd);
}

}  // namespace
}  // namespace byzbench
