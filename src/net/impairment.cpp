#include "net/impairment.h"

#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace byzcast::net {

void flip_random_byte(std::uint8_t* data, std::size_t size, des::Rng& rng) {
  if (size == 0) return;
  data[rng.next_below(size)] ^= 0x01;
}

void ImpairmentMatrix::apply_to(NodeId dst, ImpairmentConfig& config) const {
  // Two passes — wildcard receivers first — so an exact-dst rule always
  // overrides a `*<-src` fleet-wide one for the same sender.
  for (const bool exact : {false, true}) {
    for (const Rule& rule : rules) {
      if ((rule.dst == kInvalidNode) == exact) continue;
      if (exact && rule.dst != dst) continue;
      if (rule.src == kInvalidNode) {
        config.link = rule.link;
      } else {
        config.per_peer[rule.src] = rule.link;
      }
    }
  }
}

namespace {

NodeId parse_matrix_node(const std::string& token, const std::string& line) {
  if (token == "*") return kInvalidNode;
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || v < 0) {
    throw std::invalid_argument("impair-matrix: bad node id '" + token +
                                "' in rule: " + line);
  }
  return static_cast<NodeId>(v);
}

double parse_matrix_prob(const std::string& value, const std::string& line) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || v < 0 || v > 1) {
    throw std::invalid_argument("impair-matrix: bad probability '" + value +
                                "' in rule: " + line);
  }
  return v;
}

double parse_matrix_ms(const std::string& value, const std::string& line) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || v < 0) {
    throw std::invalid_argument("impair-matrix: bad duration '" + value +
                                "' in rule: " + line);
  }
  return v;
}

}  // namespace

ImpairmentMatrix parse_impairment_matrix(const std::string& spec) {
  ImpairmentMatrix matrix;
  std::string normalized = spec;
  for (char& c : normalized) {
    if (c == ';') c = '\n';
  }
  std::istringstream lines(normalized);
  std::string line;
  while (std::getline(lines, line)) {
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    std::string ends;
    if (!(fields >> ends)) continue;  // blank / comment-only line

    const std::size_t arrow = ends.find("<-");
    if (arrow == std::string::npos) {
      throw std::invalid_argument(
          "impair-matrix: rule must start with DST<-SRC, got: " + line);
    }
    ImpairmentMatrix::Rule rule;
    rule.dst = parse_matrix_node(ends.substr(0, arrow), line);
    rule.src = parse_matrix_node(ends.substr(arrow + 2), line);

    std::string kv;
    while (fields >> kv) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("impair-matrix: expected key=value, got '" +
                                    kv + "' in rule: " + line);
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "drop") {
        rule.link.drop = parse_matrix_prob(value, line);
      } else if (key == "dup") {
        rule.link.duplicate = parse_matrix_prob(value, line);
      } else if (key == "reorder") {
        rule.link.reorder = parse_matrix_prob(value, line);
      } else if (key == "corrupt") {
        rule.link.corrupt = parse_matrix_prob(value, line);
      } else if (key == "delay-ms") {
        rule.link.delay_max = des::from_seconds(
            parse_matrix_ms(value, line) / 1000.0);
      } else if (key == "delay-min-ms") {
        rule.link.delay_min = des::from_seconds(
            parse_matrix_ms(value, line) / 1000.0);
      } else if (key == "hold-ms") {
        rule.link.reorder_hold = des::from_seconds(
            parse_matrix_ms(value, line) / 1000.0);
      } else {
        throw std::invalid_argument("impair-matrix: unknown key '" + key +
                                    "' in rule: " + line);
      }
    }
    matrix.rules.push_back(rule);
  }
  return matrix;
}

ImpairedTransport::ImpairedTransport(Env& env, Transport& inner,
                                     ImpairmentConfig config)
    : env_(env),
      inner_(inner),
      config_(std::move(config)),
      rng_(env.split_rng()) {
  inner_.set_receive_handler(
      [this](const radio::Frame& frame) { on_frame(frame); });
}

ImpairedTransport::~ImpairedTransport() {
  for (TimerId id : in_flight_) env_.cancel(id);
}

des::SimDuration ImpairedTransport::roll_delay(const LinkImpairment& link) {
  if (link.delay_max <= link.delay_min) return link.delay_min;
  const auto span = static_cast<std::uint64_t>(link.delay_max -
                                               link.delay_min);
  return link.delay_min +
         static_cast<des::SimDuration>(rng_.next_below(span + 1));
}

void ImpairedTransport::on_frame(const radio::Frame& frame) {
  const LinkImpairment& link = config_.for_peer(frame.sender);
  if (!link.any()) {
    ++stats_.forwarded;
    if (handler_) handler_(frame);
    return;
  }

  if (link.drop > 0 && rng_.next_double() < link.drop) {
    ++stats_.dropped;
    return;
  }

  radio::Frame out = frame;
  if (link.corrupt > 0 && rng_.next_double() < link.corrupt) {
    std::vector<std::uint8_t> bytes(frame.payload.data(),
                                    frame.payload.data() +
                                        frame.payload.size());
    flip_random_byte(bytes.data(), bytes.size(), rng_);
    out.payload = util::Buffer(std::move(bytes));
    ++stats_.corrupted;
  }

  const bool dup = link.duplicate > 0 && rng_.next_double() < link.duplicate;

  des::SimDuration delay = roll_delay(link);
  if (link.reorder > 0 && rng_.next_double() < link.reorder) {
    delay += link.reorder_hold;
    ++stats_.reordered;
  }
  deliver(out, delay);

  if (dup) {
    ++stats_.duplicated;
    // The copy rolls its own delay, so a duplicate can land before or
    // after the original — duplication doubles as mild reordering.
    deliver(std::move(out), roll_delay(link));
  }
}

void ImpairmentStats::emit_gauges(obs::GaugeVisitor& visitor) const {
  visitor.gauge("impair_forwarded", static_cast<std::int64_t>(forwarded));
  visitor.gauge("impair_dropped", static_cast<std::int64_t>(dropped));
  visitor.gauge("impair_duplicated", static_cast<std::int64_t>(duplicated));
  visitor.gauge("impair_reordered", static_cast<std::int64_t>(reordered));
  visitor.gauge("impair_delayed", static_cast<std::int64_t>(delayed));
  visitor.gauge("impair_corrupted", static_cast<std::int64_t>(corrupted));
}

void ImpairedTransport::poll_gauges(obs::GaugeVisitor& visitor) const {
  stats_.emit_gauges(visitor);
}

void ImpairedTransport::deliver(radio::Frame frame, des::SimDuration delay) {
  if (delay == 0) {
    ++stats_.forwarded;
    if (handler_) handler_(frame);
    return;
  }
  ++stats_.delayed;
  // The timer id only exists after schedule_after returns, but the
  // callback needs it to deregister itself — a shared slot bridges the
  // gap (safe: both backends dispatch single-threaded, so the callback
  // cannot run before the slot is filled).
  auto slot = std::make_shared<TimerId>(0);
  *slot = env_.schedule_after(
      delay, [this, slot, frame = std::move(frame)]() mutable {
        in_flight_.erase(*slot);
        ++stats_.forwarded;
        if (handler_) handler_(frame);
      });
  in_flight_.insert(*slot);
}

}  // namespace byzcast::net
