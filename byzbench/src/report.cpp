#include "report.h"

#include <cmath>
#include <cstdio>

namespace byzbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"deliveries_per_s", "1/s"},
      {"cpu_us_per_delivery", "us"},
      {"delivery_ratio", "1"},
      {"delivery_p50_ms", "ms"},
      {"delivery_p90_ms", "ms"},
      {"packets_per_delivery", "1"},
      {"bytes_per_delivery", "B"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // des: the event kernel (dispatch loop, timer wheel).
      {"des.events", "count"},
      {"des.events_per_s", "1/s"},
      {"des.dispatch_ms", "ms"},
      {"des.self_ms", "ms"},
      // radio: the simulated medium's per-frame fan-out.
      {"radio.fanout_calls", "count"},
      {"radio.fanout_ms", "ms"},
      {"radio.frames_offered", "count"},
      {"radio.frames_delivered", "count"},
      {"radio.frames_collided", "count"},
      {"radio.delivered_ratio", "1"},
      // codec: core/message serialize and parse.
      {"codec.parse_calls", "count"},
      {"codec.parse_ms", "ms"},
      {"codec.serialize_calls", "count"},
      {"codec.serialize_ms", "ms"},
      // crypto: signatures.
      {"crypto.verify_calls", "count"},
      {"crypto.verify_ms", "ms"},
      {"crypto.sign_calls", "count"},
      {"crypto.sign_ms", "ms"},
      {"crypto.verifies_per_delivery", "1"},
      // core: node handlers, MessageStore, gossip, overlay (the residual).
      {"core.self_ms", "ms"},
      {"core.self_share", "1"},
      {"core.rx_calls", "count"},
      {"core.rx_ms", "ms"},
      {"core.timer_calls", "count"},
      {"core.timer_ms", "ms"},
      {"core.packets.DATA", "count"},
      {"core.packets.GOSSIP", "count"},
      {"core.packets.REQUEST_MSG", "count"},
      {"core.packets.FIND_MISSING_MSG", "count"},
      {"core.packets.HELLO", "count"},
      {"core.recovery_per_delivery", "1"},
      {"core.store_max", "count"},
      {"core.latency_samples", "count"},
      {"core.broadcasts", "count"},
      {"core.delivery_p99_ms", "ms"},
      // fd: failure detectors.
      {"fd.mute_suspects", "count"},
      {"fd.false_suspicions", "count"},
      // sync: range-sync catch-up.
      {"sync.recovery_bytes", "B"},
      {"sync.recovery_packets", "count"},
      {"sync.recoveries", "count"},
      {"sync.catchups_completed", "count"},
      {"sync.catchup_p50_s", "s"},
      // net: the live transport and its loop.
      {"net.send_calls", "count"},
      {"net.send_ms", "ms"},
      {"net.datagrams_received", "count"},
      {"net.datagrams_rejected", "count"},
      {"net.send_errors", "count"},
      {"net.send_retries", "count"},
      {"net.send_drops", "count"},
      {"net.idle_ms", "ms"},
      {"net.loop_self_ms", "ms"},
      {"net.busy_ratio", "1"},
      // sanity: the generator and the cost of tracing.
      {"generator.late_p99_ms", "ms"},
      {"trace.overhead_ratio", "1"},
      {"account.wall_ms", "ms"},
  };
  return defs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

Report::Report(bool trace)
    : defs_(trace ? per_layer_metrics() : end_to_end_metrics()) {}

void Report::set(const std::string& name, double value) {
  for (const MetricDef& def : defs_) {
    if (name == def.name) {
      if (!std::isfinite(value)) {
        throw std::logic_error("metric " + name + " is not finite");
      }
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("metric " + name + " is not declared for this run");
}

std::string Report::table() const {
  std::string out;
  char line[160];
  for (const MetricDef& def : defs_) {
    auto it = values_.find(def.name);
    std::snprintf(line, sizeof line, "  %-32s %18.6f %s\n", def.name,
                  it == values_.end() ? 0.0 : it->second, def.unit);
    out += line;
  }
  return out;
}

std::string Report::json() const {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char num[64];
  bool first = true;
  for (const MetricDef& def : defs_) {
    auto it = values_.find(def.name);
    if (it == values_.end()) {
      throw std::logic_error(std::string("metric ") + def.name + " not set");
    }
    std::snprintf(num, sizeof num, "%.17g", it->second);
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(def.name).append("\": {\"value\": ").append(num);
    out.append(", \"unit\": \"").append(def.unit).append("\"}");
  }
  out += "}}";
  return out;
}

}  // namespace byzbench
