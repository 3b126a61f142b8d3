#include "baselines/flooding_node.h"

#include "core/message.h"  // kMaxPayloadBytes: one payload cap for all stacks
#include "util/bytes.h"

namespace byzcast::baselines {

namespace {
constexpr std::uint8_t kFloodType = 0x10;
}  // namespace

std::vector<std::uint8_t> FloodingNode::sign_bytes(
    NodeId origin, std::uint32_t seq, std::span<const std::uint8_t> payload) {
  util::ByteWriter w(9 + payload.size());
  w.u8(kFloodType);
  w.u32(origin);
  w.u32(seq);
  w.raw(payload);
  return w.take();
}

util::Buffer FloodingNode::serialize(const FloodPacket& packet) {
  util::ByteWriter w;
  w.u8(kFloodType);
  w.u32(packet.origin);
  w.u32(packet.seq);
  w.bytes(packet.payload);
  crypto::write_wire_signature(w, packet.sig);
  return w.take_buffer();
}

std::optional<FloodingNode::FloodPacket> FloodingNode::parse(
    const util::Buffer& bytes) {
  util::ByteReader r(bytes.span());
  if (r.u8() != kFloodType) return std::nullopt;
  FloodPacket packet;
  packet.origin = r.u32();
  packet.seq = r.u32();
  std::size_t payload_offset = r.pos() + 4;  // past the length prefix
  std::span<const std::uint8_t> payload = r.bytes_view();
  if (!r.ok() || payload.size() > core::kMaxPayloadBytes) return std::nullopt;
  packet.sig = crypto::read_wire_signature(r);
  if (!r.done()) return std::nullopt;
  packet.payload = bytes.slice(payload_offset, payload.size());
  packet.wire = bytes;
  return packet;
}

FloodingNode::FloodingNode(net::Env& env, net::Transport& transport,
                           const crypto::Pki& pki, crypto::Signer signer,
                           stats::Metrics* metrics)
    : env_(env),
      transport_(transport),
      pki_(pki),
      signer_(signer),
      metrics_(metrics) {
  transport_.set_receive_handler([this](const radio::Frame& frame) {
    std::optional<FloodPacket> packet = parse(frame.payload);
    if (packet) on_packet(*packet, frame.sender);
  });
}

void FloodingNode::send_flood(const FloodPacket& packet) {
  // Forwarded packets carry the frame bytes they arrived in; only a
  // freshly built packet pays for a serialization.
  util::Buffer bytes =
      packet.wire.empty() ? serialize(packet) : packet.wire;
  if (metrics_ != nullptr) {
    metrics_->on_packet_sent(stats::MsgKind::kData, bytes.size());
  }
  transport_.send(std::move(bytes));
}

void FloodingNode::broadcast(std::vector<std::uint8_t> payload) {
  FloodPacket packet;
  packet.origin = id();
  packet.seq = next_seq_++;
  packet.payload = std::move(payload);
  packet.sig = signer_.sign(sign_bytes(packet.origin, packet.seq,
                                       packet.payload));
  packet.wire = serialize(packet);
  seen_.emplace(packet.origin, packet.seq);
  if (metrics_ != nullptr) {
    metrics_->on_broadcast(stats::MessageKey{packet.origin, packet.seq},
                           env_.now(), targets_);
  }
  send_flood(packet);
}

void FloodingNode::on_packet(const FloodPacket& packet, NodeId /*from*/) {
  if (seen_.count({packet.origin, packet.seq}) > 0) return;
  // Verify before marking seen: a forged copy must not block the real one.
  if (!pki_.verify(packet.origin,
                   sign_bytes(packet.origin, packet.seq, packet.payload),
                   packet.sig)) {
    return;
  }
  seen_.emplace(packet.origin, packet.seq);
  if (metrics_ != nullptr) {
    metrics_->on_accept(stats::MessageKey{packet.origin, packet.seq}, id(),
                        env_.now());
  }
  if (accept_handler_) accept_handler_(packet.origin, packet.seq,
                                       packet.payload);
  send_flood(packet);
}

}  // namespace byzcast::baselines
