// The frame-level send/receive interface protocol nodes run against
// (DESIGN.md §13).
//
// A Transport is a broadcast-ish endpoint: send() offers one frame to
// every reachable peer, received frames arrive on the installed handler
// tagged with the *link-layer* sender identity. The frame currency is
// radio::Frame verbatim — an opaque shared-Buffer payload plus the
// transmitter id — so the entire zero-copy parse/retransmit pipeline
// (DESIGN.md §5a) is backend-agnostic. Two implementations:
//
//   radio::Radio (radio/radio.h) — the DES endpoint on the simulated
//     Medium, as des::Simulator is the DES net::Env; sender identity is
//     enforced by the medium (radio hardware cannot be spoofed).
//   net::UdpTransport (net/udp_backend.h) — fans a datagram out to a
//     configured peer list over UDP sockets; sender identity is a header
//     field (see net/datagram.h for what that does and does not promise).
#pragma once

#include <functional>

#include "radio/packet.h"
#include "util/bytes.h"
#include "util/node_id.h"

namespace byzcast::net {

class Transport {
 public:
  using ReceiveHandler = std::function<void(const radio::Frame&)>;

  virtual ~Transport() = default;

  /// Broadcasts `payload` to the one-hop neighbourhood / peer set. The
  /// buffer is shared, never copied, on its way to local receivers.
  virtual void send(util::Buffer payload) = 0;

  /// Installs the upper-layer receive callback (one consumer).
  virtual void set_receive_handler(ReceiveHandler handler) = 0;

  /// The link-layer identity frames from this endpoint carry.
  [[nodiscard]] virtual NodeId local_id() const = 0;
};

}  // namespace byzcast::net
