// Simulated authenticated point-to-point network.
//
// Substitutes for the paper's AWS LAN/WAN deployment. Messages between
// replicas are delivered through the shared discrete-event simulator with
// latency sampled from a configurable model. Deterministic given the seed.
// Supports crashing replicas and cutting individual links, which the
// failure and reconfiguration experiments (Figures 15-17) rely on.
//
// The network transports opaque payloads derived from net::Payload;
// protocol modules (dag/, core/) define concrete message types. In-process
// delivery means "signatures" are validated at the protocol layer via
// crypto::KeyDirectory (see crypto/signature.h).
#ifndef THUNDERBOLT_NET_NETWORK_H_
#define THUNDERBOLT_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/simulator.h"
#include "common/types.h"

namespace thunderbolt::net {

/// Base class for all protocol messages.
class Payload {
 public:
  virtual ~Payload() = default;

  /// Approximate wire size; drives the bandwidth and processing cost
  /// models. Control messages default to a small constant.
  virtual uint64_t SizeBytes() const { return 256; }
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Latency and processing model. A message of size S from A to B is
/// delivered at:
///   send_start  = max(now, nic_free[A])         (sender NIC serializes)
///   nic_free[A] = send_start + S / bandwidth
///   delivery    = nic_free[A] + propagation + S * receive_cost_per_byte
/// where propagation = base + Exp(jitter_mean) truncated at 10x jitter.
/// The receive term models deserialization + certificate verification of
/// large blocks, the dominant per-round CPU cost of DAG BFT systems.
struct LatencyModel {
  SimTime base = Micros(100);
  SimTime jitter_mean = Micros(50);
  /// Sender-side serialization: bytes per microsecond (125 B/us = 1 Gbps).
  uint64_t bandwidth_bytes_per_us = 300;
  /// Receiver-side processing, picoseconds per byte (5000 = 5 ns/B).
  uint64_t receive_ps_per_byte = 5000;

  /// Typical intra-datacenter link (~0.25 ms median propagation).
  static LatencyModel Lan() {
    LatencyModel m;
    m.base = Micros(200);
    m.jitter_mean = Micros(60);
    return m;
  }
  /// Typical cross-region link (~85 ms median propagation).
  static LatencyModel Wan() {
    LatencyModel m;
    m.base = Millis(80);
    m.jitter_mean = Millis(8);
    return m;
  }

  SimTime SamplePropagation(Rng& rng) const;
};

class SimNetwork {
 public:
  using Handler = std::function<void(ReplicaId from, const PayloadPtr&)>;

  SimNetwork(sim::Simulator* simulator, uint32_t n, LatencyModel latency,
             uint64_t seed);

  uint32_t size() const { return n_; }

  /// Installs the delivery handler for a replica.
  void RegisterHandler(ReplicaId id, Handler handler);

  /// Sends `payload` from -> to. Delivery is dropped when either endpoint
  /// is crashed or the link is cut. Self-sends are delivered with minimal
  /// (loopback) delay.
  void Send(ReplicaId from, ReplicaId to, PayloadPtr payload);

  /// Sends to every replica, including the sender (loopback), as DAG
  /// protocols deliver their own proposals locally.
  void Broadcast(ReplicaId from, PayloadPtr payload);

  /// Crashed replicas neither send nor receive.
  void Crash(ReplicaId id);
  void Restart(ReplicaId id);

  /// Cuts/restores an individual directed link (censorship simulation).
  void SetLink(ReplicaId from, ReplicaId to, bool up);

  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }

 private:
  bool LinkUp(ReplicaId from, ReplicaId to) const;

  sim::Simulator* simulator_;
  uint32_t n_;
  LatencyModel latency_;
  Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<bool> crashed_;
  std::vector<std::vector<bool>> link_up_;  // [from][to]
  std::vector<SimTime> nic_free_;           // Sender NIC availability.
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
};

}  // namespace thunderbolt::net

#endif  // THUNDERBOLT_NET_NETWORK_H_
