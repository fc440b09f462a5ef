// Shared vocabulary types used throughout Thunderbolt.
#ifndef THUNDERBOLT_COMMON_TYPES_H_
#define THUNDERBOLT_COMMON_TYPES_H_

#include <cstdint>
#include <string>

namespace thunderbolt {

/// Identifies a replica. Replicas are numbered 0..n-1.
using ReplicaId = uint32_t;

/// Identifies a shard. Thunderbolt assigns one shard per replica, but the
/// mapping shard -> proposing replica rotates across DAG epochs.
using ShardId = uint32_t;

/// DAG round number, starting at 1 within each DAG epoch.
using Round = uint64_t;

/// DAG instance (epoch) number. Reconfiguration switches to epoch + 1.
using EpochId = uint64_t;

/// Globally unique transaction identifier (client id << 32 | sequence).
using TxnId = uint64_t;

/// Virtual time in microseconds (see sim::Simulator).
using SimTime = uint64_t;

constexpr SimTime kSimTimeNever = ~SimTime{0};

/// Converts common units to SimTime microseconds.
constexpr SimTime Micros(uint64_t us) { return us; }
constexpr SimTime Millis(uint64_t ms) { return ms * 1000; }
constexpr SimTime Seconds(uint64_t s) { return s * 1000 * 1000; }

constexpr double ToSeconds(SimTime t) {
  return static_cast<double>(t) / 1e6;
}

/// The number of Byzantine faults tolerated by n replicas (n = 3f + 1).
constexpr uint32_t MaxFaults(uint32_t n) { return (n - 1) / 3; }

/// Quorum size 2f + 1 for n = 3f + 1 replicas.
constexpr uint32_t QuorumSize(uint32_t n) { return 2 * MaxFaults(n) + 1; }

/// The "weak" quorum f + 1 guaranteeing at least one honest member.
constexpr uint32_t WeakQuorumSize(uint32_t n) { return MaxFaults(n) + 1; }

}  // namespace thunderbolt

#endif  // THUNDERBOLT_COMMON_TYPES_H_
