// The "wal" storage backend: an append-only, CRC-framed, group-committed
// write-ahead log + periodic checkpoints layered over any registered store.
//
// Spec: wal:dir=<path>,group_commit=<n>,checkpoint_every=<n>,fsync=<0|1>,
//       inner=<spec>
// Defaults: ephemeral temp dir (removed on destruction), group_commit=8,
// checkpoint_every=1024, fsync=0, inner="mem". Give `dir=` a real path to
// make the store durable across process lifetimes.
//
// Write path. Every mutation is encoded as one log frame (Put/Delete as a
// single-entry batch frame, so replay reuses the live Write() path and
// reproduces version semantics exactly), buffered in memory, and applied
// to the inner store immediately. A flush barrier — fwrite + fflush, plus
// fsync when `fsync=1` — runs once per `group_commit` frames, on Flush(),
// at checkpoint, and at destruction. That is the paper-shaped durability
// trade: one barrier absorbs a committed wave of writes, so raising
// group_commit amortizes the stall at the cost of a wider
// may-be-lost-on-kill window (bounded by group_commit frames).
//
// Frame format (little-endian): magic 'TBWA' u32 | payload_len u32 |
// seq u64 | type u8 | crc32 u32 | payload. The CRC (poly 0xEDB88320)
// covers type, seq and payload. Batch payload: count u32, then per entry
// op u8, klen u32, key, value u64. Restore payload: klen u32, key,
// value u64, version u64.
//
// Checkpoints bound replay: the full inner state is written to a side file
// (tmp + rename, so a crash mid-checkpoint leaves the old one intact) with
// exact versions, and the log restarts empty. Recovery at construction
// loads the newest valid checkpoint via RestoreEntry, then replays log
// frames with seq beyond it, **stopping at the first bad frame** — a torn
// or truncated tail (kill -9 mid-append) silently rolls back to the last
// durable prefix, never failing recovery. The torn tail is trimmed from
// the file so post-recovery appends extend the valid prefix.
//
// Durability contract: after recovery the store equals the state produced
// by some prefix of the acknowledged mutation sequence that includes every
// mutation up to the last completed barrier (wal_recovery_property_test
// pins this across random kill offsets).
//
// wal.append / wal.checkpoint / wal.recover spans are emitted through
// StoreOptions::tracer with StoreOptions::now_us timestamps, and the
// wal_appends/wal_syncs/wal_checkpoints/wal_recovered_records counters
// surface through Stats().
#ifndef THUNDERBOLT_STORAGE_WAL_KV_STORE_H_
#define THUNDERBOLT_STORAGE_WAL_KV_STORE_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "storage/kv_store.h"

namespace thunderbolt::obs {
class Tracer;
}  // namespace thunderbolt::obs

namespace thunderbolt::storage {

/// CRC-32 (poly 0xEDB88320, the zlib polynomial) over `data`. Exposed for
/// the recovery property test to forge/verify frames.
uint32_t Crc32(const void* data, size_t size);

class WalKVStore final : public KVStore {
 public:
  static constexpr const char* kLogFileName = "wal.log";
  static constexpr const char* kCheckpointFileName = "checkpoint";

  struct Params {
    std::string inner_spec = "mem";
    std::string dir;               // Empty = ephemeral temp dir.
    size_t group_commit = 8;       // Frames per flush barrier (min 1).
    size_t checkpoint_every = 1024;  // Frames between checkpoints; 0 = off.
    bool fsync = false;            // fsync() at each barrier + checkpoint.
  };

  /// Opens (and recovers, when `params.dir` holds a previous incarnation's
  /// files) a WAL over `inner`. `options` supplies tracer + clock.
  WalKVStore(std::unique_ptr<KVStore> inner, Params params,
             const StoreOptions& options);
  /// Flushes pending frames, closes the log, and removes the directory
  /// when it was ephemeral.
  ~WalKVStore() override;

  /// Registry factory: parses StoreOptions::params (see file comment).
  /// Returns nullptr on unknown params, a malformed value (the counts are
  /// unsigned decimals, fsync one of 0|1|true|false) or an unresolvable
  /// inner spec.
  static std::unique_ptr<KVStore> FromOptions(const StoreOptions& options);

  std::string name() const override { return "wal"; }
  Result<VersionedValue> Get(const Key& key) const override;
  Value GetOrDefault(const Key& key, Value default_value) const override;
  Status Put(const Key& key, Value value) override;
  Status Delete(const Key& key) override;
  Status Write(const WriteBatch& batch) override;
  Status RestoreEntry(const Key& key, const VersionedValue& vv) override;
  /// Group-commit barrier: makes every acknowledged mutation durable.
  Status Flush() override;
  size_t size() const override { return inner_->size(); }
  std::vector<ScanEntry> Scan(const Key& begin, const Key& end,
                              size_t limit = 0) const override;
  std::shared_ptr<const StoreSnapshot> Snapshot() const override;
  /// Ephemeral fork: returns a fork of the inner store with NO log of its
  /// own (forks serve speculative validation state, which must not pollute
  /// the durable history).
  std::unique_ptr<KVStore> Fork() const override;
  void Reserve(size_t expected_keys) override {
    inner_->Reserve(expected_keys);
  }
  uint64_t ContentFingerprint() const override {
    return inner_->ContentFingerprint();
  }
  StoreStats Stats() const override;

  /// Writes a full checkpoint and truncates the log. Also triggered
  /// automatically every `checkpoint_every` frames.
  Status Checkpoint();

  const std::string& dir() const { return dir_; }
  std::string log_path() const;
  std::string checkpoint_path() const;

 private:
  Status AppendFrame(uint8_t type, const std::string& payload);
  /// Checkpoints when the automatic cadence is due. Must only run AFTER
  /// the triggering frame's mutation has been applied to inner_ — a
  /// checkpoint taken between append and apply would mark the frame
  /// durable, truncate the log, and lose the mutation.
  Status MaybeCheckpoint();
  Status Barrier();
  void Recover();
  uint64_t NowUs() const { return now_us_ ? now_us_() : 0; }

  std::unique_ptr<KVStore> inner_;
  Params params_;
  obs::Tracer* tracer_;            // Never null (falls back to the null tracer).
  std::function<uint64_t()> now_us_;
  std::string dir_;
  bool ephemeral_dir_ = false;
  std::FILE* log_ = nullptr;
  Status io_status_;               // Sticky first IO failure.
  std::string buffer_;             // Encoded frames awaiting a barrier.
  size_t pending_frames_ = 0;
  size_t frames_since_checkpoint_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t checkpoint_seq_ = 0;    // Highest seq covered by the checkpoint.
  mutable StoreCounters counters_;
};

}  // namespace thunderbolt::storage

#endif  // THUNDERBOLT_STORAGE_WAL_KV_STORE_H_
