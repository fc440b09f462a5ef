#include "storage/wal_kv_store.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/params.h"
#include "obs/trace.h"

namespace thunderbolt::storage {

namespace {

constexpr uint32_t kFrameMagic = 0x54425741;       // 'TBWA'
constexpr uint32_t kCheckpointMagic = 0x5442434bu;  // 'TBCK'
// Header: magic u32 | payload_len u32 | seq u64 | type u8 | crc u32.
constexpr size_t kFrameHeaderSize = 4 + 4 + 8 + 1 + 4;
// A frame larger than this is treated as corruption, not an allocation
// request — payload_len is attacker/garbage-controlled during recovery.
constexpr uint32_t kMaxPayload = 1u << 26;

constexpr uint8_t kFrameBatch = 1;
constexpr uint8_t kFrameRestore = 2;

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

/// Bounds-checked little-endian cursor over a recovered byte buffer.
struct Reader {
  const char* p;
  size_t left;

  bool U8(uint8_t* v) {
    if (left < 1) return false;
    *v = static_cast<uint8_t>(*p);
    ++p;
    --left;
    return true;
  }
  bool U32(uint32_t* v) {
    if (left < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    p += 4;
    left -= 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (left < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    p += 8;
    left -= 8;
    return true;
  }
  bool Bytes(size_t n, std::string* out) {
    if (left < n) return false;
    out->assign(p, n);
    p += n;
    left -= n;
    return true;
  }
};

std::string EncodeBatchPayload(const WriteBatch& batch) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(batch.size()));
  for (const WriteBatch::Entry& e : batch.entries()) {
    payload.push_back(static_cast<char>(
        e.op == WriteBatch::Op::kDelete ? 1 : 0));
    PutU32(&payload, static_cast<uint32_t>(e.key.size()));
    payload += e.key;
    PutU64(&payload, static_cast<uint64_t>(e.value));
  }
  return payload;
}

bool DecodeBatchPayload(const std::string& payload, WriteBatch* batch) {
  Reader r{payload.data(), payload.size()};
  uint32_t count = 0;
  if (!r.U32(&count)) return false;
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t op = 0;
    uint32_t klen = 0;
    std::string key;
    uint64_t value = 0;
    if (!r.U8(&op) || !r.U32(&klen) || !r.Bytes(klen, &key) || !r.U64(&value)) {
      return false;
    }
    if (op == 1) {
      batch->Delete(std::move(key));
    } else {
      batch->Put(std::move(key), static_cast<Value>(value));
    }
  }
  return r.left == 0;
}

std::string EncodeRestorePayload(const Key& key, const VersionedValue& vv) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(key.size()));
  payload += key;
  PutU64(&payload, static_cast<uint64_t>(vv.value));
  PutU64(&payload, vv.version);
  return payload;
}

bool DecodeRestorePayload(const std::string& payload, Key* key,
                          VersionedValue* vv) {
  Reader r{payload.data(), payload.size()};
  uint32_t klen = 0;
  uint64_t value = 0, version = 0;
  if (!r.U32(&klen) || !r.Bytes(klen, key) || !r.U64(&value) ||
      !r.U64(&version)) {
    return false;
  }
  vv->value = static_cast<Value>(value);
  vv->version = version;
  return r.left == 0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

std::string MakeEphemeralDir() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("thunderbolt-wal-" +
#ifndef _WIN32
                  std::to_string(static_cast<uint64_t>(::getpid())) + "-" +
#endif
                  std::to_string(id));
  std::error_code ec;
  fs::create_directories(dir, ec);
  return dir.string();
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

WalKVStore::WalKVStore(std::unique_ptr<KVStore> inner, Params params,
                       const StoreOptions& options)
    : inner_(std::move(inner)),
      params_(std::move(params)),
      tracer_(options.tracer != nullptr ? options.tracer
                                        : obs::NullTracerInstance()),
      now_us_(options.now_us) {
  if (params_.group_commit == 0) params_.group_commit = 1;
  if (params_.dir.empty()) {
    dir_ = MakeEphemeralDir();
    ephemeral_dir_ = true;
  } else {
    dir_ = params_.dir;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }
  Recover();
  log_ = std::fopen(log_path().c_str(), "ab");
  if (log_ == nullptr) {
    io_status_ = Status::Internal("wal: cannot open log " + log_path());
  }
}

WalKVStore::~WalKVStore() {
  Barrier();
  if (log_ != nullptr) std::fclose(log_);
  if (ephemeral_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

std::string WalKVStore::log_path() const {
  return dir_ + "/" + kLogFileName;
}

std::string WalKVStore::checkpoint_path() const {
  return dir_ + "/" + kCheckpointFileName;
}

std::unique_ptr<KVStore> WalKVStore::FromOptions(const StoreOptions& options) {
  Params params;
  for (const auto& [key, value] : ParseStoreParams(options.params)) {
    if (key == "inner") {
      params.inner_spec = value;
    } else if (key == "dir") {
      params.dir = value;
    } else if (key == "group_commit" || key == "checkpoint_every") {
      const Result<uint64_t> v = ParseUint(Param{key, value}, SIZE_MAX);
      if (!v.ok()) return nullptr;
      (key == "group_commit" ? params.group_commit : params.checkpoint_every) =
          static_cast<size_t>(*v);
    } else if (key == "fsync") {
      params.fsync = value == "1" || value == "true";
      if (!params.fsync && value != "0" && value != "false") return nullptr;
    } else {
      return nullptr;  // Unknown param: reject, don't silently ignore.
    }
  }
  StoreOptions inner_options = options;
  inner_options.params.clear();  // The inner spec carries its own params.
  std::unique_ptr<KVStore> inner =
      StoreRegistry::Global().Create(params.inner_spec, inner_options);
  if (inner == nullptr) return nullptr;
  return std::make_unique<WalKVStore>(std::move(inner), std::move(params),
                                      options);
}

void WalKVStore::Recover() {
  const uint64_t start_us = NowUs();
  uint64_t checkpoint_entries = 0;
  uint64_t replayed_frames = 0;
  bool had_files = false;

  // 1. Checkpoint: all-or-nothing. tmp+rename publication means a valid
  // file is the common case; anything failing validation is ignored
  // wholesale (never partially applied).
  std::string data;
  if (ReadFile(checkpoint_path(), &data)) {
    had_files = true;
    Reader r{data.data(), data.size()};
    uint32_t magic = 0;
    uint64_t last_seq = 0, count = 0;
    bool ok = r.U32(&magic) && magic == kCheckpointMagic && r.U64(&last_seq) &&
              r.U64(&count) && data.size() >= 4 + 4 &&
              Crc32(data.data() + 4, data.size() - 8) ==
                  [&] {
                    uint32_t stored = 0;
                    std::memcpy(&stored, data.data() + data.size() - 4, 4);
                    return stored;
                  }();
    // Each entry occupies >= 20 bytes, so `count` beyond that bound is
    // corruption, caught before reserve() turns it into an allocation.
    ok = ok && count <= data.size() / 20;
    if (ok) {
      std::vector<std::pair<Key, VersionedValue>> entries;
      entries.reserve(count);
      for (uint64_t i = 0; ok && i < count; ++i) {
        uint32_t klen = 0;
        Key key;
        uint64_t value = 0, version = 0;
        ok = r.U32(&klen) && r.Bytes(klen, &key) && r.U64(&value) &&
             r.U64(&version);
        if (ok) {
          entries.emplace_back(
              std::move(key),
              VersionedValue{static_cast<Value>(value), version});
        }
      }
      // Entry area must end exactly at the trailing CRC.
      ok = ok && r.left == 4;
      if (ok) {
        for (const auto& [key, vv] : entries) {
          inner_->RestoreEntry(key, vv);
        }
        checkpoint_seq_ = last_seq;
        next_seq_ = last_seq + 1;
        checkpoint_entries = entries.size();
        counters_.wal_recovered_records.fetch_add(entries.size(),
                                                  std::memory_order_relaxed);
      }
    }
  }

  // 2. Log suffix: replay frames past the checkpoint, stopping at the
  // first bad frame (torn tail). The surviving prefix is rewritten so new
  // appends extend valid bytes, not garbage.
  std::string log;
  if (ReadFile(log_path(), &log)) {
    had_files = had_files || !log.empty();
    size_t pos = 0;
    while (log.size() - pos >= kFrameHeaderSize) {
      Reader r{log.data() + pos, log.size() - pos};
      uint32_t magic = 0, payload_len = 0, stored_crc = 0;
      uint64_t seq = 0;
      uint8_t type = 0;
      r.U32(&magic);
      r.U32(&payload_len);
      r.U64(&seq);
      r.U8(&type);
      r.U32(&stored_crc);
      if (magic != kFrameMagic || payload_len > kMaxPayload ||
          r.left < payload_len) {
        break;
      }
      std::string crc_input;
      crc_input.push_back(static_cast<char>(type));
      PutU64(&crc_input, seq);
      crc_input.append(r.p, payload_len);
      if (Crc32(crc_input.data(), crc_input.size()) != stored_crc) break;
      const std::string payload(r.p, payload_len);
      if (seq > checkpoint_seq_) {
        if (type == kFrameBatch) {
          WriteBatch batch;
          if (!DecodeBatchPayload(payload, &batch)) break;
          inner_->Write(batch);
        } else if (type == kFrameRestore) {
          Key key;
          VersionedValue vv;
          if (!DecodeRestorePayload(payload, &key, &vv)) break;
          inner_->RestoreEntry(key, vv);
        } else {
          break;  // Unknown frame type: treat as corruption.
        }
        ++replayed_frames;
        counters_.wal_recovered_records.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
      pos += kFrameHeaderSize + payload_len;
      if (seq >= next_seq_) next_seq_ = seq + 1;
    }
    if (pos < log.size()) {
      // Trim the torn tail to the last valid frame boundary.
      std::FILE* f = std::fopen(log_path().c_str(), "wb");
      if (f != nullptr) {
        std::fwrite(log.data(), 1, pos, f);
        std::fclose(f);
      }
    }
  }

  if (had_files && tracer_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWalRecover;
    event.ts_us = start_us;
    event.dur_us = NowUs() - start_us;
    event.a = checkpoint_entries;
    event.b = replayed_frames;
    tracer_->Record(event);
  }
}

Status WalKVStore::Barrier() {
  if (!io_status_.ok()) return io_status_;
  if (buffer_.empty()) return Status::OK();
  const uint64_t start_us = NowUs();
  const size_t frames = pending_frames_;
  const size_t bytes = buffer_.size();
  if (log_ == nullptr ||
      std::fwrite(buffer_.data(), 1, buffer_.size(), log_) != buffer_.size() ||
      std::fflush(log_) != 0) {
    io_status_ = Status::Internal("wal: log write failed");
    return io_status_;
  }
#ifndef _WIN32
  if (params_.fsync) ::fsync(::fileno(log_));
#endif
  buffer_.clear();
  pending_frames_ = 0;
  counters_.wal_syncs.fetch_add(1, std::memory_order_relaxed);
  if (tracer_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWalAppend;
    event.ts_us = start_us;
    event.dur_us = NowUs() - start_us;
    event.a = frames;
    event.b = bytes;
    tracer_->Record(event);
  }
  return Status::OK();
}

Status WalKVStore::AppendFrame(uint8_t type, const std::string& payload) {
  if (!io_status_.ok()) return io_status_;
  const uint64_t seq = next_seq_++;
  PutU32(&buffer_, kFrameMagic);
  PutU32(&buffer_, static_cast<uint32_t>(payload.size()));
  PutU64(&buffer_, seq);
  buffer_.push_back(static_cast<char>(type));
  std::string crc_input;
  crc_input.push_back(static_cast<char>(type));
  PutU64(&crc_input, seq);
  crc_input += payload;
  PutU32(&buffer_, Crc32(crc_input.data(), crc_input.size()));
  buffer_ += payload;
  counters_.wal_appends.fetch_add(1, std::memory_order_relaxed);
  ++pending_frames_;
  ++frames_since_checkpoint_;
  if (pending_frames_ >= params_.group_commit) {
    return Barrier();
  }
  // Checkpointing must NOT happen here: the frame's mutation has not been
  // applied to inner_ yet, so a checkpoint taken now would record last_seq
  // as durable while scanning a state that misses it — then truncate the
  // log and lose the mutation forever. MaybeCheckpoint() runs after the
  // inner apply instead.
  return Status::OK();
}

Status WalKVStore::MaybeCheckpoint() {
  if (params_.checkpoint_every > 0 &&
      frames_since_checkpoint_ >= params_.checkpoint_every) {
    return Checkpoint();
  }
  return Status::OK();
}

Status WalKVStore::Checkpoint() {
  Status s = Barrier();
  if (!s.ok()) return s;
  const uint64_t start_us = NowUs();
  const uint64_t last_seq = next_seq_ - 1;
  const std::vector<ScanEntry> entries = inner_->Scan("", "");

  std::string data;
  PutU32(&data, kCheckpointMagic);
  PutU64(&data, last_seq);
  PutU64(&data, static_cast<uint64_t>(entries.size()));
  for (const ScanEntry& e : entries) {
    PutU32(&data, static_cast<uint32_t>(e.key.size()));
    data += e.key;
    PutU64(&data, static_cast<uint64_t>(e.value.value));
    PutU64(&data, e.value.version);
  }
  PutU32(&data, Crc32(data.data() + 4, data.size() - 4));

  const std::string tmp = checkpoint_path() + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr || std::fwrite(data.data(), 1, data.size(), f) !=
                          data.size()) {
    if (f != nullptr) std::fclose(f);
    io_status_ = Status::Internal("wal: checkpoint write failed");
    return io_status_;
  }
  std::fflush(f);
#ifndef _WIN32
  if (params_.fsync) ::fsync(::fileno(f));
#endif
  std::fclose(f);
  std::error_code ec;
  std::filesystem::rename(tmp, checkpoint_path(), ec);
  if (ec) {
    io_status_ = Status::Internal("wal: checkpoint rename failed");
    return io_status_;
  }

  // Restart the log: everything up to last_seq now lives in the checkpoint.
  if (log_ != nullptr) std::fclose(log_);
  log_ = std::fopen(log_path().c_str(), "wb");
  if (log_ == nullptr) {
    io_status_ = Status::Internal("wal: log truncate failed");
    return io_status_;
  }
  checkpoint_seq_ = last_seq;
  frames_since_checkpoint_ = 0;
  counters_.wal_checkpoints.fetch_add(1, std::memory_order_relaxed);
  if (tracer_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWalCheckpoint;
    event.ts_us = start_us;
    event.dur_us = NowUs() - start_us;
    event.a = entries.size();
    event.b = last_seq;
    tracer_->Record(event);
  }
  return Status::OK();
}

Result<VersionedValue> WalKVStore::Get(const Key& key) const {
  counters_.gets.fetch_add(1, std::memory_order_relaxed);
  return inner_->Get(key);
}

Value WalKVStore::GetOrDefault(const Key& key, Value default_value) const {
  counters_.gets.fetch_add(1, std::memory_order_relaxed);
  return inner_->GetOrDefault(key, default_value);
}

Status WalKVStore::Put(const Key& key, Value value) {
  counters_.puts.fetch_add(1, std::memory_order_relaxed);
  WriteBatch one;
  one.Put(key, value);
  Status s = AppendFrame(kFrameBatch, EncodeBatchPayload(one));
  if (!s.ok()) return s;
  s = inner_->Put(key, value);
  if (!s.ok()) return s;
  return MaybeCheckpoint();
}

Status WalKVStore::Delete(const Key& key) {
  counters_.deletes.fetch_add(1, std::memory_order_relaxed);
  WriteBatch one;
  one.Delete(key);
  Status s = AppendFrame(kFrameBatch, EncodeBatchPayload(one));
  if (!s.ok()) return s;
  s = inner_->Delete(key);
  if (!s.ok()) return s;
  return MaybeCheckpoint();
}

Status WalKVStore::Write(const WriteBatch& batch) {
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
  for (const WriteBatch::Entry& e : batch.entries()) {
    if (e.op == WriteBatch::Op::kDelete) {
      counters_.deletes.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.puts.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Status s = AppendFrame(kFrameBatch, EncodeBatchPayload(batch));
  if (!s.ok()) return s;
  s = inner_->Write(batch);
  if (!s.ok()) return s;
  return MaybeCheckpoint();
}

Status WalKVStore::RestoreEntry(const Key& key, const VersionedValue& vv) {
  Status s = AppendFrame(kFrameRestore, EncodeRestorePayload(key, vv));
  if (!s.ok()) return s;
  s = inner_->RestoreEntry(key, vv);
  if (!s.ok()) return s;
  return MaybeCheckpoint();
}

Status WalKVStore::Flush() { return Barrier(); }

std::vector<ScanEntry> WalKVStore::Scan(const Key& begin, const Key& end,
                                        size_t limit) const {
  counters_.scans.fetch_add(1, std::memory_order_relaxed);
  return inner_->Scan(begin, end, limit);
}

std::shared_ptr<const StoreSnapshot> WalKVStore::Snapshot() const {
  counters_.snapshots.fetch_add(1, std::memory_order_relaxed);
  return inner_->Snapshot();
}

std::unique_ptr<KVStore> WalKVStore::Fork() const {
  counters_.forks.fetch_add(1, std::memory_order_relaxed);
  return inner_->Fork();
}

StoreStats WalKVStore::Stats() const {
  StoreStats stats = counters_.ToStats();
  stats.backend = name();
  const StoreStats inner = inner_->Stats();
  stats.live_keys = inner.live_keys;
  stats.cache_hits += inner.cache_hits;
  stats.cache_misses += inner.cache_misses;
  stats.wal_appends += inner.wal_appends;
  stats.wal_syncs += inner.wal_syncs;
  stats.wal_checkpoints += inner.wal_checkpoints;
  stats.wal_recovered_records += inner.wal_recovered_records;
  return stats;
}

}  // namespace thunderbolt::storage
