#include "placement/placement.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"
#include "common/params.h"

namespace thunderbolt::placement {

namespace {

[[noreturn]] void AbortBadParams(const std::string& spec,
                                 const std::string& why) {
  std::fprintf(stderr, "placement: bad params \"%s\": %s\n", spec.c_str(),
               why.c_str());
  std::abort();
}

/// The parsed value, or an abort naming `spec`: placement is cluster
/// configuration and a typo must not be ignored.
template <typename T>
T OrAbort(const std::string& spec, Result<T> parsed) {
  if (!parsed.ok()) AbortBadParams(spec, parsed.status().message());
  return std::move(parsed).value();
}

void OrAbort(const std::string& spec, const Status& status) {
  if (!status.ok()) AbortBadParams(spec, status.message());
}

uint32_t ParseShardCount(uint32_t num_shards) {
  return num_shards == 0 ? 1 : num_shards;
}

ShardId HashShard(const std::string& account, uint32_t num_shards) {
  return static_cast<ShardId>(Sha256::Digest(account).Prefix64() % num_shards);
}

}  // namespace

// --- AccessTracker ----------------------------------------------------------

void AccessTracker::RecordRemoteAccess(const std::string& account,
                                       ShardId home_shard) {
  std::lock_guard<std::mutex> lk(mu_);
  ++counts_[account][home_shard];
  ++total_;
}

std::vector<AccessTracker::AccountStats> AccessTracker::HottestRemote(
    size_t top_k) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<AccountStats> all;
  all.reserve(counts_.size());
  for (const auto& [account, by_shard] : counts_) {
    AccountStats s;
    s.account = account;
    s.by_shard.assign(by_shard.begin(), by_shard.end());
    std::sort(s.by_shard.begin(), s.by_shard.end());
    for (const auto& [shard, count] : s.by_shard) s.total += count;
    all.push_back(std::move(s));
  }
  std::sort(all.begin(), all.end(),
            [](const AccountStats& a, const AccountStats& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.account < b.account;
            });
  if (all.size() > top_k) all.resize(top_k);
  return all;
}

void AccessTracker::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  counts_.clear();
  total_ = 0;
}

uint64_t AccessTracker::total_remote_accesses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

bool AccessTracker::empty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_.empty();
}

// --- HashPlacement ----------------------------------------------------------

HashPlacement::HashPlacement(uint32_t num_shards)
    : num_shards_(ParseShardCount(num_shards)) {}

ShardId HashPlacement::ShardOfAccount(const std::string& account) const {
  return HashShard(account, num_shards_);
}

uint64_t HashPlacement::Fingerprint() const {
  Sha256 h;
  h.Update("placement.hash");
  h.UpdateInt(num_shards_);
  return h.Finalize().Prefix64();
}

// --- RangePlacement ---------------------------------------------------------

RangePlacement::RangePlacement(uint32_t num_shards,
                               std::vector<std::string> splits)
    : num_shards_(ParseShardCount(num_shards)), splits_(std::move(splits)) {
  assert(std::is_sorted(splits_.begin(), splits_.end()));
  assert(splits_.size() < num_shards_ || num_shards_ == 1);
  if (splits_.size() >= num_shards_) splits_.resize(num_shards_ - 1);
}

std::vector<std::string> RangePlacement::DefaultSplits(uint32_t num_shards) {
  num_shards = ParseShardCount(num_shards);
  std::vector<std::string> splits;
  splits.reserve(num_shards - 1);
  for (uint32_t i = 1; i < num_shards; ++i) {
    // Two-byte big-endian boundary at 65536 * i / n: strictly increasing
    // for any shard count, partitioning the prefix space evenly.
    uint32_t boundary = static_cast<uint32_t>(
        (static_cast<uint64_t>(i) << 16) / num_shards);
    std::string split;
    split.push_back(static_cast<char>(boundary >> 8));
    split.push_back(static_cast<char>(boundary & 0xff));
    splits.push_back(std::move(split));
  }
  return splits;
}

ShardId RangePlacement::ShardOfAccount(const std::string& account) const {
  return static_cast<ShardId>(
      std::upper_bound(splits_.begin(), splits_.end(), account) -
      splits_.begin());
}

uint64_t RangePlacement::Fingerprint() const {
  Sha256 h;
  h.Update("placement.range");
  h.UpdateInt(num_shards_);
  for (const std::string& s : splits_) {
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(s.size()));
    h.Update(s);
  }
  return h.Finalize().Prefix64();
}

// --- DirectoryPlacement -----------------------------------------------------

DirectoryPlacement::DirectoryPlacement(uint32_t num_shards, uint32_t top_k,
                                       uint32_t max_entries)
    : num_shards_(ParseShardCount(num_shards)),
      top_k_(top_k == 0 ? 1 : top_k),
      max_entries_(max_entries == 0 ? 1 : max_entries) {}

ShardId DirectoryPlacement::ShardOfAccount(const std::string& account) const {
  auto it = directory_.find(account);
  if (it != directory_.end()) return it->second.shard;
  return HashShard(account, num_shards_);
}

void DirectoryPlacement::PinAccount(
    const std::string& account, ShardId shard,
    std::vector<MigrationEvent>* events) {
  directory_[account] = Pin{shard, ++touch_counter_};
  BumpGeneration();
  while (directory_.size() > max_entries_) {
    // Strict LRU over migration order: evict the pin with the smallest
    // recency stamp (unique, so the victim is deterministic). The linear
    // victim scan is bounded by max_entries and only runs when an insert
    // overflows the bound — at reconfiguration boundaries (<= top_k
    // inserts per epoch) or config-time Assigns — so an index by touch
    // stamp would not pay for its bookkeeping.
    auto victim = directory_.begin();
    for (auto it = directory_.begin(); it != directory_.end(); ++it) {
      if (it->second.touch < victim->second.touch) victim = it;
    }
    const ShardId pinned = victim->second.shard;
    const ShardId fallback = HashShard(victim->first, num_shards_);
    if (events != nullptr && fallback != pinned) {
      events->push_back(
          MigrationEvent{victim->first, pinned, fallback, 0, 0});
    }
    directory_.erase(victim);
    BumpGeneration();
  }
}

void DirectoryPlacement::Assign(const std::string& account, ShardId shard) {
  PinAccount(account, shard % num_shards_, nullptr);
}

std::vector<MigrationEvent> DirectoryPlacement::Rebalance(
    const AccessTracker& stats) {
  std::vector<MigrationEvent> events;
  for (const AccessTracker::AccountStats& s : stats.HottestRemote(top_k_)) {
    const ShardId current = ShardOfAccount(s.account);
    // Target: the shard whose transactions reached out to this account
    // most often; ties break toward the lowest shard id.
    ShardId target = current;
    uint64_t best = 0;
    for (const auto& [shard, count] : s.by_shard) {
      if (count > best) {
        best = count;
        target = shard;
      }
    }
    if (target == current) continue;  // Already optimally placed.
    events.push_back(MigrationEvent{s.account, current, target, s.total, 0});
    PinAccount(s.account, target, &events);
  }
  return events;
}

uint64_t DirectoryPlacement::Fingerprint() const {
  Sha256 h;
  h.Update("placement.directory");
  h.UpdateInt(num_shards_);
  for (const auto& [account, pin] : directory_) {
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(account.size()));
    h.Update(account);
    h.UpdateInt(pin.shard);
  }
  return h.Finalize().Prefix64();
}

// --- LocalityPlacement ------------------------------------------------------

LocalityPlacement::LocalityPlacement(uint32_t num_shards, AccountGroupFn hint)
    : num_shards_(ParseShardCount(num_shards)), hint_(std::move(hint)) {}

ShardId LocalityPlacement::ShardOfAccount(const std::string& account) const {
  if (!hint_) return HashShard(account, num_shards_);
  return HashShard(hint_(account), num_shards_);
}

uint64_t LocalityPlacement::Fingerprint() const {
  Sha256 h;
  h.Update("placement.locality");
  h.UpdateInt(num_shards_);
  return h.Finalize().Prefix64();
}

// --- Params ----------------------------------------------------------------

namespace {

struct RangeParams {
  bool have_splits = false;
  std::vector<std::string> splits;
};

/// "range" params; the split count is checked when `num_shards` > 0.
Result<RangeParams> ParseRangeParams(const std::string& params,
                                     uint32_t num_shards) {
  THUNDERBOLT_ASSIGN_OR_RETURN(const std::vector<Param> parsed,
                               ParseParams(params));
  RangeParams out;
  for (const Param& p : parsed) {
    if (p.key != "splits") {
      return Status::InvalidArgument("range: unknown key \"" + p.key + "\"");
    }
    out.splits = Split(p.value, ';');
    out.have_splits = true;
    if (!std::is_sorted(out.splits.begin(), out.splits.end())) {
      return Status::InvalidArgument("splits must be sorted");
    }
    if (num_shards > 0 && out.splits.size() > num_shards - 1) {
      return Status::InvalidArgument("more splits than shard boundaries");
    }
  }
  return out;
}

struct DirectoryParams {
  uint32_t top_k = DirectoryPlacement::kDefaultTopK;
  uint32_t max_entries = DirectoryPlacement::kDefaultMaxEntries;
  std::vector<std::pair<std::string, ShardId>> assignments;
};

/// "directory" params; assign shards are bounded when `num_shards` > 0.
Result<DirectoryParams> ParseDirectoryParams(const std::string& params,
                                             uint32_t num_shards) {
  THUNDERBOLT_ASSIGN_OR_RETURN(const std::vector<Param> parsed,
                               ParseParams(params));
  DirectoryParams out;
  for (const Param& p : parsed) {
    if (p.key == "top_k") {
      THUNDERBOLT_ASSIGN_OR_RETURN(const uint64_t top_k,
                                   ParseUint(p, UINT32_MAX));
      out.top_k = static_cast<uint32_t>(top_k);
    } else if (p.key == "max_entries") {
      THUNDERBOLT_ASSIGN_OR_RETURN(const uint64_t max_entries,
                                   ParseUint(p, UINT32_MAX));
      out.max_entries = static_cast<uint32_t>(max_entries);
    } else if (p.key == "assign") {
      for (const std::string& entry : Split(p.value, ';')) {
        size_t colon = entry.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == entry.size()) {
          return Status::InvalidArgument("assign entry \"" + entry +
                                         "\" is not account:shard");
        }
        const Param shard_param{"assign entry \"" + entry + "\" shard",
                                entry.substr(colon + 1)};
        THUNDERBOLT_ASSIGN_OR_RETURN(
            const uint64_t shard,
            ParseUint(shard_param, num_shards > 0 ? num_shards - 1
                                                  : UINT32_MAX));
        out.assignments.emplace_back(entry.substr(0, colon),
                                     static_cast<ShardId>(shard));
      }
    } else {
      return Status::InvalidArgument("directory: unknown key \"" + p.key +
                                     "\"");
    }
  }
  return out;
}

}  // namespace

Status CheckPlacementParams(const std::string& name,
                            const PlacementOptions& options) {
  if (name == "hash" || name == "locality") {
    return CheckNoParams(name, options.params);
  }
  if (name == "range") {
    return ParseRangeParams(options.params, options.num_shards).status();
  }
  if (name == "directory") {
    return ParseDirectoryParams(options.params, options.num_shards).status();
  }
  return Status::OK();
}

// --- PlacementRegistry ------------------------------------------------------

PlacementRegistry& PlacementRegistry::Global() {
  static PlacementRegistry* registry = [] {
    auto* r = new PlacementRegistry();
    r->Register("hash", [](const PlacementOptions& options) {
      OrAbort(options.params, CheckNoParams("hash", options.params));
      return std::unique_ptr<PlacementPolicy>(
          new HashPlacement(options.num_shards));
    });
    r->Register("range", [](const PlacementOptions& options) {
      RangeParams range = OrAbort(
          options.params, ParseRangeParams(options.params, options.num_shards));
      if (!range.have_splits) {
        range.splits = RangePlacement::DefaultSplits(options.num_shards);
      }
      return std::unique_ptr<PlacementPolicy>(
          new RangePlacement(options.num_shards, std::move(range.splits)));
    });
    r->Register("directory", [](const PlacementOptions& options) {
      const DirectoryParams directory =
          OrAbort(options.params,
                  ParseDirectoryParams(options.params,
                                       ParseShardCount(options.num_shards)));
      auto policy = std::make_unique<DirectoryPlacement>(
          options.num_shards, directory.top_k, directory.max_entries);
      for (const auto& [account, shard] : directory.assignments) {
        policy->Assign(account, shard);
      }
      return std::unique_ptr<PlacementPolicy>(std::move(policy));
    });
    r->Register("locality", [](const PlacementOptions& options) {
      OrAbort(options.params, CheckNoParams("locality", options.params));
      return std::unique_ptr<PlacementPolicy>(
          new LocalityPlacement(options.num_shards, options.hint));
    });
    return r;
  }();
  return *registry;
}

}  // namespace thunderbolt::placement
