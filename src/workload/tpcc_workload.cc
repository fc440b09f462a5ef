#include "workload/tpcc_workload.h"

#include <algorithm>
#include <set>
#include <vector>

#include "contract/tpcc_lite.h"

namespace thunderbolt::workload {

namespace {

storage::Value ReadOrZero(const storage::KVStore& store,
                          const std::string& key) {
  return store.GetOrDefault(key, 0);
}

/// NewOrder needs kTpccOrderItems *distinct* items, so the pool must be at
/// least that large (a smaller value would hang the duplicate-slide loop).
WorkloadOptions ClampTpccOptions(WorkloadOptions options) {
  options.num_items = std::max<uint32_t>(
      options.num_items, static_cast<uint32_t>(contract::kTpccOrderItems));
  return options;
}

}  // namespace

TpccLiteWorkload::TpccLiteWorkload(const WorkloadOptions& requested)
    : Workload(ClampTpccOptions(requested)),
      num_customers_(static_cast<uint64_t>(options().num_warehouses) *
                     options().districts_per_warehouse *
                     options().customers_per_district),
      customer_zipf_(num_customers_, options().theta),
      item_zipf_(options().num_items, options().theta) {
  RebuildShardBuckets();
}

void TpccLiteWorkload::RebuildShardBuckets() {
  // Shard-homed generation picks uniformly within a bucket: no generators.
  BuildShardBuckets(
      static_cast<uint64_t>(options().num_warehouses) *
          options().districts_per_warehouse,
      [this](uint64_t i) {
        uint32_t w, d;
        DistrictAt(i, &w, &d);
        return DistrictName(w, d);
      },
      /*zipfian=*/false);
}

void TpccLiteWorkload::DistrictAt(uint64_t i, uint32_t* w,
                                  uint32_t* d) const {
  *w = static_cast<uint32_t>(i / options().districts_per_warehouse);
  *d = static_cast<uint32_t>(i % options().districts_per_warehouse);
}

std::string TpccLiteWorkload::PlacementHint(const std::string& account) const {
  // Warehouse-rooted entities ("w3", "w3.d5", "w3.d5.c12") fold onto their
  // warehouse prefix; anything else (items) groups with itself.
  if (account.empty() || account[0] != 'w' || account.size() < 2 ||
      account[1] < '0' || account[1] > '9') {
    return account;
  }
  size_t dot = account.find('.');
  if (dot == std::string::npos) return account;
  return account.substr(0, dot);
}

std::string TpccLiteWorkload::WarehouseName(uint32_t w) {
  return "w" + std::to_string(w);
}

std::string TpccLiteWorkload::DistrictName(uint32_t w, uint32_t d) {
  return WarehouseName(w) + ".d" + std::to_string(d);
}

std::string TpccLiteWorkload::CustomerName(uint32_t w, uint32_t d,
                                           uint32_t c) {
  return DistrictName(w, d) + ".c" + std::to_string(c);
}

std::string TpccLiteWorkload::ItemName(uint32_t i) {
  return "item" + std::to_string(i);
}

void TpccLiteWorkload::InitStore(storage::KVStore* store) const {
  store->Reserve(store->size() + options().num_warehouses +
                 2 * num_customers_ + options().num_items);
  for (uint32_t w = 0; w < options().num_warehouses; ++w) {
    store->Put(WarehouseName(w) + "/ytd", 0);
    for (uint32_t d = 0; d < options().districts_per_warehouse; ++d) {
      std::string district = DistrictName(w, d);
      store->Put(district + "/ytd", 0);
      store->Put(district + "/next_oid", kInitialOrderId);
      for (uint32_t c = 0; c < options().customers_per_district; ++c) {
        std::string customer = CustomerName(w, d, c);
        store->Put(customer + "/balance", kInitialBalance);
        if (HasBadCredit(w, d, c)) store->Put(customer + "/credit", 1);
      }
    }
  }
  for (uint32_t i = 0; i < options().num_items; ++i) {
    store->Put(ItemName(i) + "/stock", kInitialStock);
  }
}

void TpccLiteWorkload::CustomerAt(uint64_t rank, uint32_t* w, uint32_t* d,
                                  uint32_t* c) const {
  *c = static_cast<uint32_t>(rank % options().customers_per_district);
  DistrictAt(rank / options().customers_per_district, w, d);
}

txn::Transaction TpccLiteWorkload::MakePayment(uint32_t w, uint32_t d,
                                               uint32_t c) {
  return MakeRemotePayment(w, d, w, d, c);
}

txn::Transaction TpccLiteWorkload::MakeRemotePayment(uint32_t w, uint32_t d,
                                                     uint32_t cw, uint32_t cd,
                                                     uint32_t c) {
  txn::Transaction tx = NewTransaction(contract::kTpccPayment);
  tx.accounts = {WarehouseName(w), DistrictName(w, d),
                 CustomerName(cw, cd, c)};
  tx.params.push_back(
      static_cast<storage::Value>(rng_.NextRange(1, kMaxPaymentAmount)));
  return tx;
}

txn::Transaction TpccLiteWorkload::MakeNewOrder(uint32_t w, uint32_t d) {
  txn::Transaction tx = NewTransaction(contract::kTpccNewOrder);
  tx.accounts.push_back(DistrictName(w, d));
  // Distinct items, Zipfian-hot; duplicates slide to the next item id so a
  // tiny item pool still yields kTpccOrderItems distinct accounts.
  std::set<uint64_t> picked;
  while (picked.size() < static_cast<size_t>(contract::kTpccOrderItems)) {
    uint64_t item = item_zipf_.Next(rng_);
    while (picked.count(item) != 0) item = (item + 1) % options().num_items;
    picked.insert(item);
    tx.accounts.push_back(ItemName(static_cast<uint32_t>(item)));
    tx.params.push_back(
        static_cast<storage::Value>(rng_.NextRange(1, kMaxOrderQuantity)));
  }
  return tx;
}

txn::Transaction TpccLiteWorkload::Next() {
  uint32_t w, d, c;
  CustomerAt(customer_zipf_.Next(rng_), &w, &d, &c);
  if (rng_.NextBool(options().payment_ratio)) return MakePayment(w, d, c);
  return MakeNewOrder(w, d);
}

txn::Transaction TpccLiteWorkload::NextForShard(ShardId shard) {
  const std::vector<uint64_t>& bucket = shard_buckets_[shard];
  uint32_t w, d, c;
  if (bucket.empty()) {
    CustomerAt(customer_zipf_.Next(rng_), &w, &d, &c);
  } else {
    DistrictAt(bucket[rng_.NextBounded(bucket.size())], &w, &d);
    c = static_cast<uint32_t>(
        rng_.NextBounded(options().customers_per_district));
  }
  // Remote payment: the home district collects the payment but the credited
  // customer lives in a district of another shard. Gated on a positive
  // ratio so existing configurations keep their RNG stream.
  if (options().num_shards > 1 && options().cross_shard_ratio > 0 &&
      !bucket.empty() && rng_.NextBool(options().cross_shard_ratio)) {
    const std::vector<uint64_t>& remote = shard_buckets_[OtherShard(shard)];
    if (!remote.empty()) {
      uint32_t cw, cd;
      DistrictAt(remote[rng_.NextBounded(remote.size())], &cw, &cd);
      uint32_t cc = static_cast<uint32_t>(
          rng_.NextBounded(options().customers_per_district));
      return MakeRemotePayment(w, d, cw, cd, cc);
    }
  }
  if (rng_.NextBool(options().payment_ratio)) return MakePayment(w, d, c);
  return MakeNewOrder(w, d);
}

ShardId TpccLiteWorkload::HomeShard(const txn::Transaction& tx) const {
  // Payments list {warehouse, district, customer}; NewOrders lead with the
  // district. The district account is the anchor in both cases.
  if (tx.contract == contract::kTpccPayment && tx.accounts.size() >= 2) {
    return mapper_.ShardOfAccount(tx.accounts[1]);
  }
  if (tx.accounts.empty()) return 0;
  return mapper_.ShardOfAccount(tx.accounts.front());
}

Status TpccLiteWorkload::CheckInvariant(
    const storage::KVStore& store) const {
  // Remote payments decouple the paying warehouse from the credited
  // customer, so the customer breakdown only balances globally.
  const bool remote_payments =
      options().num_shards > 1 && options().cross_shard_ratio > 0;
  storage::Value global_warehouse_ytd = 0;
  storage::Value global_district_ytd = 0;
  storage::Value global_customer_ytd = 0;
  for (uint32_t w = 0; w < options().num_warehouses; ++w) {
    storage::Value district_ytd_sum = 0;
    storage::Value customer_ytd_sum = 0;
    for (uint32_t d = 0; d < options().districts_per_warehouse; ++d) {
      std::string district = DistrictName(w, d);
      district_ytd_sum += ReadOrZero(store, district + "/ytd");
      storage::Value next_oid = ReadOrZero(store, district + "/next_oid");
      storage::Value order_cnt = ReadOrZero(store, district + "/order_cnt");
      if (next_oid - kInitialOrderId != order_cnt) {
        return Status::Corruption(
            "tpcc_lite: " + district + " issued " +
            std::to_string(next_oid - kInitialOrderId) +
            " order ids but recorded " + std::to_string(order_cnt) +
            " orders");
      }
      for (uint32_t c = 0; c < options().customers_per_district; ++c) {
        customer_ytd_sum +=
            ReadOrZero(store, CustomerName(w, d, c) + "/ytd_payment");
      }
    }
    storage::Value warehouse_ytd = ReadOrZero(store, WarehouseName(w) + "/ytd");
    // Every payment flows through its paying warehouse and district
    // together, so this pair balances even with remote customers.
    if (warehouse_ytd != district_ytd_sum) {
      return Status::Corruption(
          "tpcc_lite: " + WarehouseName(w) + " ytd " +
          std::to_string(warehouse_ytd) + " != district sum " +
          std::to_string(district_ytd_sum));
    }
    if (!remote_payments && warehouse_ytd != customer_ytd_sum) {
      return Status::Corruption(
          "tpcc_lite: " + WarehouseName(w) + " ytd " +
          std::to_string(warehouse_ytd) + " != customer sum " +
          std::to_string(customer_ytd_sum));
    }
    global_warehouse_ytd += warehouse_ytd;
    global_district_ytd += district_ytd_sum;
    global_customer_ytd += customer_ytd_sum;
  }
  if (global_warehouse_ytd != global_district_ytd ||
      global_warehouse_ytd != global_customer_ytd) {
    return Status::Corruption(
        "tpcc_lite: global ytd mismatch: warehouses " +
        std::to_string(global_warehouse_ytd) + " / districts " +
        std::to_string(global_district_ytd) + " / customers " +
        std::to_string(global_customer_ytd));
  }
  for (uint32_t i = 0; i < options().num_items; ++i) {
    storage::Value stock = ReadOrZero(store, ItemName(i) + "/stock");
    if (stock < 0) {
      return Status::Corruption("tpcc_lite: " + ItemName(i) +
                                        " stock went negative: " +
                                        std::to_string(stock));
    }
  }
  return Status::OK();
}

}  // namespace thunderbolt::workload
