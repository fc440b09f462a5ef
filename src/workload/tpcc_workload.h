// TPC-C-lite workload generation (NewOrder + Payment over the TBVM
// programs in contract/tpcc_lite.h).
//
// Entities and their storage accounts:
//   warehouse  "w<w>"            keys: ytd
//   district   "w<w>.d<d>"       keys: ytd, next_oid, order_ytd, order_cnt
//   customer   "w<w>.d<d>.c<c>"  keys: balance, ytd_payment, payment_cnt,
//                                      credit (static), penalty
//   item       "item<i>"         keys: stock
//
// Both transaction types derive their warehouse/district from one global
// Zipfian customer draw, so hot customers concentrate contention on their
// district and warehouse rows; NewOrders additionally pick kTpccOrderItems
// distinct items Zipfian (hot items create stock contention). Shard-homed
// generation (NextForShard) instead picks uniformly within the shard's
// district bucket. Every payment flows into both its district's and its
// warehouse's YTD, which yields the invariant CheckInvariant enforces:
// per warehouse, w/ytd == sum of district ytd == sum of customer
// ytd_payment, and per district next_oid - 1 == order_cnt.
#ifndef THUNDERBOLT_WORKLOAD_TPCC_WORKLOAD_H_
#define THUNDERBOLT_WORKLOAD_TPCC_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "common/zipfian.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"
#include "workload/workload.h"

namespace thunderbolt::workload {

class TpccLiteWorkload final : public Workload {
 public:
  /// Seeded stock per item: high enough that test-sized runs never trip
  /// the restock rule (keeping final state order-independent); long bench
  /// sweeps on hot items still can.
  static constexpr storage::Value kInitialStock = 100000;
  static constexpr storage::Value kInitialBalance = 5000;
  static constexpr storage::Value kInitialOrderId = 1;
  static constexpr storage::Value kMaxPaymentAmount = 500;
  static constexpr storage::Value kMaxOrderQuantity = 10;

  /// Keeps `options` with num_items raised to at least kTpccOrderItems.
  explicit TpccLiteWorkload(const WorkloadOptions& options);

  std::string name() const override { return "tpcc_lite"; }

  /// Entity account names.
  static std::string WarehouseName(uint32_t w);
  static std::string DistrictName(uint32_t w, uint32_t d);
  static std::string CustomerName(uint32_t w, uint32_t d, uint32_t c);
  static std::string ItemName(uint32_t i);

  /// Deterministic static credit rating: ~10% of customers are bad credit
  /// (drives the Payment penalty branch).
  static bool HasBadCredit(uint32_t w, uint32_t d, uint32_t c) {
    return (w + 3 * d + 7 * c) % 10 == 0;
  }

  void InitStore(storage::KVStore* store) const override;
  txn::Transaction Next() override;
  /// District (and thus warehouse) drawn from `shard`'s bucket; with
  /// probability cross_shard_ratio a Payment instead credits a *remote*
  /// customer whose district lives in a different shard (the TPC-C
  /// remote-payment pattern), which makes the transaction span shards by
  /// construction. Note TPC-C-lite transactions are often incidentally
  /// cross-shard anyway: warehouse, district, customer and item accounts
  /// hash-partition independently.
  txn::Transaction NextForShard(ShardId shard) override;

  /// Warehouse locality: "w<w>", "w<w>.d<d>" and "w<w>.d<d>.c<c>" all
  /// group onto "w<w>", so the "locality" placement policy lands a home
  /// payment's warehouse, district and customer on one shard. Items are
  /// shared across warehouses and keep their own groups.
  std::string PlacementHint(const std::string& account) const override;

  /// TPC-C-lite transactions are anchored at their district: shard-homed
  /// generation places the district in the requested shard while the
  /// warehouse, customer and item accounts may hash elsewhere.
  ShardId HomeShard(const txn::Transaction& tx) const override;

  /// YTD consistency (see header comment) plus non-negative stock. Remote
  /// payments (cross_shard_ratio > 0) credit a customer outside the paying
  /// warehouse, so the per-warehouse customer breakdown is replaced by its
  /// global counterpart: sum over all warehouses of ytd == sum of all
  /// district ytd == sum of all customer ytd_payment.
  Status CheckInvariant(const storage::KVStore& store) const override;

 protected:
  void RebuildShardBuckets() override;

 private:
  /// Customer by global Zipfian rank -> (w, d, c).
  void CustomerAt(uint64_t rank, uint32_t* w, uint32_t* d, uint32_t* c) const;
  txn::Transaction MakePayment(uint32_t w, uint32_t d, uint32_t c);
  /// Payment at warehouse `w` / district `d` crediting the (possibly
  /// remote) customer (cw, cd, c).
  txn::Transaction MakeRemotePayment(uint32_t w, uint32_t d, uint32_t cw,
                                     uint32_t cd, uint32_t c);
  txn::Transaction MakeNewOrder(uint32_t w, uint32_t d);
  /// The warehouse and district of district index `i` (w * districts + d).
  void DistrictAt(uint64_t i, uint32_t* w, uint32_t* d) const;

  uint64_t num_customers_;
  ZipfianGenerator customer_zipf_;
  ZipfianGenerator item_zipf_;
};

}  // namespace thunderbolt::workload

#endif  // THUNDERBOLT_WORKLOAD_TPCC_WORKLOAD_H_
