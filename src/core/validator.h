// Parallel validation of preplayed blocks (paper section 4, "Validation").
//
// Validators rebuild the execution from the read/write sets declared in a
// block: transactions are re-executed in the block's scheduled order
// against the replica's committed state (plus earlier writes of the same
// block), and every read must return exactly the value recorded in the
// declared read set. A mismatch flags the block invalid and it is
// discarded deterministically by every honest replica. The declared
// read/write sets form a dependency graph that permits validating
// independent transactions in parallel; the virtual-time cost model divides
// the replay work across `num_validators` workers accordingly.
#ifndef THUNDERBOLT_CORE_VALIDATOR_H_
#define THUNDERBOLT_CORE_VALIDATOR_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "contract/contract.h"
#include "core/payload.h"
#include "storage/kv_store.h"

namespace thunderbolt::core {

/// Virtual cost per replayed operation. Validation replays declared
/// operations without scheduling overhead, so it is cheaper than first
/// execution (ce::ExecutionCostModel::op_cost).
inline constexpr SimTime kValidationOpCost = Micros(5);

struct ValidationResult {
  bool valid = true;
  /// Operations replayed (drives the virtual-time cost model).
  uint64_t ops = 0;
  /// Writes to apply when valid (final value per key under the block's
  /// scheduled order).
  storage::WriteBatch writes;
  /// First failure description (for logs/tests).
  std::string failure;
};

/// Validates `preplayed` (in scheduled order) against `base`. Does not
/// modify `base`; the caller applies `writes` on success.
ValidationResult ValidatePreplay(const contract::Registry& registry,
                                 const std::vector<PreplayedTxn>& preplayed,
                                 const storage::ReadView& base);

/// Critical-path length of the block's dependency graph, in transactions:
/// the longest chain of conflicting transactions in scheduled order. The
/// virtual validation time is max(total/validators, critical path) *
/// kValidationOpCost.
uint32_t ValidationCriticalPath(const std::vector<PreplayedTxn>& preplayed);

}  // namespace thunderbolt::core

#endif  // THUNDERBOLT_CORE_VALIDATOR_H_
