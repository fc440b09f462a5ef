// The one "key=value[,key=value...]" grammar behind the workload,
// placement and arrival param strings, plus its list splitter and checked
// number parsers. Each caller keeps its own error policy: workload returns
// the Status, placement and arrival abort. (Store specs keep their own
// grammar, storage::ParseStoreParams, because `inner=` nests a full spec.)
#ifndef THUNDERBOLT_COMMON_PARAMS_H_
#define THUNDERBOLT_COMMON_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace thunderbolt {

/// One "key=value" assignment from a param string.
struct Param {
  std::string key;
  std::string value;
};

/// Splits `text` at every `sep`, dropping empty items ("a,,b," -> a, b).
std::vector<std::string> Split(const std::string& text, char sep);

/// Splits a ','-separated param string into assignments, in order. Empty
/// items are skipped; an item without '=', with an empty key or with an
/// empty value is InvalidArgument. The key ends at the first '=', so
/// "k=v=w" assigns "v=w".
Result<std::vector<Param>> ParseParams(const std::string& spec);

/// OK when `spec` parses and assigns nothing, for an `owner` that takes no
/// params; otherwise the parse error or "<owner>: unknown key "<key>"".
Status CheckNoParams(const std::string& owner, const std::string& spec);

/// `param.value` as a decimal integer in [0, max]. It must start with a
/// digit (no sign, no blank) and have no trailing characters.
Result<uint64_t> ParseUint(const Param& param, uint64_t max = UINT64_MAX);

/// `param.value` as a double (strtod syntax) with no trailing characters
/// and no overflow or underflow.
Result<double> ParseDouble(const Param& param);

}  // namespace thunderbolt

#endif  // THUNDERBOLT_COMMON_PARAMS_H_
