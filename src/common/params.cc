#include "common/params.h"

#include <cerrno>
#include <cstdlib>

namespace thunderbolt {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    if (end > start) items.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return items;
}

Result<std::vector<Param>> ParseParams(const std::string& spec) {
  std::vector<Param> params;
  for (const std::string& item : Split(spec, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      return Status::InvalidArgument("\"" + item + "\" is not key=value");
    }
    params.push_back(Param{item.substr(0, eq), item.substr(eq + 1)});
  }
  return params;
}

Result<uint64_t> ParseUint(const Param& param, uint64_t max) {
  const std::string& text = param.value;
  // strtoull would skip blanks and wrap a '-' ("-1" -> 2^64-1), turning a
  // typo into an absurd size, so the first character must be a digit.
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return Status::InvalidArgument(param.key + ": bad integer \"" + text +
                                   "\"");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(param.key + ": bad integer \"" + text +
                                   "\"");
  }
  if (v > max) {
    return Status::InvalidArgument(param.key + ": \"" + text +
                                   "\" exceeds " + std::to_string(max));
  }
  return static_cast<uint64_t>(v);
}

Result<double> ParseDouble(const Param& param) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(param.value.c_str(), &end);
  if (end == param.value.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(param.key + ": bad number \"" +
                                   param.value + "\"");
  }
  return v;
}

}  // namespace thunderbolt
