// Comma-separated key=value specs ("drop=0.05,seed=7"): the one splitter
// and the one strict unsigned reader the fault plan (dist/transport.hpp)
// and the crash plan (online/durable_service.hpp) parse with.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <system_error>

#include "common/prelude.hpp"

namespace treesched {

// Calls visit(key, value) for every non-empty comma-separated item of
// `spec`; an item without '=' throws a diagnostic prefixed with `what`.
template <typename Visit>
void for_each_spec_item(const std::string& spec, const std::string& what,
                        Visit&& visit) {
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t end = spec.find(',', at);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(at, end - at);
    at = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    check_input(eq != std::string::npos,
                what + ": expected key=value, got '" + item + "'");
    visit(item.substr(0, eq), item.substr(eq + 1));
  }
}

// A plain decimal unsigned value.  A sign, whitespace, trailing text or
// a value past 2^64 - 1 throws a diagnostic naming `key`.
inline std::uint64_t parse_spec_u64(const std::string& what,
                                    const std::string& key,
                                    const std::string& value) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  check_input(ec == std::errc() && ptr == end,
              what + ": bad value for '" + key + "': '" + value +
                  "' (expected an unsigned integer)");
  return v;
}

}  // namespace treesched
