// Argument parsing shared by tools/treesched_cli.cpp and
// tests/test_cli_args.cpp.
//
// The contract, enforced with UsageError (caught by the CLI's main,
// which prints the diagnostic plus usage and exits nonzero):
//  * numeric flag values are parsed strictly — `--eps=abc`, trailing
//    garbage like `--eps=0.5x` and non-finite values (`--rate=inf`,
//    `--eps=nan`) are rejected with the offending flag and value named,
//    never std::stod's uncaught std::invalid_argument;
//  * integer flags are range-checked before any conversion: a value
//    that is not an integer or lies outside the destination type (or
//    below the callee's documented minimum, e.g. `--n=1e12`,
//    `--seed=-1`) is rejected instead of being cast with undefined
//    behaviour;
//  * every known flag is registered as value-taking or boolean.  A
//    value flag given space-separated (`--batches 4`) is rejected with
//    the `--batches=4` spelling suggested, instead of silently
//    recording batches="1" and treating `4` as the input file;
//  * unknown flags and unexpected positional arguments are errors;
//  * enum-valued flags (--shape, --heights, --decomp, --arrivals)
//    reject unknown names, listing the valid ones, instead of silently
//    falling back to a default (`--shape=binray` used to mean random).
#pragma once

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "decomp/tree_decomposition.hpp"
#include "online/event_stream.hpp"
#include "workload/demand_gen.hpp"
#include "workload/tree_gen.hpp"

namespace treesched::cli {

// A malformed command line.  what() is the user-facing diagnostic.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

// Flags that take a value (--flag=V).  Giving one bare is an error —
// the pre-registry parser would have recorded "1" and misread the
// space-separated value as a positional.
inline const std::vector<std::string>& value_flags() {
  static const std::vector<std::string> kFlags = {
      // gen-tree / gen-line
      "n", "r", "m", "shape", "heights", "seed", "cap-spread", "pmax",
      "slots", "slack", "max-proc",
      // solve
      "algo", "eps", "decomp", "out", "trace", "transport", "faults",
      "nodes",
      // solve --algo=online
      "arrivals", "rate", "batches", "interval", "lifetime", "init-pop",
      // solve --algo=online durability (online/durable_service.hpp)
      "journal", "snapshot-every", "crash",
  };
  return kFlags;
}

// Flags that are pure switches (--flag, no value).
inline const std::vector<std::string>& bool_flags() {
  static const std::vector<std::string> kFlags = {"ps", "by-class",
                                                  "recover"};
  return kFlags;
}

struct Args {
  std::string command;
  std::string file;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  // Strict numeric lookup: the whole value must parse as a finite
  // number.
  double num(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& value = it->second;
    const char* begin = value.c_str();
    char* end = nullptr;
    const double parsed = std::strtod(begin, &end);
    if (value.empty() || end != begin + value.size())
      throw UsageError("flag --" + key + ": invalid number '" + value + "'");
    if (!std::isfinite(parsed))
      throw UsageError("flag --" + key + ": value '" + value +
                       "' is not finite");
    return parsed;
  }
  // Strict integer lookup into T: the value must be a whole number in
  // [lo, hi] (default: T's whole range), checked before the conversion.
  // 2^digits(T) is exact as a double and every whole double below it
  // converts to T, so the conversion is always defined.
  template <typename T>
  T integer(const std::string& key, T fallback,
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) const {
    if (!has(key)) return fallback;
    const double value = num(key, 0.0);
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (std::trunc(value) != value || value < static_cast<double>(lo) ||
        value > static_cast<double>(hi) || value >= limit)
      throw UsageError("flag --" + key + ": '" + get(key, "") +
                       "' is not an integer in [" + std::to_string(lo) +
                       ", " + std::to_string(hi) + "]");
    return static_cast<T>(value);
  }
  bool has(const std::string& key) const { return flags.contains(key); }
};

inline bool contains(const std::vector<std::string>& names,
                     const std::string& name) {
  for (const std::string& known : names)
    if (known == name) return true;
  return false;
}

inline Args parse(int argc, const char* const* argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const auto eq = token.find('=');
      const std::string name =
          eq == std::string::npos ? token.substr(2) : token.substr(2, eq - 2);
      if (contains(value_flags(), name)) {
        if (eq == std::string::npos) {
          std::string hint = "--" + name + "=V";
          if (i + 1 < argc) hint = "--" + name + "=" + argv[i + 1];
          throw UsageError("flag --" + name + " requires a value (" + hint +
                           ")");
        }
        args.flags[name] = token.substr(eq + 1);
      } else if (contains(bool_flags(), name)) {
        if (eq != std::string::npos)
          throw UsageError("flag --" + name + " takes no value");
        // A moved-in string, not operator=(const char*): GCC 12's
        // -Wrestrict misfires on the latter's inlined memcpy at -O3.
        args.flags[name] = std::string("1");
      } else {
        throw UsageError("unknown flag --" + name);
      }
    } else if (args.file.empty()) {
      args.file = token;
    } else {
      throw UsageError("unexpected argument '" + token + "' (file is '" +
                       args.file + "')");
    }
  }
  return args;
}

// argv convenience for tests.
inline Args parse(const std::vector<std::string>& argv) {
  std::vector<const char*> ptrs;
  ptrs.reserve(argv.size());
  for (const std::string& s : argv) ptrs.push_back(s.c_str());
  return parse(static_cast<int>(ptrs.size()), ptrs.data());
}

inline UsageError bad_name(const std::string& flag, const std::string& name,
                           const std::string& valid) {
  return UsageError("flag --" + flag + ": unknown name '" + name +
                    "' (valid: " + valid + ")");
}

inline TreeShape parse_shape(const std::string& name) {
  if (name == "random") return TreeShape::kRandomAttachment;
  if (name == "binary") return TreeShape::kBinary;
  if (name == "path") return TreeShape::kPath;
  if (name == "star") return TreeShape::kStar;
  if (name == "caterpillar") return TreeShape::kCaterpillar;
  if (name == "broom") return TreeShape::kBroom;
  throw bad_name("shape", name,
                 "random|binary|path|star|caterpillar|broom");
}

inline HeightLaw parse_heights(const std::string& name) {
  if (name == "unit") return HeightLaw::kUnit;
  if (name == "uniform") return HeightLaw::kUniformRange;
  if (name == "bimodal") return HeightLaw::kBimodal;
  if (name == "narrow") return HeightLaw::kNarrowOnly;
  throw bad_name("heights", name, "unit|uniform|bimodal|narrow");
}

inline DecompKind parse_decomp(const std::string& name) {
  if (name == "ideal") return DecompKind::kIdeal;
  if (name == "balancing") return DecompKind::kBalancing;
  if (name == "rootfix") return DecompKind::kRootFixing;
  throw bad_name("decomp", name, "ideal|balancing|rootfix");
}

inline ArrivalLaw parse_arrivals(const std::string& name) {
  if (name == "poisson") return ArrivalLaw::kPoisson;
  if (name == "bursty") return ArrivalLaw::kBursty;
  if (name == "diurnal") return ArrivalLaw::kDiurnal;
  throw bad_name("arrivals", name, "poisson|bursty|diurnal");
}

}  // namespace treesched::cli
