#include "src/cli/args.h"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sparsify::cli {
namespace {

// Flags that never take a value. They must not consume a following token
// (`figure --resume 1a` would otherwise silently swallow the figure id).
const std::set<std::string>& BooleanKeys() {
  static const std::set<std::string> keys = {
      "csv", "resume", "directed", "weighted", "paper", "progress"};
  return keys;
}

}  // namespace

double ParseDoubleValue(const std::string& key, const std::string& value) {
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("invalid number for --" + key + ": '" +
                                value + "'");
  }
  return v;
}

int ParseIntValue(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("invalid integer for --" + key + ": '" +
                                value + "'");
  }
  return static_cast<int>(v);
}

uint64_t ParseUint64Value(const std::string& key, const std::string& value) {
  char* end = nullptr;
  if (value.empty() || value[0] == '-') {
    throw std::invalid_argument("invalid seed for --" + key + ": '" + value +
                                "'");
  }
  errno = 0;
  uint64_t v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("invalid integer for --" + key + ": '" +
                                value + "'");
  }
  return v;
}

bool ParseArgs(int argc, char** argv, int first,
               const std::set<std::string>& allowed, Args* args,
               std::string* error) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args->positional.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    std::string value;
    bool has_value = false;
    auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    }
    if (!allowed.contains(key)) {
      *error = "unknown option '--" + key + "' (allowed:";
      for (const std::string& k : allowed) *error += " --" + k;
      *error += ")";
      return false;
    }
    if (!has_value) {
      if (BooleanKeys().contains(key)) {
        value = "true";
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        // `--store` with the value forgotten must not silently become the
        // string "true" (and, say, write a store directory named true/).
        *error = "option '--" + key + "' requires a value";
        return false;
      }
    }
    args->named[key] = value;
  }
  return true;
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

int MainWithArgs(int argc, char** argv, const std::set<std::string>& allowed,
                 const std::string& usage,
                 const std::function<int(const Args&)>& body) {
  Args args;
  std::string error;
  if (ParseArgs(argc, argv, 1, allowed, &args, &error)) {
    if (args.positional.empty()) {
      try {
        return body(args);
      } catch (const std::invalid_argument& e) {
        error = e.what();
      }
    } else {
      error = "unexpected argument '" + args.positional[0] + "'";
    }
  }
  std::cerr << "error: " << error << "\n" << usage;
  return 2;
}

}  // namespace sparsify::cli
