// The one command-line flag parser, shared by `sparsify_cli` and the bench
// mains: `--key=value`, `--key value` and bare boolean `--flag` forms,
// checked against the command's allowed keys, with strict numeric values.
// A typo or a malformed number aborts the run instead of silently changing
// it.
#ifndef SPARSIFY_CLI_ARGS_H_
#define SPARSIFY_CLI_ARGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace sparsify::cli {

// Strict numeric parsing: a malformed value must abort the run, not
// silently become 0 (the same discipline as unknown flag names), and an
// integer out of its type's range must not wrap or saturate. Each throws
// std::invalid_argument naming --key.
double ParseDoubleValue(const std::string& key, const std::string& value);
int ParseIntValue(const std::string& key, const std::string& value);
uint64_t ParseUint64Value(const std::string& key, const std::string& value);

struct Args {
  std::map<std::string, std::string> named;
  std::vector<std::string> positional;

  bool Has(const std::string& key) const { return named.contains(key); }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : ParseDoubleValue(key, it->second);
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : ParseIntValue(key, it->second);
  }
  uint64_t GetUint64(const std::string& key, uint64_t fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : ParseUint64Value(key, it->second);
  }
};

/// Parses `--key=value`, `--key value`, and bare `--flag` forms. Any key
/// not in `allowed` is an error (typos must not silently change a run).
bool ParseArgs(int argc, char** argv, int first,
               const std::set<std::string>& allowed, Args* args,
               std::string* error);

/// Splits a comma-separated value; empty tokens are dropped.
std::vector<std::string> SplitCsv(const std::string& s);

/// The main of a program whose only options are `allowed` and which takes
/// no positional arguments: returns body(args). An unknown key, a
/// positional argument, a missing value, or a malformed one (any
/// std::invalid_argument out of `body`) prints the error and `usage` to
/// stderr and returns 2.
int MainWithArgs(int argc, char** argv, const std::set<std::string>& allowed,
                 const std::string& usage,
                 const std::function<int(const Args&)>& body);

}  // namespace sparsify::cli

#endif  // SPARSIFY_CLI_ARGS_H_
