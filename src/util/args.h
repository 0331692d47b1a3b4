// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags are an error so typos in experiment sweeps fail loudly instead of
// silently running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ccs {

/// Declarative flag parser.
///
/// Usage:
///   ArgParser args("e01", "misses vs cache size");
///   args.add_int("cache-kw", 64, "cache size in kilo-words");
///   args.add_flag("csv", "emit CSV instead of aligned table");
///   args.add_int_list("sizes", {256, 512}, "cache sizes");
///   args.parse(argc, argv);              // throws ccs::Error on bad input
///   const auto m = args.get_int("cache-kw");
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Register flags (must precede parse()).
  void add_int(const std::string& name, std::int64_t default_value, const std::string& help);
  void add_double(const std::string& name, double default_value, const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  void add_flag(const std::string& name, const std::string& help);
  /// A comma-separated integer list (`--sizes=256,512`); every item must
  /// parse whole, like an add_int value.
  void add_int_list(const std::string& name, const std::vector<std::int64_t>& default_value,
                    const std::string& help);

  /// Parse argv. Throws ccs::Error on unknown or malformed flags. If
  /// `--help` is present, prints usage and returns false.
  bool parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  std::vector<std::int64_t> get_int_list(const std::string& name) const;

  /// Usage text (also printed by --help).
  std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag, kIntList };
  struct Spec {
    Kind kind;
    std::string help;
    std::string value;  // current (default or parsed) textual value
  };

  const Spec& find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Spec> specs_;
};

}  // namespace ccs
