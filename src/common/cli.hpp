#pragma once
// Tiny command-line flag parser for examples and bench binaries.
//
// Supports `--name value` and `--name=value`. Unknown flags raise an error so
// typos surface immediately; `--help` prints registered flags.

#include <cstdint>
#include <map>
#include <string>

namespace rcs {

/// Declarative flag set; register defaults, then parse(argc, argv).
class Cli {
 public:
  explicit Cli(std::string program_description = {});

  /// Register flags with default values (also defines their type).
  void add_int(const std::string& name, std::int64_t def,
               const std::string& help);
  void add_string(const std::string& name, std::string def,
                  const std::string& help);
  void add_bool(const std::string& name, bool def, const std::string& help);

  /// Parse argv. Returns false when `--help` was requested (help printed).
  /// Throws rcs::Error on unknown flags or malformed values.
  bool parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

 private:
  enum class Kind { Int, String, Bool };
  struct Flag {
    Kind kind;
    std::string value;
    std::string def;
    std::string help;
  };
  const Flag& find(const std::string& name, Kind kind) const;
  void set(const std::string& name, const std::string& value);
  void print_help() const;

  std::string description_;
  std::map<std::string, Flag> flags_;
};

}  // namespace rcs
