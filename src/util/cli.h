// Minimal command-line flag parser for the experiment harnesses and examples.
//
// Flags take the forms --name=value, --name value, or bare --name (boolean
// true). Anything not starting with "--" is collected as a positional
// argument. Unknown flags are an error by default so typos in experiment
// sweeps fail loudly instead of silently running the default configuration.
// Every getter but get_bool rejects a bare flag ("--csv needs a value"), and
// the numeric getters parse each value whole: "--trials=1e3" and
// "--ks=4,x" are errors naming the flag and the value.
//
// Usage:
//   ants::util::Cli cli(argc, argv);
//   const int trials   = cli.get_int("trials", 200);
//   const bool quick   = cli.get_bool("quick", false);
//   cli.finish();  // rejects unrecognized flags
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ants::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Typed accessors. Each call marks the flag as recognized; finish() then
  /// rejects any flag the program never asked about. All but get_bool throw
  /// std::invalid_argument for a bare flag or a value they cannot parse
  /// whole.
  std::string get_string(const std::string& name, const std::string& def);
  std::int64_t get_int(const std::string& name, std::int64_t def);
  double get_double(const std::string& name, double def);
  bool get_bool(const std::string& name, bool def);

  /// Comma-separated list of integers, e.g. --ks=1,4,16,64.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         std::vector<std::int64_t> def);
  /// Comma-separated list of doubles, e.g. --eps=0.1,0.3,1.0.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> def);

  bool has(const std::string& name) const;
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Throws std::invalid_argument listing every flag that was supplied but
  /// never queried. Call after all get_* calls.
  void finish() const;

 private:
  /// The value of flag `name` (marked recognized), nullptr when absent;
  /// throws when the flag was given bare.
  const std::string* value_of(const std::string& name);

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::set<std::string> bare_;  ///< flags given without a value
  std::vector<std::string> positional_;
  mutable std::set<std::string> recognized_;
};

}  // namespace ants::util
