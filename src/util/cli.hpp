// Tiny argv parser shared by the bench binaries and examples.
//
// Accepts `--key=value`, `--key value`, and bare `--flag` forms. Each
// binary lists the flags it knows; any other `--key` throws
// std::invalid_argument naming it. Typed getters return a caller-supplied
// default when the key is absent and throw std::invalid_argument on
// malformed values, so every binary fails loudly on a typo'd or removed
// experiment parameter instead of silently measuring the wrong
// configuration.
#pragma once

#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dws::util {

class CliArgs {
 public:
  /// `known`: every key this binary reads, without the leading `--`.
  /// Reading a key outside it throws std::logic_error.
  CliArgs(int argc, const char* const* argv,
          std::initializer_list<std::string> known);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get_str(const std::string& key,
                                    const std::string& def = "") const;
  [[nodiscard]] long get_int(const std::string& key, long def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  /// Comma-separated list of longs, e.g. `--tsleep=1,2,4,8`.
  [[nodiscard]] std::vector<long> get_int_list(
      const std::string& key, const std::vector<long>& def) const;

  /// Positional (non `--`) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program_name() const noexcept {
    return program_;
  }

 private:
  /// The value given for `key`, or nullptr if it was absent.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::string program_;
  std::set<std::string> known_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace dws::util
