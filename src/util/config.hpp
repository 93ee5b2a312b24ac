// Flat key=value configuration with CLI override parsing.
//
// Every bench binary accepts `--key=value` pairs (e.g. `--nodes=40
// --duration-ms=500`); this keeps the table/figure harnesses reproducible
// without a heavyweight flags library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace hyflow {

class Config {
 public:
  Config() = default;

  // Parses "--key=value" / "--flag" arguments; unrecognised positional
  // arguments are returned untouched for the caller to handle.
  static Config from_args(int argc, char** argv);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  // Comma-separated integer list, e.g. "--nodes=10,20,40,80".
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         std::vector<std::int64_t> def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // The keys has() or a getter asked for so far, given or not, and the keys
  // given that nothing asked for: a binary that has read every key it takes
  // can refuse the rest (bench::check_args). Recording makes the getters
  // unsafe to call from two threads at once.
  const std::set<std::string>& asked() const { return asked_; }
  std::vector<std::string> unasked() const;

 private:
  std::optional<std::string> raw(const std::string& key) const;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> asked_;  // the getters are const
};

}  // namespace hyflow
