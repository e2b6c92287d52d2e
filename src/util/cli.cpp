#include "util/cli.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace dws::util {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<std::string> known)
    : known_(known) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    std::string key = arg.substr(0, eq);
    if (known_.count(key) == 0) {
      std::string msg = "unknown flag --" + key + " (known:";
      for (const std::string& k : known_) msg += " --" + k;
      throw std::invalid_argument(msg + ")");
    }
    if (eq != std::string::npos) {
      kv_[std::move(key)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[std::move(key)] = argv[++i];
    } else {
      kv_[std::move(key)] = "";  // bare flag
    }
  }
}

const std::string* CliArgs::find(const std::string& key) const {
  if (known_.count(key) == 0) {
    throw std::logic_error("--" + key + " is read but not declared known");
  }
  const auto it = kv_.find(key);
  return it == kv_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& key) const { return find(key) != nullptr; }

std::string CliArgs::get_str(const std::string& key,
                             const std::string& def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : *v;
}

long CliArgs::get_int(const std::string& key, long def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  std::size_t pos = 0;
  const long out = std::stol(*v, &pos);
  if (pos != v->size()) {
    throw std::invalid_argument("--" + key + " expects an integer, got '" +
                                *v + "'");
  }
  return out;
}

double CliArgs::get_double(const std::string& key, double def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  std::size_t pos = 0;
  const double out = std::stod(*v, &pos);
  if (pos != v->size()) {
    throw std::invalid_argument("--" + key + " expects a number, got '" +
                                *v + "'");
  }
  return out;
}

bool CliArgs::get_bool(const std::string& key, bool def) const {
  const std::string* p = find(key);
  if (p == nullptr) return def;
  const std::string& v = *p;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on")
    return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + key + " expects a boolean, got '" + v +
                              "'");
}

std::vector<long> CliArgs::get_int_list(const std::string& key,
                                        const std::vector<long>& def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  std::vector<long> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    std::size_t pos = 0;
    out.push_back(std::stol(item, &pos));
    if (pos != item.size()) {
      throw std::invalid_argument("--" + key + " expects integers, got '" +
                                  item + "'");
    }
  }
  return out;
}

}  // namespace dws::util
