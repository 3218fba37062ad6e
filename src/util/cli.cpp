#include "util/cli.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace ants::util {

namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

// "-5" / "-0.3" are values for the preceding flag, not flags themselves.
bool looks_like_negative_number(const std::string& s) {
  return s.size() >= 2 && s[0] == '-' &&
         (std::isdigit(static_cast<unsigned char>(s[1])) != 0 || s[1] == '.');
}

[[noreturn]] void bad_value(const std::string& name, const std::string& text,
                            const char* what) {
  throw std::invalid_argument("--" + name + ": '" + text + "' is not " + what);
}

// `text` without leading and trailing whitespace.
std::string trimmed(const std::string& text) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::size_t lo = 0;
  std::size_t hi = text.size();
  while (lo < hi && space(text[lo])) ++lo;
  while (hi > lo && space(text[hi - 1])) --hi;
  return text.substr(lo, hi - lo);
}

// The whole of `text` (surrounding whitespace aside) as a base-10 integer,
// else an error naming the flag.
std::int64_t parse_int(const std::string& name, const std::string& text) {
  const std::string t = trimmed(text);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (t.empty() || end != t.c_str() + t.size() || errno == ERANGE) {
    bad_value(name, text, "an integer");
  }
  return v;
}

// The whole of `text` (surrounding whitespace aside) as a double, else an
// error naming the flag. A value too large for a double is an error, not
// infinity.
double parse_double(const std::string& name, const std::string& text) {
  const std::string t = trimmed(text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(t.c_str(), &end);
  if (t.empty() || end != t.c_str() + t.size() ||
      (errno == ERANGE && std::isinf(v))) {
    bad_value(name, text, "a number");
  }
  return v;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      bare_.erase(body.substr(0, eq));
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1]) &&
               (argv[i + 1][0] != '-' ||
                looks_like_negative_number(argv[i + 1]))) {
      flags_[body] = argv[++i];
      bare_.erase(body);
    } else {
      flags_[body] = "true";
      bare_.insert(body);
    }
  }
}

const std::string* Cli::value_of(const std::string& name) {
  recognized_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return nullptr;
  if (bare_.count(name) != 0) {
    throw std::invalid_argument("--" + name + " needs a value");
  }
  return &it->second;
}

std::string Cli::get_string(const std::string& name, const std::string& def) {
  const std::string* v = value_of(name);
  return v == nullptr ? def : *v;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) {
  const std::string* v = value_of(name);
  return v == nullptr ? def : parse_int(name, *v);
}

double Cli::get_double(const std::string& name, double def) {
  const std::string* v = value_of(name);
  return v == nullptr ? def : parse_double(name, *v);
}

bool Cli::get_bool(const std::string& name, bool def) {
  recognized_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second != "false" && it->second != "0";
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name,
                                            std::vector<std::int64_t> def) {
  const std::string* v = value_of(name);
  if (v == nullptr) return def;
  // Comma-separated tokens, each parsed whole; blank tokens skip.
  std::vector<std::int64_t> out;
  std::stringstream ss(*v);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!trimmed(tok).empty()) out.push_back(parse_int(name, tok));
  }
  return out;
}

bool Cli::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

void Cli::finish() const {
  std::string unknown;
  for (const auto& [name, value] : flags_) {
    if (recognized_.count(name) == 0) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + name;
    }
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown flag(s): " + unknown);
  }
}

}  // namespace ants::util
