#include "util/args.h"

#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/contract.h"
#include "util/error.h"

namespace ccs {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  specs_[name] = Spec{Kind::kInt, help, std::to_string(default_value)};
}

void ArgParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  std::ostringstream os;
  os << default_value;
  specs_[name] = Spec{Kind::kDouble, help, os.str()};
}

void ArgParser::add_string(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  specs_[name] = Spec{Kind::kString, help, default_value};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  specs_[name] = Spec{Kind::kFlag, help, "0"};
}

void ArgParser::add_int_list(const std::string& name,
                            const std::vector<std::int64_t>& default_value,
                            const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  std::string text;
  for (const std::int64_t v : default_value) text += (text.empty() ? "" : ",") + std::to_string(v);
  specs_[name] = Spec{Kind::kIntList, help, text};
}

namespace {

/// Items of a comma-separated list value ("" is one empty item).
std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items(1);
  for (const char c : value) {
    if (c == ',') items.emplace_back();
    else items.back() += c;
  }
  return items;
}

}  // namespace

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) throw Error("unexpected positional argument: " + arg);
    arg = arg.substr(2);
    std::string name = arg;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) throw Error("unknown flag --" + name + "\n" + usage());
    Spec& spec = it->second;
    if (spec.kind == Kind::kFlag) {
      if (value.has_value()) throw Error("flag --" + name + " takes no value");
      spec.value = "1";
      continue;
    }
    if (!value.has_value()) {
      if (i + 1 >= argc) throw Error("flag --" + name + " needs a value");
      value = argv[++i];
    }
    // Validate numeric flags eagerly so errors point at the flag. The whole
    // value (each item of a list) must parse: "4x" or "4096.9" on an int
    // flag is an error, not 4.
    std::vector<std::string> numbers;
    if (spec.kind == Kind::kInt || spec.kind == Kind::kDouble) numbers = {*value};
    if (spec.kind == Kind::kIntList) numbers = split_list(*value);
    for (const std::string& number : numbers) {
      bool whole = false;
      try {
        std::size_t consumed = 0;
        if (spec.kind == Kind::kDouble) {
          (void)std::stod(number, &consumed);
        } else {
          (void)std::stoll(number, &consumed);
        }
        whole = consumed == number.size();
      } catch (const std::exception&) {
        // No digits at all, or out of range: `whole` stays false.
      }
      if (!whole) {
        throw Error("flag --" + name + " expects a number, got '" + number + "'");
      }
    }
    spec.value = *value;
  }
  return true;
}

const ArgParser::Spec& ArgParser::find(const std::string& name, Kind kind) const {
  const auto it = specs_.find(name);
  CCS_EXPECTS(it != specs_.end(), "flag " + name + " was never registered");
  CCS_EXPECTS(it->second.kind == kind, "flag " + name + " accessed with wrong type");
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::stoll(find(name, Kind::kInt).value);
}

double ArgParser::get_double(const std::string& name) const {
  return std::stod(find(name, Kind::kDouble).value);
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool ArgParser::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "1";
}

std::vector<std::int64_t> ArgParser::get_int_list(const std::string& name) const {
  const std::string& text = find(name, Kind::kIntList).value;
  std::vector<std::int64_t> out;
  if (!text.empty()) {  // else an empty default
    for (const std::string& item : split_list(text)) out.push_back(std::stoll(item));
  }
  return out;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " -- " << description_ << "\nflags:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    switch (spec.kind) {
      case Kind::kInt: os << "=<int>"; break;
      case Kind::kDouble: os << "=<float>"; break;
      case Kind::kString: os << "=<str>"; break;
      case Kind::kIntList: os << "=<int,...>"; break;
      case Kind::kFlag: break;
    }
    os << "  " << spec.help << " (default: " << spec.value << ")\n";
  }
  return os.str();
}

}  // namespace ccs
