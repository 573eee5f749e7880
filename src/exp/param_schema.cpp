#include "exp/param_schema.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace maco::exp {
namespace {

std::string format_f64(double value) {
  return ParamValue::f64(value).to_string();
}

[[noreturn]] void bad_value(std::string_view name, const std::string& text,
                            const std::string& wanted) {
  throw std::invalid_argument("parameter '" + std::string(name) +
                              "': expected " + wanted + ", got '" + text +
                              "'");
}

}  // namespace

bool ParamDecl::bounded() const noexcept {
  switch (type) {
    case ParamType::kU64:
      return min_u64 != 0 ||
             max_u64 != std::numeric_limits<std::uint64_t>::max();
    case ParamType::kF64:
      return min_f64 != std::numeric_limits<double>::lowest() ||
             max_f64 != std::numeric_limits<double>::max();
    default:
      return false;
  }
}

std::string ParamDecl::range_text() const {
  switch (type) {
    // Appends, not `"[" + ...` chains: gcc 12 reports a false -Wrestrict
    // on those in Release builds.
    case ParamType::kU64: {
      if (!bounded()) return {};
      std::string text = "[";
      text += std::to_string(min_u64);
      text += ',';
      if (max_u64 == std::numeric_limits<std::uint64_t>::max()) {
        text += "...";
      } else {
        text += std::to_string(max_u64);
      }
      text += ']';
      return text;
    }
    case ParamType::kF64: {
      if (!bounded()) return {};
      std::string text = "[";
      text += format_f64(min_f64);
      text += ',';
      text += format_f64(max_f64);
      text += ']';
      return text;
    }
    case ParamType::kEnum: {
      std::string text;
      for (const std::string& choice : choices) {
        if (!text.empty()) text += '|';
        text += choice;
      }
      return text;
    }
    case ParamType::kBool:
    case ParamType::kString:
      return {};
  }
  return {};
}

std::uint64_t ParamSet::u64(std::string_view name) const {
  return value(name).as_u64();
}

double ParamSet::f64(std::string_view name) const {
  return value(name).as_f64();
}

bool ParamSet::flag(std::string_view name) const {
  return value(name).as_bool();
}

const std::string& ParamSet::str(std::string_view name) const {
  return value(name).as_str();
}

const ParamValue& ParamSet::value(std::string_view name) const {
  const auto it = values_.find(std::string(name));
  if (it == values_.end()) {
    throw std::logic_error("ParamSet: no parameter '" + std::string(name) +
                           "' (not declared in the scenario's schema?)");
  }
  return it->second;
}

bool ParamSet::has(std::string_view name) const noexcept {
  return values_.count(std::string(name)) != 0;
}

bool ParamSet::was_set(std::string_view name) const noexcept {
  return explicit_.count(std::string(name)) != 0;
}

ParamSchema& ParamSchema::add(ParamDecl decl) {
  if (has(decl.name)) {
    throw std::logic_error("ParamSchema: duplicate parameter '" + decl.name +
                           "'");
  }
  decls_.push_back(std::move(decl));
  return *this;
}

ParamSchema& ParamSchema::u64(std::string name, std::uint64_t default_value,
                              std::string description, std::uint64_t min,
                              std::uint64_t max) {
  ParamDecl decl;
  decl.name = std::move(name);
  decl.type = ParamType::kU64;
  decl.default_value = ParamValue::u64(default_value);
  decl.description = std::move(description);
  decl.min_u64 = min;
  decl.max_u64 = max;
  if (default_value < min || default_value > max) {
    throw std::logic_error("ParamSchema: u64 '" + decl.name + "' default " +
                           std::to_string(default_value) +
                           " is outside its range " + decl.range_text());
  }
  return add(std::move(decl));
}

ParamSchema& ParamSchema::f64(std::string name, double default_value,
                              std::string description, double min,
                              double max) {
  ParamDecl decl;
  decl.name = std::move(name);
  decl.type = ParamType::kF64;
  decl.default_value = ParamValue::f64(default_value);
  decl.description = std::move(description);
  decl.min_f64 = min;
  decl.max_f64 = max;
  if (!std::isfinite(default_value) ||
      !(default_value >= min && default_value <= max)) {
    throw std::logic_error("ParamSchema: f64 '" + decl.name + "' default " +
                           decl.default_value.to_string() +
                           " is outside its range " + decl.range_text());
  }
  return add(std::move(decl));
}

ParamSchema& ParamSchema::flag(std::string name, bool default_value,
                               std::string description) {
  ParamDecl decl;
  decl.name = std::move(name);
  decl.type = ParamType::kBool;
  decl.default_value = ParamValue::boolean(default_value);
  decl.description = std::move(description);
  return add(std::move(decl));
}

ParamSchema& ParamSchema::enumerant(std::string name,
                                    std::string default_value,
                                    std::vector<std::string> choices,
                                    std::string description) {
  ParamDecl decl;
  decl.name = std::move(name);
  decl.type = ParamType::kEnum;
  decl.description = std::move(description);
  decl.choices = std::move(choices);
  bool default_known = false;
  for (const std::string& choice : decl.choices) {
    default_known = default_known || choice == default_value;
  }
  if (!default_known) {
    throw std::logic_error("ParamSchema: enum '" + decl.name +
                           "' default '" + default_value +
                           "' is not one of its choices");
  }
  decl.default_value = ParamValue::enumerant(std::move(default_value));
  return add(std::move(decl));
}

ParamSchema& ParamSchema::str(std::string name, std::string default_value,
                              std::string description) {
  ParamDecl decl;
  decl.name = std::move(name);
  decl.type = ParamType::kString;
  decl.default_value = ParamValue::str(std::move(default_value));
  decl.description = std::move(description);
  return add(std::move(decl));
}

ParamSchema& ParamSchema::constrain(
    std::string rule, std::function<bool(const ParamSet&)> satisfied) {
  if (!satisfied) {
    throw std::logic_error("ParamSchema: constraint '" + rule +
                           "' has no predicate");
  }
  constraints_.push_back(
      ParamConstraint{std::move(rule), std::move(satisfied)});
  return *this;
}

ParamSchema& ParamSchema::merge(const ParamSchema& other) {
  for (const ParamDecl& decl : other.decls_) add(decl);
  for (const ParamConstraint& constraint : other.constraints_) {
    constraints_.push_back(constraint);
  }
  return *this;
}

const ParamDecl* ParamSchema::find(std::string_view name) const noexcept {
  for (const ParamDecl& decl : decls_) {
    if (decl.name == name) return &decl;
  }
  return nullptr;
}

ParamValue ParamSchema::parse(std::string_view name,
                              const std::string& text) const {
  const ParamDecl* decl = find(name);
  if (decl == nullptr) {
    throw std::invalid_argument("unknown parameter '" + std::string(name) +
                                "'");
  }
  switch (decl->type) {
    case ParamType::kU64: {
      std::uint64_t value = 0;
      const char* begin = text.data();
      const char* end = begin + text.size();
      const auto [ptr, ec] = std::from_chars(begin, end, value);
      if (ec != std::errc{} || ptr != end) {
        bad_value(name, text, "an unsigned integer (u64)");
      }
      if (value < decl->min_u64 || value > decl->max_u64) {
        bad_value(name, text, "a u64 in " + decl->range_text());
      }
      return ParamValue::u64(value);
    }
    case ParamType::kF64: {
      double value = 0.0;
      try {
        std::size_t consumed = 0;
        value = std::stod(text, &consumed);
        if (consumed != text.size()) bad_value(name, text, "a number (f64)");
      } catch (const std::invalid_argument&) {
        bad_value(name, text, "a number (f64)");
      } catch (const std::out_of_range&) {
        bad_value(name, text, "a representable number (f64)");
      }
      // Negated comparisons so NaN (for which both orderings are false)
      // cannot slip through the range check.
      if (!std::isfinite(value) ||
          !(value >= decl->min_f64 && value <= decl->max_f64)) {
        bad_value(name, text,
                  decl->bounded() ? "an f64 in " + decl->range_text()
                                  : "a finite f64");
      }
      return ParamValue::f64(value);
    }
    case ParamType::kBool: {
      if (text == "1" || text == "true" || text == "on" || text == "yes") {
        return ParamValue::boolean(true);
      }
      if (text == "0" || text == "false" || text == "off" || text == "no") {
        return ParamValue::boolean(false);
      }
      bad_value(name, text, "a boolean (true/false/1/0/on/off)");
    }
    case ParamType::kEnum: {
      for (const std::string& choice : decl->choices) {
        if (text == choice) return ParamValue::enumerant(text);
      }
      bad_value(name, text, "one of " + decl->range_text());
    }
    case ParamType::kString:
      return ParamValue::str(text);
  }
  bad_value(name, text, "a value");  // unreachable
}

ParamSet ParamSchema::bind(const std::map<std::string, std::string>& raw)
    const {
  ParamSet set;
  for (const auto& [key, text] : raw) {
    set.values_.insert_or_assign(key, parse(key, text));
    set.explicit_.insert(key);
  }
  for (const ParamDecl& decl : decls_) {
    set.values_.emplace(decl.name, decl.default_value);
  }
  // Cross-field constraints run over the fully-defaulted set, so a rule
  // like "kept <= group" also catches an explicit value clashing with a
  // default.
  for (const ParamConstraint& constraint : constraints_) {
    if (!constraint.satisfied(set)) {
      throw std::invalid_argument("constraint '" + constraint.rule +
                                  "' violated by the given parameters");
    }
  }
  return set;
}

ParamSet ParamSchema::defaults() const { return bind({}); }

}  // namespace maco::exp
