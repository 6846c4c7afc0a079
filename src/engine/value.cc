#include "engine/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace tpcds {

double Value::AsDouble() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(u_.num);
    case Kind::kDecimal:
      return static_cast<double>(u_.num) / Decimal::kScale;
    case Kind::kDouble:
      return u_.dbl;
    case Kind::kDate:
      return static_cast<double>(u_.num);
    default:
      return 0.0;
  }
}

bool Value::IsTruthy() const {
  switch (kind_) {
    case Kind::kNull:
      return false;
    case Kind::kInt:
    case Kind::kDecimal:
    case Kind::kDate:
      return u_.num != 0;
    case Kind::kDouble:
      return u_.dbl != 0.0;
    case Kind::kString:
      return len_ != 0;
  }
  return false;
}

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  // NULL sorts first (only relevant for ORDER BY; filters never see it).
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return -1;
  if (b.is_null()) return 1;

  if (a.kind_ == Kind::kString && b.kind_ == Kind::kString) {
    int c = a.AsString().compare(b.AsString());
    return c < 0 ? -1 : (c == 0 ? 0 : 1);
  }
  // Date vs string: parse the string as a date literal.
  if (a.kind_ == Kind::kDate && b.kind_ == Kind::kString) {
    Result<Date> d = Date::Parse(b.AsString());
    if (d.ok()) return CompareDoubles(a.AsDouble(), d.ValueOrDie().jdn());
    return -1;
  }
  if (a.kind_ == Kind::kString && b.kind_ == Kind::kDate) {
    return -Compare(b, a);
  }
  // Same-kind int, decimal (cents) and date (jdn) compare their payloads.
  if (a.kind_ == b.kind_ && a.has_num()) {
    return a.u_.num < b.u_.num ? -1 : (a.u_.num == b.u_.num ? 0 : 1);
  }
  // String vs numeric: compare textually-parsed doubles when possible.
  return CompareDoubles(a.AsDouble(), b.AsDouble());
}

bool Value::SqlEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  return Compare(a, b) == 0;
}

size_t Value::Hash() const {
  switch (kind_) {
    case Kind::kNull:
      return 0x9e3779b9;
    case Kind::kString:
      return std::hash<std::string_view>()(AsString());
    case Kind::kDouble: {
      // Hash integral doubles like the equal-valued int.
      double d = u_.dbl;
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        return std::hash<int64_t>()(static_cast<int64_t>(d) * 10007);
      }
      return std::hash<double>()(d);
    }
    case Kind::kDecimal: {
      // cents -> units when integral so Dec(5.00) matches Int(5).
      if (u_.num % Decimal::kScale == 0) {
        return std::hash<int64_t>()(u_.num / Decimal::kScale * 10007);
      }
      return std::hash<double>()(AsDouble());
    }
    case Kind::kInt:
    case Kind::kDate:
      return std::hash<int64_t>()(u_.num * 10007);
  }
  return 0;
}

std::string Value::ToDisplayString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt:
      return std::to_string(u_.num);
    case Kind::kDecimal:
      return AsDecimal().ToString();
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", u_.dbl);
      return buf;
    }
    case Kind::kString:
      return std::string(AsString());
    case Kind::kDate:
      return AsDate().ToString();
  }
  return "";
}

}  // namespace tpcds
