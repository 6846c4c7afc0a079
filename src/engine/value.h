#ifndef TPCDS_ENGINE_VALUE_H_
#define TPCDS_ENGINE_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/date.h"
#include "util/decimal.h"

namespace tpcds {

/// A runtime SQL value. Numeric kinds (int, decimal, double) compare and
/// combine with the usual SQL coercions; dates compare with date-literal
/// strings by parsing. NULL is a distinct kind with SQL semantics
/// (comparisons involving NULL are unknown; aggregates skip NULLs).
///
/// Layout (24 bytes): a 1-byte kind, a 4-byte string length and a 16-byte
/// payload. Numbers and strings of up to kInlineBytes bytes live in the
/// payload, so copying or destroying them is a plain byte copy; a longer
/// string owns one heap buffer that the payload points to.
class Value {
 public:
  enum class Kind : uint8_t { kNull, kInt, kDecimal, kDouble, kString, kDate };

  /// Longest string stored inline. Covers TPC-DS's 16-character business
  /// ids and most codes, names and categories.
  static constexpr size_t kInlineBytes = 16;

  Value() : kind_(Kind::kNull), len_(0) { u_.num = 0; }
  Value(const Value& o) : kind_(o.kind_), len_(o.len_), u_(o.u_) {
    if (o.on_heap()) CopyHeap(o.u_.heap);
  }
  Value(Value&& o) noexcept : kind_(o.kind_), len_(o.len_), u_(o.u_) {
    o.kind_ = Kind::kNull;
    o.len_ = 0;
  }
  Value& operator=(const Value& o) {
    if (o.on_heap()) return *this = Value(o);  // copy first: self-safe
    if (on_heap()) delete[] u_.heap;
    kind_ = o.kind_;
    len_ = o.len_;
    u_ = o.u_;
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this == &o) return *this;
    if (on_heap()) delete[] u_.heap;
    kind_ = o.kind_;
    len_ = o.len_;
    u_ = o.u_;
    o.kind_ = Kind::kNull;
    o.len_ = 0;
    return *this;
  }
  ~Value() {
    if (on_heap()) delete[] u_.heap;
  }

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Number(Kind::kInt, v); }
  static Value Dec(Decimal v) { return Number(Kind::kDecimal, v.cents()); }
  static Value Dbl(double v) {
    Value out;
    out.kind_ = Kind::kDouble;
    out.u_.dbl = v;
    return out;
  }
  static Value Str(std::string_view v) {
    Value out;
    char* dst = out.u_.chars;
    if (v.size() > kInlineBytes) dst = out.u_.heap = new char[v.size()];
    if (!v.empty()) std::memcpy(dst, v.data(), v.size());
    out.kind_ = Kind::kString;
    out.len_ = static_cast<uint32_t>(v.size());
    return out;
  }
  static Value Dt(Date v) { return Number(Kind::kDate, v.jdn()); }
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_numeric() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDecimal ||
           kind_ == Kind::kDouble;
  }

  /// The int payload (int, decimal cents, date jdn); 0 for other kinds.
  int64_t AsInt() const { return has_num() ? u_.num : 0; }
  Decimal AsDecimal() const { return Decimal::FromCents(AsInt()); }
  Date AsDate() const { return Date(static_cast<int32_t>(AsInt())); }
  /// The string bytes; empty for non-string kinds. Valid while this Value
  /// lives and is not assigned to.
  std::string_view AsString() const {
    return std::string_view(on_heap() ? u_.heap : u_.chars, len_);
  }
  /// Bytes held outside the Value itself (a long string's buffer), for
  /// memory accounting; 0 for numbers and inline strings.
  size_t heap_bytes() const { return on_heap() ? len_ : 0; }
  /// Numeric coercion to double (0 for non-numerics).
  double AsDouble() const;
  /// Truthiness for filters: non-null, non-zero numeric.
  bool IsTruthy() const;

  /// Three-way comparison with SQL coercions. Callers must handle NULLs
  /// first (Compare treats NULL as less-than for sorting purposes).
  static int Compare(const Value& a, const Value& b);

  /// SQL equality (after coercion); NULL never equals anything.
  static bool SqlEquals(const Value& a, const Value& b);

  /// Hash consistent with SqlEquals for group-by/join keys (numerics of
  /// equal value hash equally).
  size_t Hash() const;

  /// Rendering for result display and CSV output; NULL renders as "NULL".
  std::string ToDisplayString() const;

 private:
  static Value Number(Kind kind, int64_t v) {
    Value out;
    out.kind_ = kind;
    out.u_.num = v;
    return out;
  }
  bool has_num() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDecimal ||
           kind_ == Kind::kDate;
  }
  bool on_heap() const {
    return kind_ == Kind::kString && len_ > kInlineBytes;
  }
  /// Points the payload at a fresh copy of the `len_` bytes at `src`.
  void CopyHeap(const char* src) {
    u_.heap = new char[len_];
    std::memcpy(u_.heap, src, len_);
  }

  Kind kind_;
  uint32_t len_;  // string length; 0 for other kinds
  union Payload {
    int64_t num;  // int / decimal cents / date jdn
    double dbl;
    char chars[kInlineBytes];
    char* heap;
  } u_;
};

static_assert(sizeof(Value) == 24, "Value must stay 24 bytes");

}  // namespace tpcds

#endif  // TPCDS_ENGINE_VALUE_H_
