// Unit tests for the engine's Value semantics: cross-kind comparison
// coercions, hash consistency with equality, truthiness and display, and
// the ownership rules of the 24-byte layout (inline short strings, heap
// buffers for long ones).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/value.h"

namespace tpcds {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_EQ(Value::Dec(Decimal::FromCents(1234)).AsDecimal().cents(), 1234);
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_EQ(Value::Dt(Date::FromYmd(2000, 1, 1)).AsDate().ToString(),
            "2000-01-01");
  EXPECT_TRUE(Value::Int(7).is_numeric());
  EXPECT_FALSE(Value::Str("7").is_numeric());
}

TEST(ValueTest, NumericCoercionInComparison) {
  // int vs decimal vs double compare by numeric value.
  EXPECT_EQ(Value::Compare(Value::Int(5),
                           Value::Dec(Decimal::FromCents(500))),
            0);
  EXPECT_EQ(Value::Compare(Value::Int(5), Value::Dbl(5.0)), 0);
  EXPECT_LT(Value::Compare(Value::Dec(Decimal::FromCents(499)),
                           Value::Int(5)),
            0);
  EXPECT_GT(Value::Compare(Value::Dbl(5.01),
                           Value::Dec(Decimal::FromCents(500))),
            0);
}

TEST(ValueTest, DateStringComparison) {
  Value date = Value::Dt(Date::FromYmd(1999, 2, 21));
  EXPECT_EQ(Value::Compare(date, Value::Str("1999-02-21")), 0);
  EXPECT_LT(Value::Compare(date, Value::Str("1999-02-22")), 0);
  EXPECT_GT(Value::Compare(Value::Str("1999-02-22"), date), 0);
}

TEST(ValueTest, NullOrderingAndEquality) {
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
  EXPECT_LT(Value::Compare(Value::Null(), Value::Int(-1000)), 0);
  EXPECT_FALSE(Value::SqlEquals(Value::Null(), Value::Null()));
  EXPECT_FALSE(Value::SqlEquals(Value::Null(), Value::Int(0)));
  EXPECT_TRUE(Value::SqlEquals(Value::Int(3), Value::Int(3)));
}

TEST(ValueTest, HashConsistentWithEquality) {
  // Values that SqlEquals must hash equal (group-by / join correctness).
  EXPECT_EQ(Value::Int(5).Hash(),
            Value::Dec(Decimal::FromCents(500)).Hash());
  EXPECT_EQ(Value::Int(5).Hash(), Value::Dbl(5.0).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_NE(Value::Int(5).Hash(), Value::Int(6).Hash());
}

TEST(ValueTest, TruthinessForFilters) {
  EXPECT_TRUE(Value::Int(1).IsTruthy());
  EXPECT_TRUE(Value::Int(-1).IsTruthy());
  EXPECT_FALSE(Value::Int(0).IsTruthy());
  EXPECT_FALSE(Value::Null().IsTruthy());
  EXPECT_TRUE(Value::Dbl(0.5).IsTruthy());
  EXPECT_FALSE(Value::Dbl(0.0).IsTruthy());
  EXPECT_TRUE(Value::Str("x").IsTruthy());
  EXPECT_FALSE(Value::Str("").IsTruthy());
  EXPECT_TRUE(Value::Bool(true).IsTruthy());
  EXPECT_FALSE(Value::Bool(false).IsTruthy());
}

TEST(ValueTest, DisplayRendering) {
  EXPECT_EQ(Value::Null().ToDisplayString(), "NULL");
  EXPECT_EQ(Value::Int(-3).ToDisplayString(), "-3");
  EXPECT_EQ(Value::Dec(Decimal::FromCents(105)).ToDisplayString(), "1.05");
  EXPECT_EQ(Value::Dt(Date::FromYmd(2001, 12, 9)).ToDisplayString(),
            "2001-12-09");
  EXPECT_EQ(Value::Str("hi").ToDisplayString(), "hi");
  EXPECT_EQ(Value::Dbl(2.5).ToDisplayString(), "2.5000");
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value::Compare(Value::Str("apple"), Value::Str("banana")), 0);
  EXPECT_EQ(Value::Compare(Value::Str("a"), Value::Str("a")), 0);
  EXPECT_GT(Value::Compare(Value::Str("b"), Value::Str("ab")), 0);
}

// ------------------------------------------------------ layout and owning

static_assert(sizeof(Value) == 24);
static_assert(std::is_nothrow_move_constructible_v<Value>);
static_assert(std::is_nothrow_move_assignable_v<Value>);

/// Strings either side of the inline limit (16 bytes).
std::vector<std::string> BoundaryStrings() {
  std::vector<std::string> out;
  for (size_t len : {0u, 15u, 16u, 17u, 200u}) {
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + i % 26));
    }
    out.push_back(s);
  }
  return out;
}

TEST(ValueLayoutTest, StringsSurviveCopyAndMove) {
  for (const std::string& s : BoundaryStrings()) {
    Value v = Value::Str(s);
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(v.heap_bytes(), s.size() > Value::kInlineBytes ? s.size() : 0u);

    Value copy(v);
    EXPECT_EQ(copy.AsString(), s);
    EXPECT_EQ(v.AsString(), s);  // the source is untouched
    if (s.size() > Value::kInlineBytes) {
      EXPECT_NE(copy.AsString().data(), v.AsString().data());  // deep copy
    }

    Value moved(std::move(copy));
    EXPECT_EQ(moved.AsString(), s);
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)

    Value assigned = Value::Int(3);
    assigned = moved;
    EXPECT_EQ(assigned.AsString(), s);
    Value move_assigned = Value::Int(4);
    move_assigned = std::move(assigned);
    EXPECT_EQ(move_assigned.AsString(), s);
    EXPECT_TRUE(assigned.is_null());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(ValueLayoutTest, SelfAssignmentKeepsTheValue) {
  for (const std::string& s : BoundaryStrings()) {
    Value v = Value::Str(s);
    Value& alias = v;
    v = alias;
    EXPECT_EQ(v.AsString(), s);
    v = std::move(alias);
    EXPECT_EQ(v.AsString(), s);
  }
}

TEST(ValueLayoutTest, AssignmentBetweenInlineAndHeapForms) {
  std::vector<std::string> strings = BoundaryStrings();
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      Value x = Value::Str(a);
      Value y = Value::Str(b);
      x = y;
      EXPECT_EQ(x.AsString(), b);
      EXPECT_EQ(y.AsString(), b);
      Value z = Value::Str(a);
      z = std::move(y);
      EXPECT_EQ(z.AsString(), b);
      // Numbers overwrite strings and strings overwrite numbers.
      z = Value::Dbl(1.5);
      EXPECT_EQ(z.AsDouble(), 1.5);
      EXPECT_EQ(z.AsString(), "");
      z = x;
      EXPECT_EQ(z.AsString(), b);
    }
  }
}

TEST(ValueLayoutTest, StringSemanticsMatchStdString) {
  std::vector<std::string> strings = BoundaryStrings();
  strings.push_back("abc");
  strings.push_back(std::string(40, 'z'));
  strings.push_back(std::string("a\0b", 3));  // embedded NUL
  for (const std::string& a : strings) {
    Value va = Value::Str(a);
    EXPECT_EQ(va.Hash(), std::hash<std::string>()(a));
    EXPECT_EQ(va.IsTruthy(), !a.empty());
    EXPECT_EQ(va.ToDisplayString(), a);
    for (const std::string& b : strings) {
      int expect = a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
      EXPECT_EQ(Value::Compare(va, Value::Str(b)), expect)
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(ValueLayoutTest, NumericAccessorsOfOtherKindsAreZero) {
  for (const Value& v : {Value::Str("12"), Value::Str(std::string(30, '9')),
                         Value::Dbl(7.25), Value::Null()}) {
    EXPECT_EQ(v.AsInt(), 0);
    EXPECT_EQ(v.AsDecimal().cents(), 0);
  }
  EXPECT_EQ(Value::Str("12").AsDouble(), 0.0);
  EXPECT_EQ(Value::Null().AsDouble(), 0.0);
  EXPECT_EQ(Value::Int(9).AsString(), "");
  EXPECT_EQ(Value::Dec(Decimal::FromCents(250)).AsInt(), 250);  // cents
}

TEST(ValueLayoutTest, DefaultAndMovedFromValuesAreNull) {
  EXPECT_TRUE(Value().is_null());
  Value num = Value::Int(5);
  Value taken = std::move(num);
  EXPECT_TRUE(num.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(taken.AsInt(), 5);
}

}  // namespace
}  // namespace tpcds
