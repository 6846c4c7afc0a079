#ifndef TPCDS_UTIL_DATE_H_
#define TPCDS_UTIL_DATE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace tpcds {

/// A calendar date stored as a Julian day number (JDN), the representation
/// the TPC-DS date_dim dimension is built on. Arithmetic (adding days,
/// differences) is plain integer math on the JDN.
class Date {
 public:
  /// Constructs the epoch-less "invalid" date (JDN 0).
  Date() : jdn_(0) {}
  /// Constructs a date directly from a Julian day number.
  explicit Date(int32_t jdn) : jdn_(jdn) {}

  /// Builds a date from a Gregorian calendar triple. Out-of-range month/day
  /// values are *not* checked; use IsValidYmd for validation.
  static Date FromYmd(int year, int month, int day);

  /// Parses "YYYY-MM-DD".
  static Result<Date> Parse(std::string_view text);

  /// True if the triple denotes a real Gregorian calendar date.
  static bool IsValidYmd(int year, int month, int day);

  static bool IsLeapYear(int year);

  /// Days in the given month of the given year (28..31).
  static int DaysInMonth(int year, int month);

  int32_t jdn() const { return jdn_; }
  int year() const;
  int month() const;
  int day() const;

  /// ISO day of week: 1 = Monday ... 7 = Sunday.
  int DayOfWeek() const;
  /// "Monday" ... "Sunday".
  const char* DayName() const;
  /// "January" ... "December".
  const char* MonthName() const;
  /// Calendar quarter, 1..4.
  int Quarter() const;
  /// 1-based day within the year.
  int DayOfYear() const;
  /// Simple week number: 1 + (DayOfYear()-1)/7, i.e. weeks 1..53 counted
  /// from January 1st. This is the convention the data generator's weekly
  /// sales distributions use.
  int WeekOfYear() const;
  /// Last day of this date's month.
  Date EndOfMonth() const;

  Date AddDays(int days) const { return Date(jdn_ + days); }

  /// "YYYY-MM-DD".
  std::string ToString() const;

  friend bool operator==(const Date& a, const Date& b) {
    return a.jdn_ == b.jdn_;
  }
  friend auto operator<=>(const Date& a, const Date& b) {
    return a.jdn_ <=> b.jdn_;
  }
  /// Whole days from b to a.
  friend int32_t operator-(const Date& a, const Date& b) {
    return a.jdn_ - b.jdn_;
  }

 private:
  void ToYmd(int* year, int* month, int* day) const;

  int32_t jdn_;
};

}  // namespace tpcds

#endif  // TPCDS_UTIL_DATE_H_
