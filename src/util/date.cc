#include "util/date.h"

#include <cstdio>

namespace tpcds {
namespace {

const char* const kDayNames[] = {"Monday",   "Tuesday", "Wednesday",
                                 "Thursday", "Friday",  "Saturday",
                                 "Sunday"};
const char* const kMonthNames[] = {"January",   "February", "March",
                                   "April",     "May",      "June",
                                   "July",      "August",   "September",
                                   "October",   "November", "December"};

}  // namespace

Date Date::FromYmd(int year, int month, int day) {
  // Fliegel & Van Flandern Gregorian -> JDN.
  int a = (14 - month) / 12;
  int y = year + 4800 - a;
  int m = month + 12 * a - 3;
  int32_t jdn = day + (153 * m + 2) / 5 + 365 * y + y / 4 - y / 100 +
                y / 400 - 32045;
  return Date(jdn);
}

Result<Date> Date::Parse(std::string_view view) {
  const std::string text(view);  // sscanf needs a terminated string
  int year = 0;
  int month = 0;
  int day = 0;
  char extra = '\0';
  if (std::sscanf(text.c_str(), "%d-%d-%d%c", &year, &month, &day, &extra) !=
      3) {
    return Status::ParseError("invalid date literal: '" + text + "'");
  }
  if (!IsValidYmd(year, month, day)) {
    return Status::ParseError("invalid calendar date: '" + text + "'");
  }
  return FromYmd(year, month, day);
}

bool Date::IsValidYmd(int year, int month, int day) {
  if (year < 1 || month < 1 || month > 12 || day < 1) return false;
  return day <= DaysInMonth(year, month);
}

bool Date::IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int Date::DaysInMonth(int year, int month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

void Date::ToYmd(int* year, int* month, int* day) const {
  // Fliegel & Van Flandern JDN -> Gregorian.
  int32_t a = jdn_ + 32044;
  int32_t b = (4 * a + 3) / 146097;
  int32_t c = a - 146097 * b / 4;
  int32_t d = (4 * c + 3) / 1461;
  int32_t e = c - 1461 * d / 4;
  int32_t m = (5 * e + 2) / 153;
  *day = e - (153 * m + 2) / 5 + 1;
  *month = m + 3 - 12 * (m / 10);
  *year = 100 * b + d - 4800 + m / 10;
}

int Date::year() const {
  int y, m, d;
  ToYmd(&y, &m, &d);
  return y;
}

int Date::month() const {
  int y, m, d;
  ToYmd(&y, &m, &d);
  return m;
}

int Date::day() const {
  int y, m, d;
  ToYmd(&y, &m, &d);
  return d;
}

int Date::DayOfWeek() const { return jdn_ % 7 + 1; }

const char* Date::DayName() const { return kDayNames[DayOfWeek() - 1]; }

const char* Date::MonthName() const { return kMonthNames[month() - 1]; }

int Date::Quarter() const { return (month() - 1) / 3 + 1; }

int Date::DayOfYear() const {
  return jdn_ - FromYmd(year(), 1, 1).jdn() + 1;
}

int Date::WeekOfYear() const { return 1 + (DayOfYear() - 1) / 7; }

Date Date::EndOfMonth() const {
  int y, m, d;
  ToYmd(&y, &m, &d);
  return FromYmd(y, m, DaysInMonth(y, m));
}

std::string Date::ToString() const {
  int y, m, d;
  ToYmd(&y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

}  // namespace tpcds
