#ifndef UOT_TYPES_DATE_H_
#define UOT_TYPES_DATE_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace uot {

/// Calendar helpers for the DATE type (int32 days since 1970-01-01).
///
/// Uses the standard civil-calendar conversion algorithms so interval
/// arithmetic in TPC-H predicates (e.g. `date '1994-01-01' + 1 year`) is
/// exact.

/// Days since 1970-01-01 for a proleptic Gregorian date.
constexpr int32_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int32_t>(era * 146097 + static_cast<int>(doe) - 719468);
}

/// Inverse of DaysFromCivil.
constexpr void CivilFromDays(int32_t z, int* y, int* m, int* d) {
  z += 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int yy = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *y = yy + (*m <= 2);
}

/// `MakeDate(1995, 3, 15)` == days value for 1995-03-15.
constexpr int32_t MakeDate(int y, int m, int d) { return DaysFromCivil(y, m, d); }

/// Adds calendar months, clamping the day-of-month (1995-01-31 + 1 month ->
/// 1995-02-28), matching SQL interval semantics closely enough for TPC-H.
inline int32_t AddMonths(int32_t date, int months) {
  int y, m, d;
  CivilFromDays(date, &y, &m, &d);
  int total = (y * 12 + (m - 1)) + months;
  y = total / 12;
  m = total % 12 + 1;
  static constexpr int kDays[12] = {31, 28, 31, 30, 31, 30,
                                    31, 31, 30, 31, 30, 31};
  int maxd = kDays[m - 1];
  if (m == 2 && ((y % 4 == 0 && y % 100 != 0) || y % 400 == 0)) maxd = 29;
  if (d > maxd) d = maxd;
  return DaysFromCivil(y, m, d);
}

inline int32_t AddYears(int32_t date, int years) {
  return AddMonths(date, years * 12);
}

/// "YYYY-MM-DD" rendering.
inline std::string DateToString(int32_t date) {
  int y, m, d;
  CivilFromDays(date, &y, &m, &d);
  // Room for any three ints ("-2147483648" is 11 characters), so no
  // year can truncate the text.
  char buf[3 * 11 + 2 + 1];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

}  // namespace uot

#endif  // UOT_TYPES_DATE_H_
