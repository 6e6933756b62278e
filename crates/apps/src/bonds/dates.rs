//! Calendar date substrate for the Bonds benchmark.
//!
//! The GPU quant-finance Bonds kernel (Grauer-Gray et al.) is built on
//! QuantLib-style date arithmetic: serial day numbers, month-end clamping
//! and day-count conventions. This module reimplements the pieces the
//! benchmark needs: proleptic-Gregorian serial dates, month arithmetic, and
//! the 30/360 and Actual/365 day counters.

/// A calendar date stored as a serial day number (days since 1900-01-01,
/// which is serial 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Date {
    serial: i32,
}

const DAYS_IN_MONTH: [i32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Gregorian leap-year rule.
pub(crate) fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days in a given month (1-based) of a given year.
pub(crate) fn days_in_month(year: i32, month: u32) -> i32 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

fn days_in_year(year: i32) -> i32 {
    if is_leap(year) {
        366
    } else {
        365
    }
}

impl Date {
    /// Construct from year/month/day; panics on invalid dates (callers are
    /// generators and tests, never untrusted input).
    pub(crate) fn from_ymd(year: i32, month: u32, day: u32) -> Date {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            (1..=days_in_month(year, month) as u32).contains(&day),
            "day {day} invalid for {year}-{month:02}"
        );
        let mut serial = 0i32;
        if year >= 1900 {
            for y in 1900..year {
                serial += days_in_year(y);
            }
        } else {
            for y in year..1900 {
                serial -= days_in_year(y);
            }
        }
        for m in 1..month {
            serial += days_in_month(year, m);
        }
        Date {
            serial: serial + day as i32 - 1,
        }
    }

    #[cfg(test)]
    fn from_serial(serial: i32) -> Date {
        Date { serial }
    }

    #[cfg(test)]
    fn serial(self) -> i32 {
        self.serial
    }

    /// Decompose into (year, month, day).
    pub(crate) fn ymd(self) -> (i32, u32, u32) {
        let mut remaining = self.serial;
        let mut year = 1900;
        if remaining >= 0 {
            while remaining >= days_in_year(year) {
                remaining -= days_in_year(year);
                year += 1;
            }
        } else {
            while remaining < 0 {
                year -= 1;
                remaining += days_in_year(year);
            }
        }
        let mut month = 1u32;
        while remaining >= days_in_month(year, month) {
            remaining -= days_in_month(year, month);
            month += 1;
        }
        (year, month, remaining as u32 + 1)
    }

    /// Add (or subtract) calendar days.
    pub(crate) fn add_days(self, days: i32) -> Date {
        Date {
            serial: self.serial + days,
        }
    }

    /// Add calendar months, clamping the day to the target month's end
    /// (QuantLib semantics: Jan 31 + 1 month = Feb 28/29).
    pub(crate) fn add_months(self, months: i32) -> Date {
        let (y, m, d) = self.ymd();
        let total = y * 12 + (m as i32 - 1) + months;
        let ny = total.div_euclid(12);
        let nm = (total.rem_euclid(12) + 1) as u32;
        let nd = (d as i32).min(days_in_month(ny, nm)) as u32;
        Date::from_ymd(ny, nm, nd)
    }

    /// Calendar days between two dates (`other - self`).
    pub(crate) fn days_until(self, other: Date) -> i32 {
        other.serial - self.serial
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// Day-count conventions used by the bond analytics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DayCount {
    /// US (NASD) 30/360.
    Thirty360,
    /// Actual/365 Fixed.
    Act365,
}

impl DayCount {
    /// Day count between two dates under this convention.
    pub(crate) fn days_between(self, d1: Date, d2: Date) -> i32 {
        match self {
            DayCount::Act365 => d1.days_until(d2),
            DayCount::Thirty360 => {
                let (y1, m1, mut dd1) = d1.ymd();
                let (y2, m2, mut dd2) = d2.ymd();
                if dd1 == 31 {
                    dd1 = 30;
                }
                if dd2 == 31 && dd1 == 30 {
                    dd2 = 30;
                }
                360 * (y2 - y1) + 30 * (m2 as i32 - m1 as i32) + (dd2 as i32 - dd1 as i32)
            }
        }
    }

    /// Year fraction between two dates.
    pub(crate) fn year_fraction(self, d1: Date, d2: Date) -> f64 {
        match self {
            DayCount::Act365 => self.days_between(d1, d2) as f64 / 365.0,
            DayCount::Thirty360 => self.days_between(d1, d2) as f64 / 360.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ymd_roundtrip_across_years() {
        for &(y, m, d) in &[
            (1900, 1, 1),
            (1999, 12, 31),
            (2000, 2, 29),
            (2001, 2, 28),
            (2024, 2, 29),
            (2038, 7, 15),
            (1897, 3, 4),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.ymd(), (y, m, d), "{y}-{m}-{d}");
        }
    }

    #[test]
    fn serial_zero_is_1900_01_01() {
        assert_eq!(Date::from_ymd(1900, 1, 1).serial(), 0);
        assert_eq!(Date::from_serial(0).ymd(), (1900, 1, 1));
    }

    #[test]
    fn leap_year_rule() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2024));
        assert!(!is_leap(2023));
        assert_eq!(days_in_month(2000, 2), 29);
        assert_eq!(days_in_month(1900, 2), 28);
    }

    #[test]
    fn add_days_crosses_boundaries() {
        let d = Date::from_ymd(1999, 12, 31).add_days(1);
        assert_eq!(d.ymd(), (2000, 1, 1));
        let d = Date::from_ymd(2000, 3, 1).add_days(-1);
        assert_eq!(d.ymd(), (2000, 2, 29));
    }

    #[test]
    fn add_months_clamps_to_month_end() {
        let d = Date::from_ymd(2023, 1, 31).add_months(1);
        assert_eq!(d.ymd(), (2023, 2, 28));
        let d = Date::from_ymd(2024, 1, 31).add_months(1);
        assert_eq!(d.ymd(), (2024, 2, 29));
        let d = Date::from_ymd(2023, 3, 15).add_months(-3);
        assert_eq!(d.ymd(), (2022, 12, 15));
        let d = Date::from_ymd(2023, 6, 30).add_months(18);
        assert_eq!(d.ymd(), (2024, 12, 30));
    }

    #[test]
    fn days_until_is_signed() {
        let a = Date::from_ymd(2020, 1, 1);
        let b = Date::from_ymd(2020, 3, 1);
        assert_eq!(a.days_until(b), 60); // 2020 is a leap year
        assert_eq!(b.days_until(a), -60);
    }

    #[test]
    fn thirty360_examples() {
        let dc = DayCount::Thirty360;
        // One 30/360 "month" is exactly 30 days.
        assert_eq!(
            dc.days_between(Date::from_ymd(2020, 1, 15), Date::from_ymd(2020, 2, 15)),
            30
        );
        // A full year is 360.
        assert_eq!(
            dc.days_between(Date::from_ymd(2020, 5, 7), Date::from_ymd(2021, 5, 7)),
            360
        );
        // 31st clamps to 30.
        assert_eq!(
            dc.days_between(Date::from_ymd(2020, 1, 31), Date::from_ymd(2020, 2, 28)),
            28
        );
        assert!(
            (dc.year_fraction(Date::from_ymd(2020, 1, 1), Date::from_ymd(2021, 1, 1)) - 1.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn act365_year_fraction() {
        let dc = DayCount::Act365;
        let a = Date::from_ymd(2021, 1, 1);
        let b = Date::from_ymd(2022, 1, 1);
        assert!((dc.year_fraction(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Date::from_ymd(2024, 3, 7)), "2024-03-07");
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn invalid_date_panics() {
        let _ = Date::from_ymd(2023, 2, 29);
    }
}
