//! Date splitting: parse `YYYY-MM-DD`-style strings and extract parts.
//!
//! The unary operator family includes "date splitting"; this module provides
//! the executable transform. Only the Gregorian calendar arithmetic needed
//! for year/month/day/weekday extraction is implemented — no external crate.

use crate::column::Column;
use crate::error::{FrameError, Result};

/// Parts extractable from a date column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatePart {
    /// Calendar year.
    Year,
    /// Month 1–12.
    Month,
    /// Day of month 1–31.
    Day,
    /// Weekday 0=Monday … 6=Sunday (matching `datetime.weekday()`).
    Weekday,
}

impl DatePart {
    /// Name used in generated feature names (`date_year`, …).
    pub fn name(self) -> &'static str {
        match self {
            DatePart::Year => "year",
            DatePart::Month => "month",
            DatePart::Day => "day",
            DatePart::Weekday => "weekday",
        }
    }

    /// All parts the date-split transform produces.
    pub fn all() -> [DatePart; 4] {
        [
            DatePart::Year,
            DatePart::Month,
            DatePart::Day,
            DatePart::Weekday,
        ]
    }
}

/// A parsed calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Date {
    /// Calendar year (e.g. 2024).
    pub year: i32,
    /// Month 1–12.
    pub month: u32,
    /// Day of month 1–31 (validated against the month).
    pub day: u32,
}

impl Date {
    /// Parse `YYYY-MM-DD` or `YYYY/MM/DD`.
    pub fn parse(text: &str) -> Option<Date> {
        let text = text.trim();
        let sep = if text.contains('-') { '-' } else { '/' };
        let mut parts = text.splitn(3, sep);
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u32 = parts.next()?.parse().ok()?;
        let day: u32 = parts.next()?.parse().ok()?;
        let d = Date { year, month, day };
        d.is_valid().then_some(d)
    }

    /// True for a representable Gregorian date.
    pub fn is_valid(&self) -> bool {
        self.month >= 1 && self.month <= 12 && self.day >= 1 && self.day <= self.days_in_month()
    }

    /// Days in this date's month.
    pub fn days_in_month(&self) -> u32 {
        match self.month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if is_leap(self.year) {
                    29
                } else {
                    28
                }
            }
            _ => 0,
        }
    }

    /// Weekday with 0=Monday … 6=Sunday, via Zeller's congruence.
    pub fn weekday(&self) -> u32 {
        let (mut y, mut m) = (self.year, self.month as i32);
        if m < 3 {
            m += 12;
            y -= 1;
        }
        let k = y.rem_euclid(100);
        let j = y.div_euclid(100);
        // Zeller: 0=Saturday, 1=Sunday, 2=Monday, ...
        let h = (self.day as i32 + (13 * (m + 1)) / 5 + k + k / 4 + j / 4 + 5 * j).rem_euclid(7);
        // Convert to 0=Monday.
        ((h + 5) % 7) as u32
    }

    /// Extract one part.
    pub fn part(&self, p: DatePart) -> i64 {
        match p {
            DatePart::Year => self.year as i64,
            DatePart::Month => self.month as i64,
            DatePart::Day => self.day as i64,
            DatePart::Weekday => self.weekday() as i64,
        }
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Extract one date part from a string date column. Unparseable cells
/// become null.
pub fn date_part(col: &Column, part: DatePart, out_name: &str) -> Result<Column> {
    if col.is_numeric() {
        return Err(FrameError::TypeMismatch {
            column: col.name().to_string(),
            expected: "a string date column",
        });
    }
    let keys = col.keys_view();
    Ok(Column::from_int_iter(
        out_name,
        keys.iter()
            .map(|k| k.and_then(Date::parse).map(|d| d.part(part))),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn parse_iso_and_slash() {
        assert_eq!(
            Date::parse("2024-02-29"),
            Some(Date {
                year: 2024,
                month: 2,
                day: 29
            })
        );
        assert!(Date::parse("2023-02-29").is_none()); // not a leap year
        assert_eq!(
            Date::parse("1999/12/31"),
            Some(Date {
                year: 1999,
                month: 12,
                day: 31
            })
        );
        assert!(Date::parse("hello").is_none());
        assert!(Date::parse("2024-13-01").is_none());
    }

    #[test]
    fn weekday_known_dates() {
        // 2024-01-01 was a Monday; 2000-01-01 a Saturday; 2026-07-05 a Sunday.
        assert_eq!(Date::parse("2024-01-01").unwrap().weekday(), 0);
        assert_eq!(Date::parse("2000-01-01").unwrap().weekday(), 5);
        assert_eq!(Date::parse("2026-07-05").unwrap().weekday(), 6);
    }

    #[test]
    fn date_part_extraction() {
        let c = Column::from_str_slice("d", &["2021-07-15", "bad", "1980-01-02"]);
        let y = date_part(&c, DatePart::Year, "d_year").unwrap();
        assert_eq!(y.get(0), Value::Int(2021));
        assert!(y.is_null(1));
        assert_eq!(y.get(2), Value::Int(1980));
        let m = date_part(&c, DatePart::Month, "d_month").unwrap();
        assert_eq!(m.get(0), Value::Int(7));
    }

    #[test]
    fn date_part_rejects_numeric() {
        let c = Column::from_i64("x", vec![1]);
        assert!(date_part(&c, DatePart::Year, "y").is_err());
    }

    #[test]
    fn days_in_month_edges() {
        assert_eq!(
            Date {
                year: 1900,
                month: 2,
                day: 1
            }
            .days_in_month(),
            28 // 1900 is not a leap year (divisible by 100, not 400)
        );
        assert_eq!(
            Date {
                year: 2000,
                month: 2,
                day: 1
            }
            .days_in_month(),
            29
        );
    }
}
