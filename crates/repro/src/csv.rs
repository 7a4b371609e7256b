//! CSV export of every figure's data series, for external plotting.
//!
//! Each figure writes one tidy long-format file (`figN.csv`) with a header
//! row; CDFs are exported as `(x, P(X<=x))` curves, time series as
//! per-day/per-week rows, and rankings as labelled rows.

use crate::study::MigrationStudy;
use flock_analysis::prelude::*;
use flock_core::{FlockError, Result};
use std::fmt::Write as _;
use std::path::Path;

/// Quote a field iff RFC 4180 requires it: a field containing `"`, `,`,
/// CR or LF is wrapped in quotes with every `"` doubled.
fn escape_field(field: &str) -> String {
    if field.contains(['"', ',', '\r', '\n']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// An ECDF as `series,x,cdf` rows appended to `out`.
fn ecdf_rows(out: &mut String, series: &str, e: &Ecdf, points: usize) {
    for (x, p) in e.curve(points) {
        let _ = writeln!(out, "{},{x},{p}", escape_field(series));
    }
}

impl MigrationStudy {
    /// Write `fig1.csv` … `fig16.csv` (plus `headline.csv` and
    /// `retention.csv`) into `dir`. Returns the number of files written.
    pub fn export_csv(&self, dir: &Path) -> Result<usize> {
        self.export_csv_with(&self.analysis(), dir)
    }

    /// [`MigrationStudy::export_csv`] from `a`, an analysis of this
    /// study's dataset.
    pub fn export_csv_with(&self, a: &Analysis<'_>, dir: &Path) -> Result<usize> {
        std::fs::create_dir_all(dir)
            .map_err(|e| FlockError::InvalidConfig(format!("mkdir {}: {e}", dir.display())))?;
        let mut written = 0;
        let mut write = |name: &str, content: String| -> Result<()> {
            std::fs::write(dir.join(name), content)
                .map_err(|e| FlockError::InvalidConfig(format!("write {name}: {e}")))?;
            written += 1;
            Ok(())
        };

        // fig1: day,series,interest
        {
            let mut s = String::from("day,series,interest\n");
            let r = &self.world.interest;
            for series in [&r.twitter_alternatives, &r.mastodon, &r.koo, &r.hive] {
                for (i, v) in series.values.iter().enumerate() {
                    let _ = writeln!(
                        s,
                        "{},{},{v}",
                        flock_core::Day(i as i32),
                        escape_field(&series.name)
                    );
                }
            }
            write("fig1.csv", s)?;
        }
        // fig2: day,instance_links,keywords_hashtags
        {
            let f = a.fig2();
            let mut s = String::from("day,instance_links,keywords_hashtags\n");
            for (i, day) in f.days.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "{day},{},{}",
                    f.instance_links[i], f.keywords_and_hashtags[i]
                );
            }
            write("fig2.csv", s)?;
        }
        // fig3: week_monday,registrations,logins,statuses (totals)
        {
            use std::collections::BTreeMap;
            let mut totals: BTreeMap<flock_core::Week, (u64, u64, u64)> = BTreeMap::new();
            for rows in self.dataset.weekly_activity.values() {
                for r in rows {
                    let e = totals.entry(r.week).or_default();
                    e.0 += r.registrations;
                    e.1 += r.logins;
                    e.2 += r.statuses;
                }
            }
            let mut s = String::from("week_monday,registrations,logins,statuses\n");
            for (w, (reg, log, st)) in totals {
                let _ = writeln!(s, "{},{reg},{log},{st}", w.monday());
            }
            write("fig3.csv", s)?;
        }
        // fig4: domain,before,after
        {
            let mut s = String::from("domain,before_takeover,after_takeover\n");
            for r in a.fig4() {
                let _ = writeln!(s, "{},{},{}", escape_field(&r.domain), r.before, r.after);
            }
            write("fig4.csv", s)?;
        }
        // fig5: frac_instances,frac_users
        {
            let c = a.fig5();
            let mut s = String::from("frac_instances,frac_users\n");
            for (fi, fu) in &c.curve {
                let _ = writeln!(s, "{fi},{fu}");
            }
            write("fig5.csv", s)?;
        }
        // fig6: bucket,metric,x,cdf
        {
            let f = a.fig6();
            let mut s = String::from("bucket,metric,x,cdf\n");
            for b in &f.buckets {
                for (metric, e) in [
                    ("followers", &b.followers),
                    ("followees", &b.followees),
                    ("statuses", &b.statuses),
                ] {
                    for (x, p) in e.curve(50) {
                        let _ = writeln!(s, "{},{metric},{x},{p}", escape_field(&b.label));
                    }
                }
            }
            write("fig6.csv", s)?;
        }
        // fig7: series,x,cdf
        {
            let f = a.fig7();
            let mut s = String::from("series,x,cdf\n");
            ecdf_rows(&mut s, "twitter_followers", &f.twitter_followers, 100);
            ecdf_rows(&mut s, "twitter_followees", &f.twitter_followees, 100);
            ecdf_rows(&mut s, "mastodon_followers", &f.mastodon_followers, 100);
            ecdf_rows(&mut s, "mastodon_followees", &f.mastodon_followees, 100);
            write("fig7.csv", s)?;
        }
        // fig8 + fig10: series,x,cdf
        {
            let f = a.fig8();
            let mut s = String::from("series,x,cdf\n");
            ecdf_rows(&mut s, "migrated", &f.frac_migrated, 100);
            ecdf_rows(&mut s, "migrated_before", &f.frac_migrated_before, 100);
            ecdf_rows(&mut s, "same_instance", &f.frac_same_instance, 100);
            write("fig8.csv", s)?;
            let f = a.fig10();
            let mut s = String::from("series,x,cdf\n");
            ecdf_rows(&mut s, "at_first_instance", &f.frac_at_first, 100);
            ecdf_rows(&mut s, "at_second_instance", &f.frac_at_second, 100);
            ecdf_rows(&mut s, "at_second_before", &f.frac_at_second_before, 100);
            write("fig10.csv", s)?;
        }
        // fig9: from,to,count
        {
            let f = a.fig9();
            let mut s = String::from("from,to,count\n");
            for flow in &f.flows {
                let _ = writeln!(
                    s,
                    "{},{},{}",
                    escape_field(&flow.from),
                    escape_field(&flow.to),
                    flow.count
                );
            }
            write("fig9.csv", s)?;
        }
        // fig11: day,tweets,statuses
        {
            let f = a.fig11();
            let mut s = String::from("day,tweets,statuses\n");
            for (i, d) in f.days.iter().enumerate() {
                let _ = writeln!(s, "{d},{},{}", f.tweets[i], f.statuses[i]);
            }
            write("fig11.csv", s)?;
        }
        // fig12: source,before,after,growth_pct
        {
            let mut s = String::from("source,before,after,growth_pct\n");
            for r in a.fig12() {
                let _ = writeln!(
                    s,
                    "{},{},{},{}",
                    escape_field(&r.source),
                    r.before,
                    r.after,
                    r.growth_pct()
                );
            }
            write("fig12.csv", s)?;
        }
        // fig13: day,users
        {
            let f = a.fig13();
            let mut s = String::from("day,crossposter_users\n");
            for (i, d) in f.days.iter().enumerate() {
                let _ = writeln!(s, "{d},{}", f.users_per_day[i]);
            }
            write("fig13.csv", s)?;
        }
        // fig14: series,x,cdf
        {
            let f = a.fig14();
            let mut s = String::from("series,x,cdf\n");
            ecdf_rows(&mut s, "identical", &f.identical, 100);
            ecdf_rows(&mut s, "similar", &f.similar, 100);
            write("fig14.csv", s)?;
        }
        // fig15: platform,hashtag,count
        {
            let f = a.fig15();
            let mut s = String::from("platform,hashtag,count\n");
            for r in &f.twitter {
                let _ = writeln!(s, "twitter,{},{}", escape_field(&r.tag), r.count);
            }
            for r in &f.mastodon {
                let _ = writeln!(s, "mastodon,{},{}", escape_field(&r.tag), r.count);
            }
            write("fig15.csv", s)?;
        }
        // fig16: series,x,cdf
        {
            let f = a.fig16();
            let mut s = String::from("series,x,cdf\n");
            ecdf_rows(&mut s, "twitter", &f.twitter, 100);
            ecdf_rows(&mut s, "mastodon", &f.mastodon, 100);
            write("fig16.csv", s)?;
        }
        // headline: metric,paper,measured,unit,verdict
        {
            let r = a.headline();
            let mut s = String::from("metric,paper,measured,unit,verdict\n");
            for m in &r.metrics {
                let _ = writeln!(
                    s,
                    "{},{},{},{},{:?}",
                    escape_field(&m.name),
                    m.paper,
                    m.measured,
                    escape_field(&m.unit),
                    m.verdict()
                );
            }
            write("headline.csv", s)?;
        }
        // retention: week_offset,active_users
        {
            let r = a.retention();
            let mut s = String::from("weeks_after_takeover,active_status_posters\n");
            for (i, n) in r.weekly_active_users.iter().enumerate() {
                let _ = writeln!(s, "{i},{n}");
            }
            write("retention.csv", s)?;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_fedisim::WorldConfig;
    use std::sync::OnceLock;

    fn study() -> &'static MigrationStudy {
        static CELL: OnceLock<MigrationStudy> = OnceLock::new();
        CELL.get_or_init(|| {
            MigrationStudy::run(&WorldConfig::small().with_seed(505)).expect("study")
        })
    }

    #[test]
    fn exports_every_figure() {
        let dir = std::env::temp_dir().join("flock_csv_test");
        let n = study().export_csv(&dir).unwrap();
        assert_eq!(n, 18, "16 figures + headline + retention");
        for name in [
            "fig1.csv",
            "fig5.csv",
            "fig9.csv",
            "fig16.csv",
            "headline.csv",
        ] {
            let content = std::fs::read_to_string(dir.join(name)).unwrap();
            assert!(content.lines().count() > 1, "{name} is empty");
            // Every row has the same number of fields as the header
            // (quoted-field-free files only, which these are by design).
            let cols = content.lines().next().unwrap().split(',').count();
            for line in content.lines().skip(1).take(20) {
                assert_eq!(line.split(',').count(), cols, "{name}: ragged row {line}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_field_quoting() {
        assert_eq!(escape_field("plain"), "plain");
        assert_eq!(escape_field("has,comma"), "\"has,comma\"");
        assert_eq!(escape_field("has\"quote"), "\"has\"\"quote\"");
        assert_eq!(escape_field("has\nnewline"), "\"has\nnewline\"");
        // RFC 4180 quotes a bare carriage return too.
        assert_eq!(escape_field("has\rreturn"), "\"has\rreturn\"");
    }
}
