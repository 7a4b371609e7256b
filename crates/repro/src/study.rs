//! The end-to-end study object and per-figure renderers.

use crate::render::{bar, compare, quantiles, sparkline};
use flock_analysis::prelude::*;
use flock_analysis::retention::RetentionClass;
use flock_apis::ApiServer;
use flock_core::{Day, Result};
use flock_crawler::dataset::Dataset;
use flock_crawler::pipeline::{Crawler, CrawlerConfig};
use flock_fedisim::{World, WorldConfig};
use flock_obs::Registry;
use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::Arc;

/// Identifier of a reproducible artifact (figure or headline table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigureId {
    Fig1,
    Fig2,
    Fig3,
    Fig4,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    Fig9,
    Fig10,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Headline,
}

impl FigureId {
    /// Every artifact, paper order.
    pub const ALL: [FigureId; 17] = [
        FigureId::Fig1,
        FigureId::Fig2,
        FigureId::Fig3,
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig6,
        FigureId::Fig7,
        FigureId::Fig8,
        FigureId::Fig9,
        FigureId::Fig10,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
        FigureId::Fig14,
        FigureId::Fig15,
        FigureId::Fig16,
        FigureId::Headline,
    ];

    /// What the artifact shows, as captioned in the paper.
    pub fn caption(self) -> &'static str {
        match self {
            FigureId::Fig1 => {
                "Fig 1: search interest for Twitter alternatives / Mastodon / Koo / Hive"
            }
            FigureId::Fig2 => "Fig 2: daily tweets with instance links vs migration keywords",
            FigureId::Fig3 => "Fig 3: weekly activity on Mastodon instances",
            FigureId::Fig4 => "Fig 4: top 30 Mastodon instances Twitter users migrated to",
            FigureId::Fig5 => "Fig 5: percentage of users on top-% instances",
            FigureId::Fig6 => "Fig 6: instance sizes and per-size follower/followee/status CDFs",
            FigureId::Fig7 => "Fig 7: follower/followee CDFs on Twitter vs Mastodon",
            FigureId::Fig8 => {
                "Fig 8: fraction of Twitter followees that migrated / earlier / same instance"
            }
            FigureId::Fig9 => "Fig 9: chord flows of instance switching",
            FigureId::Fig10 => "Fig 10: switchers' followees at first/second instance",
            FigureId::Fig11 => "Fig 11: daily tweets and statuses of migrated users",
            FigureId::Fig12 => "Fig 12: top 30 tweet sources before/after the takeover",
            FigureId::Fig13 => "Fig 13: daily users of cross-posting tools",
            FigureId::Fig14 => "Fig 14: fraction of statuses identical/similar to tweets",
            FigureId::Fig15 => "Fig 15: top 30 hashtags on each platform",
            FigureId::Fig16 => "Fig 16: per-user toxic-post fraction on each platform",
            FigureId::Headline => "Headline: every in-text statistic, paper vs measured",
        }
    }
}

impl FromStr for FigureId {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fig1" => Ok(FigureId::Fig1),
            "fig2" => Ok(FigureId::Fig2),
            "fig3" => Ok(FigureId::Fig3),
            "fig4" => Ok(FigureId::Fig4),
            "fig5" => Ok(FigureId::Fig5),
            "fig6" => Ok(FigureId::Fig6),
            "fig7" => Ok(FigureId::Fig7),
            "fig8" => Ok(FigureId::Fig8),
            "fig9" => Ok(FigureId::Fig9),
            "fig10" => Ok(FigureId::Fig10),
            "fig11" => Ok(FigureId::Fig11),
            "fig12" => Ok(FigureId::Fig12),
            "fig13" => Ok(FigureId::Fig13),
            "fig14" => Ok(FigureId::Fig14),
            "fig15" => Ok(FigureId::Fig15),
            "fig16" => Ok(FigureId::Fig16),
            "headline" | "stats" | "tables" => Ok(FigureId::Headline),
            other => Err(format!("unknown figure id {other:?}")),
        }
    }
}

/// The fully-executed reproduction: a world, the API layer it was served
/// through, and the dataset the crawler extracted.
pub struct MigrationStudy {
    /// Ground truth (used only for reporting world scale, never analysis).
    pub world: Arc<World>,
    /// The crawled, observed dataset every figure is computed from.
    pub dataset: Dataset,
}

impl MigrationStudy {
    /// Generate the world, stand up the APIs, run the crawl.
    pub fn run(config: &WorldConfig) -> Result<MigrationStudy> {
        Self::run_with_obs(config, &Registry::new())
    }

    /// [`MigrationStudy::run`], recording pipeline telemetry — migration
    /// waves, per-endpoint-family API counters, crawl phase spans — into
    /// `obs` along the way.
    pub fn run_with_obs(config: &WorldConfig, obs: &Registry) -> Result<MigrationStudy> {
        Self::run_configured(
            config,
            flock_apis::ApiConfig::default(),
            CrawlerConfig::default(),
            obs,
        )
    }

    /// Fully-configured run: caller controls the API layer (including its
    /// chaos `FaultPlan`) and the crawler (worker count, followee sample)
    /// as well as the world. Used by the `repro` binary's `--chaos` and
    /// `--workers` flags.
    pub fn run_configured(
        config: &WorldConfig,
        api_config: flock_apis::ApiConfig,
        crawler_config: CrawlerConfig,
        obs: &Registry,
    ) -> Result<MigrationStudy> {
        let world = Arc::new(World::generate(config)?);
        flock_fedisim::emit_migration_telemetry(&world.accounts, obs);
        let api = ApiServer::with_obs(world.clone(), api_config, obs.clone())?;
        let dataset = Crawler::with_registry(&api, crawler_config, obs.clone())?.run()?;
        Ok(MigrationStudy { world, dataset })
    }

    /// Build the run report for this study's crawl. Everything placed in
    /// the report's Data-tier section is a function of (seed, scale,
    /// chaos scenario) only — the chaos plan is re-resolved from the
    /// scenario rather than read off the server, and worker count and
    /// virtual-duration stats are confined to the Sched-tier context.
    pub fn run_report(
        &self,
        obs: &Registry,
        scenario: Option<flock_chaos::Scenario>,
        seed: u64,
        workers: usize,
    ) -> Result<flock_obs::report::RunReport> {
        let (scenario_name, chaos_plan) = match scenario {
            Some(s) => {
                let plan = s.plan(seed).resolve(&self.world.outage_candidates())?;
                (s.to_string(), plan.describe())
            }
            None => ("none".to_string(), String::new()),
        };
        let ds = &self.dataset;
        let facts = vec![
            ("seed".to_string(), seed.to_string()),
            (
                "collected tweets".to_string(),
                ds.collected_tweets.len().to_string(),
            ),
            ("searched users".to_string(), ds.searched_users.to_string()),
            ("matched users".to_string(), ds.matched.len().to_string()),
            (
                "twitter timelines".to_string(),
                ds.twitter_timelines.len().to_string(),
            ),
            (
                "mastodon timelines".to_string(),
                ds.mastodon_timelines.len().to_string(),
            ),
            (
                "followee records".to_string(),
                ds.followees.len().to_string(),
            ),
            (
                "landing instances".to_string(),
                ds.landing_instances().len().to_string(),
            ),
            (
                "weekly-activity instances".to_string(),
                ds.weekly_activity.len().to_string(),
            ),
        ];
        // Coverage gaps: the per-phase summary plus a bounded, determin-
        // istically ordered sample of the individual items.
        const COVERAGE_ITEM_CAP: usize = 20;
        let mut coverage: Vec<String> = ds.coverage.summary().lines().map(str::to_string).collect();
        for it in ds.coverage.skipped.iter().take(COVERAGE_ITEM_CAP) {
            coverage.push(format!("[{}] {} — {}", it.phase, it.item, it.reason));
        }
        let elided = ds.coverage.skipped.len().saturating_sub(COVERAGE_ITEM_CAP);
        if elided > 0 {
            coverage.push(format!("… {elided} more items"));
        }
        let meta = flock_obs::report::ReportMeta {
            title: format!("flock run report — scenario {scenario_name}"),
            scenario: scenario_name,
            chaos_plan,
            facts,
            coverage,
            sched_context: vec![
                ("workers".to_string(), workers.to_string()),
                (
                    "virtual crawl duration (secs)".to_string(),
                    ds.stats.virtual_secs.to_string(),
                ),
            ],
        };
        Ok(flock_obs::report::RunReport::build(obs, &meta))
    }

    /// A memoizing analysis of this study's dataset. Build one and pass it
    /// to the `*_with` renderers to compute each figure once across all of
    /// them; the plain renderers each build their own.
    pub fn analysis(&self) -> Analysis<'_> {
        Analysis::new(&self.dataset)
    }

    /// The headline paper-vs-measured table.
    pub fn headline(&self) -> HeadlineReport {
        HeadlineReport::compute(&self.dataset)
    }

    /// Rendered headline table.
    pub fn headline_report(&self) -> String {
        self.headline().to_table()
    }

    /// Render one artifact.
    pub fn render(&self, id: FigureId) -> String {
        self.render_with(&self.analysis(), id)
    }

    /// Render one artifact from `a`, an analysis of this study's dataset.
    pub fn render_with(&self, a: &Analysis<'_>, id: FigureId) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", id.caption());
        match id {
            FigureId::Fig1 => self.render_fig1(&mut out),
            FigureId::Fig2 => self.render_fig2(a, &mut out),
            FigureId::Fig3 => self.render_fig3(&mut out),
            FigureId::Fig4 => self.render_fig4(a, &mut out),
            FigureId::Fig5 => self.render_fig5(a, &mut out),
            FigureId::Fig6 => self.render_fig6(a, &mut out),
            FigureId::Fig7 => self.render_fig7(a, &mut out),
            FigureId::Fig8 => self.render_fig8(a, &mut out),
            FigureId::Fig9 => self.render_fig9(a, &mut out),
            FigureId::Fig10 => self.render_fig10(a, &mut out),
            FigureId::Fig11 => self.render_fig11(a, &mut out),
            FigureId::Fig12 => self.render_fig12(a, &mut out),
            FigureId::Fig13 => self.render_fig13(a, &mut out),
            FigureId::Fig14 => self.render_fig14(a, &mut out),
            FigureId::Fig15 => self.render_fig15(a, &mut out),
            FigureId::Fig16 => self.render_fig16(a, &mut out),
            FigureId::Headline => out.push_str(&a.headline().to_table()),
        }
        out
    }

    /// Render everything.
    pub fn render_all(&self) -> String {
        self.render_all_with(&self.analysis())
    }

    /// Render everything from `a`, an analysis of this study's dataset.
    pub fn render_all_with(&self, a: &Analysis<'_>) -> String {
        FigureId::ALL
            .iter()
            .map(|id| self.render_with(a, *id))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn render_fig1(&self, out: &mut String) {
        let r = &self.world.interest;
        for s in [&r.twitter_alternatives, &r.mastodon, &r.koo, &r.hive] {
            let Some(peak) = s
                .values
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| Day(i as i32))
            else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<22} {}  peak {}",
                s.name,
                sparkline(&s.values),
                peak
            );
        }
        let _ = writeln!(
            out,
            "(paper: spike on 2022-10-28, the day after the takeover)"
        );
    }

    fn render_fig2(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig2();
        let links: Vec<f64> = f.instance_links.iter().map(|v| *v as f64).collect();
        let kw: Vec<f64> = f.keywords_and_hashtags.iter().map(|v| *v as f64).collect();
        let _ = writeln!(out, "instance links        {}", sparkline(&links));
        let _ = writeln!(out, "keywords/hashtags     {}", sparkline(&kw));
        let _ = writeln!(
            out,
            "window {}  collected {} tweets from {} users (paper: 2,090,940 / 1,024,577)",
            day_span(&f.days),
            f.total_tweets,
            f.total_users
        );
    }

    fn render_fig3(&self, out: &mut String) {
        // Aggregate weekly activity across crawled instances.
        use std::collections::BTreeMap;
        let mut regs: BTreeMap<flock_core::Week, u64> = BTreeMap::new();
        let mut logins: BTreeMap<flock_core::Week, u64> = BTreeMap::new();
        let mut statuses: BTreeMap<flock_core::Week, u64> = BTreeMap::new();
        for rows in self.dataset.weekly_activity.values() {
            for r in rows {
                *regs.entry(r.week).or_default() += r.registrations;
                *logins.entry(r.week).or_default() += r.logins;
                *statuses.entry(r.week).or_default() += r.statuses;
            }
        }
        let series = |m: &BTreeMap<flock_core::Week, u64>| -> Vec<f64> {
            m.values().map(|v| *v as f64).collect()
        };
        let _ = writeln!(out, "registrations  {}", sparkline(&series(&regs)));
        let _ = writeln!(out, "logins         {}", sparkline(&series(&logins)));
        let _ = writeln!(out, "statuses       {}", sparkline(&series(&statuses)));
        if let (Some(first), Some(last)) = (regs.keys().next(), regs.keys().last()) {
            let _ = writeln!(
                out,
                "weeks {first} .. {last} over {} crawled instances (paper: surge after the takeover)",
                self.dataset.weekly_activity.len()
            );
        }
    }

    fn render_fig4(&self, a: &Analysis<'_>, out: &mut String) {
        let rows = a.fig4();
        let max = rows
            .iter()
            .map(|r| (r.before + r.after) as f64)
            .fold(0.0, f64::max);
        for r in rows {
            let _ = writeln!(
                out,
                "{}  (before {} / after {})",
                bar(&r.domain, (r.before + r.after) as f64, max, 40),
                r.before,
                r.after
            );
        }
        let pre = a.pre_takeover_account_fraction() * 100.0;
        let _ = writeln!(
            out,
            "accounts created before the takeover: {pre:.2}% (paper: 21%)"
        );
    }

    fn render_fig5(&self, a: &Analysis<'_>, out: &mut String) {
        let c = a.fig5();
        let sizes: Vec<usize> = a.instance_sizes().values().copied().collect();
        for pct in [5, 10, 15, 20, 25, 50, 75, 100] {
            let share = flock_analysis::top_fraction_share(&sizes, pct as f64 / 100.0);
            let _ = writeln!(
                out,
                "top {pct:>3}% of instances -> {:>6.2}% of users",
                share * 100.0
            );
        }
        out.push_str(&compare(
            "users on top 25% of instances",
            96.0,
            c.top_quartile_share * 100.0,
            "%",
        ));
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  landing instances: {} (paper: 2,879)   gini: {:.3}",
            c.n_instances, c.gini
        );
    }

    fn render_fig6(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig6();
        let _ = writeln!(
            out,
            "(a) instance-size distribution: {:.2}% single-user (paper: 13.16%)",
            f.single_user_instance_fraction * 100.0
        );
        for b in &f.buckets {
            let _ = writeln!(
                out,
                "  {:<14} {:>5} instances {:>6} users",
                b.label, b.n_instances, b.n_users
            );
        }
        let head: Vec<String> = f
            .size_histogram
            .iter()
            .take(8)
            .map(|(size, n)| format!("{size}u×{n}"))
            .collect();
        let _ = writeln!(out, "  size histogram head: {}", head.join("  "));
        let _ = writeln!(
            out,
            "(b) followers   (c) followees   (d) statuses — per-user CDFs by bucket:"
        );
        for b in &f.buckets {
            let _ = writeln!(out, "  [{}]", b.label);
            let _ = writeln!(out, "    {}", quantiles("followers", &b.followers));
            let _ = writeln!(out, "    {}", quantiles("followees", &b.followees));
            let _ = writeln!(out, "    {}", quantiles("statuses", &b.statuses));
        }
        out.push_str(&compare(
            "single-user follower advantage",
            64.88,
            f.single_vs_rest_followers_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "single-user followee advantage",
            99.04,
            f.single_vs_rest_followees_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "single-user status advantage",
            121.14,
            f.single_vs_rest_statuses_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "users entering the analysis",
            50.59,
            f.analyzed_user_fraction * 100.0,
            "%",
        ));
        let _ = writeln!(out);
    }

    fn render_fig7(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig7();
        let _ = writeln!(
            out,
            "{}",
            quantiles("twitter followers", &f.twitter_followers)
        );
        let _ = writeln!(
            out,
            "{}",
            quantiles("twitter followees", &f.twitter_followees)
        );
        let _ = writeln!(
            out,
            "{}",
            quantiles("mastodon followers", &f.mastodon_followers)
        );
        let _ = writeln!(
            out,
            "{}",
            quantiles("mastodon followees", &f.mastodon_followees)
        );
        out.push_str(&compare(
            "median twitter followers",
            744.0,
            f.twitter_follower_median,
            "",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "median twitter followees",
            787.0,
            f.twitter_followee_median,
            "",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "median mastodon followers",
            38.0,
            f.mastodon_follower_median,
            "",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "median mastodon followees",
            48.0,
            f.mastodon_followee_median,
            "",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "no mastodon followers",
            6.01,
            f.mastodon_no_followers_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "median twitter age (years)",
            11.5,
            f.twitter_median_age_years,
            "",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "median mastodon age (days)",
            35.0,
            f.mastodon_median_age_days,
            "",
        ));
        let _ = writeln!(out);
    }

    fn render_fig8(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig8();
        let _ = writeln!(out, "{}", quantiles("frac migrated", &f.frac_migrated));
        let _ = writeln!(
            out,
            "{}",
            quantiles("frac migrated before", &f.frac_migrated_before)
        );
        let _ = writeln!(
            out,
            "{}",
            quantiles("frac same instance", &f.frac_same_instance)
        );
        out.push_str(&compare(
            "mean followees migrated",
            5.99,
            f.mean_migrated_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "no followee migrated",
            3.94,
            f.none_migrated_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare("first movers", 4.98, f.first_mover_pct, "%"));
        let _ = writeln!(out);
        out.push_str(&compare("last movers", 4.58, f.last_mover_pct, "%"));
        let _ = writeln!(out);
        out.push_str(&compare(
            "migrated followees earlier",
            45.76,
            f.mean_migrated_before_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "migrated followees same instance",
            14.72,
            f.mean_same_instance_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "co-location on mastodon.social",
            30.68,
            f.same_instance_on_flagship_pct,
            "%",
        ));
        let _ = writeln!(out);
        let _ = writeln!(out, "  sampled users with followee data: {}", f.n_sampled);
    }

    fn render_fig9(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig9();
        let max = f.flows.first().map(|x| x.count as f64).unwrap_or(0.0);
        for flow in f.flows.iter().take(20) {
            let _ = writeln!(
                out,
                "{}",
                bar(
                    &format!("{} -> {}", flow.from, flow.to),
                    flow.count as f64,
                    max,
                    30
                )
            );
        }
        out.push_str(&compare("users who switched", 4.09, f.switcher_pct, "%"));
        let _ = writeln!(out);
        out.push_str(&compare(
            "switches post-takeover",
            97.22,
            f.post_takeover_pct,
            "%",
        ));
        let _ = writeln!(out);
        let _ = writeln!(out, "  switchers observed: {}", f.n_switchers);
    }

    fn render_fig10(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig10();
        let _ = writeln!(
            out,
            "{}",
            quantiles("frac at first instance", &f.frac_at_first)
        );
        let _ = writeln!(
            out,
            "{}",
            quantiles("frac at second instance", &f.frac_at_second)
        );
        let _ = writeln!(
            out,
            "{}",
            quantiles("frac at second (before)", &f.frac_at_second_before)
        );
        out.push_str(&compare(
            "followees at first instance",
            11.4,
            f.mean_at_first_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "followees at second instance",
            46.98,
            f.mean_at_second_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "at second before switcher",
            77.42,
            f.mean_second_before_pct,
            "%",
        ));
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  switchers with followee data: {}",
            f.n_switchers_with_followees
        );
    }

    fn render_fig11(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig11();
        let tweets: Vec<f64> = f.tweets.iter().map(|v| *v as f64).collect();
        let statuses: Vec<f64> = f.statuses.iter().map(|v| *v as f64).collect();
        let _ = writeln!(out, "tweets    {}", sparkline(&tweets));
        let _ = writeln!(out, "statuses  {}", sparkline(&statuses));
        let _ = writeln!(
            out,
            "days {}; total tweets {} statuses {}; twitter last/first week ratio {:.2} (paper: no decline)",
            day_span(&f.days),
            f.tweets.iter().sum::<u64>(),
            f.statuses.iter().sum::<u64>(),
            f.twitter_last_over_first_week,
        );
    }

    fn render_fig12(&self, a: &Analysis<'_>, out: &mut String) {
        let rows = a.fig12();
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>10} {:>10}",
            "source", "before", "after", "growth%"
        );
        for r in rows {
            let growth = r.growth_pct();
            let _ = writeln!(
                out,
                "{:<32} {:>10} {:>10} {:>10}",
                r.source,
                r.before,
                r.after,
                if growth.is_finite() {
                    format!("{growth:+.0}%")
                } else {
                    "new".to_string()
                }
            );
        }
        for (tool, paper) in [
            ("Mastodon-Twitter Crossposter", 1128.95),
            ("Moa Bridge", 1732.26),
        ] {
            if let Some(r) = rows.iter().find(|r| r.source == tool) {
                out.push_str(&compare(
                    &format!("{tool} growth"),
                    paper,
                    r.growth_pct(),
                    "%",
                ));
                let _ = writeln!(out);
            }
        }
    }

    fn render_fig13(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig13();
        let series: Vec<f64> = f.users_per_day.iter().map(|v| *v as f64).collect();
        let _ = writeln!(out, "daily cross-poster users  {}", sparkline(&series));
        out.push_str(&compare(
            "users ever using a cross-poster",
            5.73,
            f.ever_used_pct,
            "%",
        ));
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "(paper: rapid growth after the takeover, decline in late November)"
        );
    }

    fn render_fig14(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig14();
        let _ = writeln!(out, "{}", quantiles("identical fraction", &f.identical));
        let _ = writeln!(out, "{}", quantiles("similar fraction", &f.similar));
        out.push_str(&compare(
            "mean identical statuses",
            1.53,
            f.mean_identical_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "mean similar statuses",
            16.57,
            f.mean_similar_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "fully different users",
            84.45,
            f.fully_different_pct,
            "%",
        ));
        let _ = writeln!(out);
        let _ = writeln!(out, "  users with both timelines: {}", f.n_users);
    }

    fn render_fig15(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig15();
        let _ = writeln!(out, "{:<36} | mastodon", "twitter");
        for i in 0..30 {
            let left = f
                .twitter
                .get(i)
                .map(|r| format!("{:<28} {:>6}", r.tag, r.count))
                .unwrap_or_default();
            let right = f
                .mastodon
                .get(i)
                .map(|r| format!("{:<28} {:>6}", r.tag, r.count))
                .unwrap_or_default();
            if left.is_empty() && right.is_empty() {
                break;
            }
            let _ = writeln!(out, "{left:<36} | {right}");
        }
        let _ = writeln!(
            out,
            "(paper: diverse topics on Twitter; #fediverse/#TwitterMigration dominate Mastodon)"
        );
    }

    fn render_fig16(&self, a: &Analysis<'_>, out: &mut String) {
        let f = a.fig16();
        let _ = writeln!(out, "{}", quantiles("toxic frac (twitter)", &f.twitter));
        let _ = writeln!(out, "{}", quantiles("toxic frac (mastodon)", &f.mastodon));
        out.push_str(&compare(
            "toxic tweets (corpus)",
            5.49,
            f.twitter_corpus_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "toxic statuses (corpus)",
            2.80,
            f.mastodon_corpus_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "mean toxic tweets per user",
            4.02,
            f.twitter_user_mean_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "mean toxic statuses per user",
            2.07,
            f.mastodon_user_mean_pct,
            "%",
        ));
        let _ = writeln!(out);
        out.push_str(&compare(
            "toxic on both platforms",
            14.26,
            f.toxic_on_both_pct,
            "%",
        ));
        let _ = writeln!(out);
    }

    /// Render the §8 future-work retention extension.
    pub fn render_retention(&self) -> String {
        self.render_retention_with(&self.analysis())
    }

    /// [`MigrationStudy::render_retention`] from `a`, an analysis of this
    /// study's dataset.
    pub fn render_retention_with(&self, a: &Analysis<'_>) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== Extension: retention (the paper's §8 future-work question) ==="
        );
        let r = a.retention();
        let share = |c: RetentionClass| {
            *r.counts.get(&c).unwrap_or(&0) as f64 / r.n_users.max(1) as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "last-week behaviour of {} crawlable migrants:",
            r.n_users
        );
        let _ = writeln!(
            out,
            "  dual citizens (both platforms)   {:>6.2}%",
            share(RetentionClass::DualCitizen)
        );
        let _ = writeln!(
            out,
            "  fully migrated (Mastodon only)   {:>6.2}%",
            share(RetentionClass::FullyMigrated)
        );
        let _ = writeln!(
            out,
            "  returned to Twitter              {:>6.2}%",
            share(RetentionClass::Returned)
        );
        let _ = writeln!(
            out,
            "  dormant everywhere               {:>6.2}%",
            share(RetentionClass::Dormant)
        );
        let _ = writeln!(
            out,
            "mastodon retention {:.2}%   returned {:.2}%   late joiners (post-resignations accounts) {:.2}%",
            r.mastodon_retention_pct, r.returned_pct, r.late_joiner_pct
        );
        let curve: Vec<f64> = r.weekly_active_users.iter().map(|v| *v as f64).collect();
        let _ = writeln!(
            out,
            "weekly active status posters     {}",
            sparkline(&curve)
        );
        out
    }

    /// Render the topical-alignment extension (§5.2/§5.3's qualitative
    /// claims, quantified from observed hashtags).
    pub fn render_topics(&self) -> String {
        self.render_topics_with(&self.analysis())
    }

    /// [`MigrationStudy::render_topics`] from `a`, an analysis of this
    /// study's dataset.
    pub fn render_topics_with(&self, a: &Analysis<'_>) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== Extension: topical alignment (quantifying §5.2/§5.3) ==="
        );
        let r = a.topics();
        let _ = writeln!(
            out,
            "most topically coherent instances (≥5 interest-typed users):"
        );
        for p in r.profiles.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<28} {:>4} users  modal topic {:<14} coherence {:>5.1}%",
                p.domain,
                p.n_users,
                p.modal_topic.as_deref().unwrap_or("-"),
                p.coherence * 100.0
            );
        }
        let _ = writeln!(
            out,
            "flagship (mastodon.social) coherence: {:.1}% — topical servers should sit far above it",
            r.flagship_coherence * 100.0
        );
        let _ = writeln!(
            out,
            "switchers aligned with destination's modal topic: {:.1}% (vs {:.1}% at their first instance)",
            r.switcher_alignment_pct, r.pre_switch_alignment_pct
        );
        let _ = writeln!(
            out,
            "(paper: switches flow from general-purpose to topic-specific instances)"
        );
        out
    }

    /// Generate EXPERIMENTS.md: the per-figure paper-vs-measured record.
    pub fn experiments_markdown(&self, config: &WorldConfig) -> String {
        self.experiments_markdown_with(&self.analysis(), config)
    }

    /// [`MigrationStudy::experiments_markdown`] from `a`, an analysis of
    /// this study's dataset.
    pub fn experiments_markdown_with(&self, a: &Analysis<'_>, config: &WorldConfig) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# EXPERIMENTS — paper vs measured\n");
        let _ = writeln!(
            out,
            "World: seed {}, {} searchable users, {} instances; identified {} migrants \
             on {} instances; crawl used {} API requests ({} rate-limit waits, {} virtual seconds).\n",
            config.seed,
            config.n_searchable_users,
            config.n_instances,
            self.dataset.matched.len(),
            self.dataset.landing_instances().len(),
            self.dataset.stats.requests,
            self.dataset.stats.rate_limited,
            self.dataset.stats.virtual_secs,
        );
        let _ = writeln!(
            out,
            "Absolute counts are scaled (the world is a simulator); the reproduction \
             target is each figure's *shape* and every reported proportion. `repro <figN>` \
             regenerates any figure below.\n"
        );
        for id in FigureId::ALL {
            let _ = writeln!(out, "## {}\n", id.caption());
            let _ = writeln!(out, "```text");
            let rendered = self.render_with(a, id);
            // Drop the duplicate banner line.
            let body: String = rendered.lines().skip(1).collect::<Vec<_>>().join("\n");
            out.push_str(&body);
            let _ = writeln!(out, "\n```\n");
        }
        let _ = writeln!(out, "## Reproduction verdicts\n");
        let _ = writeln!(
            out,
            "Bands: PASS < 33% relative error (or < 3 points absolute); \
             WARN < 75% (or < 8 points); FAIL otherwise.\n"
        );
        let _ = writeln!(out, "```text");
        out.push_str(&a.headline().to_verify_table());
        let _ = writeln!(out, "```\n");
        for (title, body) in [
            ("retention (§8 future work)", self.render_retention_with(a)),
            (
                "topical alignment (§5.2/§5.3 quantified)",
                self.render_topics_with(a),
            ),
        ] {
            let _ = writeln!(out, "## Extension: {title}\n");
            let _ = writeln!(out, "```text");
            let body: String = body.lines().skip(1).collect::<Vec<_>>().join("\n");
            out.push_str(&body);
            let _ = writeln!(out, "\n```\n");
        }
        out
    }
}

/// `"first .. last"` of a day series, or `"-"` when the series is empty.
fn day_span(days: &[Day]) -> String {
    match (days.first(), days.last()) {
        (Some(a), Some(b)) => format!("{a} .. {b}"),
        _ => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One seed-404 `small()` study, with the registry it reported into.
    fn observed() -> &'static (MigrationStudy, Registry) {
        static CELL: OnceLock<(MigrationStudy, Registry)> = OnceLock::new();
        CELL.get_or_init(|| {
            let obs = Registry::new();
            let study = MigrationStudy::run_with_obs(&WorldConfig::small().with_seed(404), &obs)
                .expect("study");
            (study, obs)
        })
    }

    fn study() -> &'static MigrationStudy {
        &observed().0
    }

    /// The world is generated, and its migration telemetry emitted, once
    /// per run: the Data-tier migrant counter equals the world's accounts.
    #[test]
    fn run_with_obs_generates_one_world() {
        let (study, obs) = observed();
        assert_eq!(
            obs.counter_value("flock.fedisim.migration.migrants"),
            Some(study.world.accounts.len() as u64)
        );
    }

    #[test]
    fn one_analysis_computes_each_figure_once_across_renderers() {
        let s = study();
        let a = s.analysis();
        s.render_with(&a, FigureId::Fig5);
        assert!(
            !a.computed().contains(&"fig14"),
            "Fig 5 computed Fig 14: {:?}",
            a.computed()
        );
        s.render_all_with(&a);
        let after_render = a.computed();
        s.render_retention_with(&a);
        s.render_topics_with(&a);
        let dir = std::env::temp_dir().join(format!("flock-memo-csv-{}", std::process::id()));
        s.export_csv_with(&a, &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        s.experiments_markdown_with(&a, &WorldConfig::small().with_seed(404));
        let all = a.computed();
        // CSV export and EXPERIMENTS.md reuse what rendering computed.
        assert_eq!(all[..after_render.len()], after_render[..]);
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "recomputed: {all:?}");
        // One pass reads every memoized result.
        assert_eq!(all.len(), 19, "{all:?}");
    }

    #[test]
    fn figure_ids_parse_round_trip() {
        for id in FigureId::ALL {
            if id == FigureId::Headline {
                assert_eq!("headline".parse::<FigureId>().unwrap(), id);
            } else {
                let s = format!("{id:?}").to_lowercase();
                assert_eq!(s.parse::<FigureId>().unwrap(), id);
            }
        }
        assert!("fig99".parse::<FigureId>().is_err());
    }

    #[test]
    fn every_figure_renders_nonempty() {
        let s = study();
        for id in FigureId::ALL {
            let text = s.render(id);
            assert!(text.lines().count() >= 2, "{id:?} rendered empty:\n{text}");
            assert!(text.contains("==="), "{id:?} missing banner");
        }
    }

    #[test]
    fn render_all_contains_all_banners() {
        let text = study().render_all();
        for id in FigureId::ALL {
            assert!(text.contains(id.caption()), "missing {id:?}");
        }
    }

    #[test]
    fn headline_report_lists_metrics() {
        let r = study().headline();
        assert!(r.n_matched > 50);
        assert!(r.metrics.len() > 30);
    }

    #[test]
    fn experiments_markdown_structure() {
        let config = WorldConfig::small().with_seed(404);
        let md = study().experiments_markdown(&config);
        assert!(md.starts_with("# EXPERIMENTS"));
        // One block per figure + the verdicts table + two extensions.
        assert_eq!(md.matches("```text").count(), FigureId::ALL.len() + 3);
        assert!(md.contains("Fig 5"));
        assert!(md.contains("paper"));
    }
}
