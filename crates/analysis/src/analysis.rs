//! [`Analysis`]: one dataset's figures, each computed at most once.
//!
//! The headline table, the figure renderers, the CSV export and
//! `EXPERIMENTS.md` read overlapping figures: the headline alone reads
//! Figs. 5–10 and 13–16, and a figure's renderer and its CSV read the same
//! value again. An `Analysis` borrows a [`Dataset`] and memoizes every
//! result the first time it is read, so each `figN` function runs at most
//! once per `Analysis` and only when something reads it: rendering Fig. 5
//! computes Fig. 5 and the instance sizes, never Fig. 14.
//!
//! The memoized values are the figure aggregates the free functions
//! return (CDFs, rankings, counts); an `Analysis` copies no post text.

use crate::headline::HeadlineReport;
use crate::retention::{retention, RetentionReport};
use crate::rq1::{
    fig4_top_instances, fig5_centralization, fig6_size_analysis, instance_sizes,
    pre_takeover_account_fraction, Fig4Row, Fig5Centralization, Fig6InstanceSizes,
};
use crate::rq2::{
    fig10_switcher_influence, fig7_social_networks, fig8_influence, fig9_switching,
    Fig10SwitcherInfluence, Fig7SocialNetworks, Fig8Influence, Fig9Switching,
};
use crate::rq3::{
    fig11_activity, fig12_sources, fig13_crossposters, fig14_similarity, fig15_hashtags,
    fig16_toxicity, fig2_collection, Fig11Activity, Fig13CrossPosters, Fig14Similarity,
    Fig15Hashtags, Fig16Toxicity, Fig2Collection, SourceRow,
};
use crate::topics::{topic_report, TopicReport};
use flock_crawler::dataset::Dataset;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Rows kept by the ranked figures (Figs. 4, 12 and 15), as in the paper.
pub const TOP_N: usize = 30;

/// Interest-typed users an instance needs to get a topical profile.
pub const TOPIC_MIN_USERS: usize = 5;

/// A memoizing view of one [`Dataset`]: every figure, the instance sizes,
/// the pre-takeover fraction, retention, topics and the headline, each
/// computed on first read and then borrowed.
#[derive(Debug)]
pub struct Analysis<'d> {
    ds: &'d Dataset,
    cells: Cells,
}

/// One cell per memoized result, plus the log of what has been computed.
#[derive(Debug, Default)]
struct Cells {
    fig2: OnceLock<Fig2Collection>,
    fig4: OnceLock<Vec<Fig4Row>>,
    fig5: OnceLock<Fig5Centralization>,
    fig6: OnceLock<Fig6InstanceSizes>,
    fig7: OnceLock<Fig7SocialNetworks>,
    fig8: OnceLock<Fig8Influence>,
    fig9: OnceLock<Fig9Switching>,
    fig10: OnceLock<Fig10SwitcherInfluence>,
    fig11: OnceLock<Fig11Activity>,
    fig12: OnceLock<Vec<SourceRow>>,
    fig13: OnceLock<Fig13CrossPosters>,
    fig14: OnceLock<Fig14Similarity>,
    fig15: OnceLock<Fig15Hashtags>,
    fig16: OnceLock<Fig16Toxicity>,
    instance_sizes: OnceLock<BTreeMap<String, usize>>,
    pre_takeover: OnceLock<f64>,
    retention: OnceLock<RetentionReport>,
    topics: OnceLock<TopicReport>,
    headline: OnceLock<HeadlineReport>,
    /// Names of the results computed so far, in completion order.
    computed: Mutex<Vec<&'static str>>,
}

impl<'d> Analysis<'d> {
    /// A view of `ds` with nothing computed yet.
    pub fn new(ds: &'d Dataset) -> Self {
        Analysis {
            ds,
            cells: Cells::default(),
        }
    }

    /// The dataset every result is computed from.
    pub fn dataset(&self) -> &'d Dataset {
        self.ds
    }

    /// The results computed so far, by accessor name, in the order they
    /// finished. A result appears at most once: that is the memo.
    pub fn computed(&self) -> Vec<&'static str> {
        self.log().clone()
    }

    /// The computation log. It is locked only around a `push` or a clone,
    /// never while a figure computes, and neither leaves it half-written,
    /// so a poisoned guard is safe to take back.
    fn log(&self) -> MutexGuard<'_, Vec<&'static str>> {
        self.cells
            .computed
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn memo<'s, T>(
        &'s self,
        cell: &'s OnceLock<T>,
        name: &'static str,
        compute: impl FnOnce() -> T,
    ) -> &'s T {
        cell.get_or_init(|| {
            let value = compute();
            self.log().push(name);
            value
        })
    }

    /// Fig. 2, [`fig2_collection`].
    pub fn fig2(&self) -> &Fig2Collection {
        self.memo(&self.cells.fig2, "fig2", || fig2_collection(self.ds))
    }

    /// Fig. 4, [`fig4_top_instances`] at [`TOP_N`].
    pub fn fig4(&self) -> &[Fig4Row] {
        self.memo(&self.cells.fig4, "fig4", || {
            fig4_top_instances(self.ds, TOP_N)
        })
        .as_slice()
    }

    /// Fig. 5, [`fig5_centralization`].
    pub fn fig5(&self) -> &Fig5Centralization {
        self.memo(&self.cells.fig5, "fig5", || fig5_centralization(self.ds))
    }

    /// Fig. 6, [`fig6_size_analysis`].
    pub fn fig6(&self) -> &Fig6InstanceSizes {
        self.memo(&self.cells.fig6, "fig6", || fig6_size_analysis(self.ds))
    }

    /// Fig. 7, [`fig7_social_networks`].
    pub fn fig7(&self) -> &Fig7SocialNetworks {
        self.memo(&self.cells.fig7, "fig7", || fig7_social_networks(self.ds))
    }

    /// Fig. 8, [`fig8_influence`].
    pub fn fig8(&self) -> &Fig8Influence {
        self.memo(&self.cells.fig8, "fig8", || fig8_influence(self.ds))
    }

    /// Fig. 9, [`fig9_switching`].
    pub fn fig9(&self) -> &Fig9Switching {
        self.memo(&self.cells.fig9, "fig9", || fig9_switching(self.ds))
    }

    /// Fig. 10, [`fig10_switcher_influence`].
    pub fn fig10(&self) -> &Fig10SwitcherInfluence {
        self.memo(&self.cells.fig10, "fig10", || {
            fig10_switcher_influence(self.ds)
        })
    }

    /// Fig. 11, [`fig11_activity`].
    pub fn fig11(&self) -> &Fig11Activity {
        self.memo(&self.cells.fig11, "fig11", || fig11_activity(self.ds))
    }

    /// Fig. 12, [`fig12_sources`] at [`TOP_N`].
    pub fn fig12(&self) -> &[SourceRow] {
        self.memo(&self.cells.fig12, "fig12", || fig12_sources(self.ds, TOP_N))
            .as_slice()
    }

    /// Fig. 13, [`fig13_crossposters`].
    pub fn fig13(&self) -> &Fig13CrossPosters {
        self.memo(&self.cells.fig13, "fig13", || fig13_crossposters(self.ds))
    }

    /// Fig. 14, [`fig14_similarity`].
    pub fn fig14(&self) -> &Fig14Similarity {
        self.memo(&self.cells.fig14, "fig14", || fig14_similarity(self.ds))
    }

    /// Fig. 15, [`fig15_hashtags`] at [`TOP_N`].
    pub fn fig15(&self) -> &Fig15Hashtags {
        self.memo(&self.cells.fig15, "fig15", || {
            fig15_hashtags(self.ds, TOP_N)
        })
    }

    /// Fig. 16, [`fig16_toxicity`].
    pub fn fig16(&self) -> &Fig16Toxicity {
        self.memo(&self.cells.fig16, "fig16", || fig16_toxicity(self.ds))
    }

    /// Users per current instance, [`instance_sizes`].
    pub fn instance_sizes(&self) -> &BTreeMap<String, usize> {
        self.memo(&self.cells.instance_sizes, "instance_sizes", || {
            instance_sizes(self.ds)
        })
    }

    /// [`pre_takeover_account_fraction`].
    pub fn pre_takeover_account_fraction(&self) -> f64 {
        *self.memo(
            &self.cells.pre_takeover,
            "pre_takeover_account_fraction",
            || pre_takeover_account_fraction(self.ds),
        )
    }

    /// The §8 retention extension, [`retention`].
    pub fn retention(&self) -> &RetentionReport {
        self.memo(&self.cells.retention, "retention", || retention(self.ds))
    }

    /// The topical-alignment extension, [`topic_report`] at
    /// [`TOPIC_MIN_USERS`].
    pub fn topics(&self) -> &TopicReport {
        self.memo(&self.cells.topics, "topics", || {
            topic_report(self.ds, TOPIC_MIN_USERS)
        })
    }

    /// The headline table, [`HeadlineReport`]: it reads its figures
    /// through this view, so they are computed once for both.
    pub fn headline(&self) -> &HeadlineReport {
        self.memo(&self.cells.headline, "headline", || {
            HeadlineReport::from_analysis(self)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every accessor, in the order a `repro all` pass first reads them.
    fn read_everything(a: &Analysis<'_>) {
        a.headline();
        a.fig2();
        a.fig4();
        a.fig5();
        a.fig6();
        a.fig7();
        a.fig8();
        a.fig9();
        a.fig10();
        a.fig11();
        a.fig12();
        a.fig13();
        a.fig14();
        a.fig15();
        a.fig16();
        a.instance_sizes();
        a.pre_takeover_account_fraction();
        a.retention();
        a.topics();
    }

    #[test]
    fn each_result_is_computed_at_most_once() {
        let ds = Dataset::default();
        let a = Analysis::new(&ds);
        assert!(a.computed().is_empty(), "nothing is computed up front");
        read_everything(&a);
        let first = a.computed();
        read_everything(&a);
        assert_eq!(a.computed(), first, "a second pass recomputes nothing");
        let mut names = first.clone();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), first.len(), "a result ran twice: {first:?}");
        assert_eq!(first.len(), 19, "{first:?}");
        // The headline read its figures through the memo, before itself.
        let pos = |name: &str| first.iter().position(|n| *n == name);
        for fig in ["fig5", "fig6", "fig14", "fig16"] {
            assert!(pos(fig) < pos("headline"), "{first:?}");
        }
    }

    #[test]
    fn reading_one_figure_computes_only_that_figure() {
        let ds = Dataset::default();
        let a = Analysis::new(&ds);
        a.fig5();
        a.fig5();
        assert_eq!(a.computed(), vec!["fig5"]);
    }
}
