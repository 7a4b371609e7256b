//! # flock-analysis — RQ1 / RQ2 / RQ3 over the crawled dataset
//!
//! Every figure of the paper's evaluation is a function here, computed
//! strictly from the [`flock_crawler::dataset::Dataset`] (the observed
//! view), never from ground truth:
//!
//! | paper | function |
//! |-------|----------|
//! | Fig. 2 | [`rq3::fig2_collection`] |
//! | Fig. 4 | [`rq1::fig4_top_instances`] |
//! | Fig. 5 | [`rq1::fig5_centralization`] |
//! | Fig. 6 | [`rq1::fig6_size_analysis`] |
//! | Fig. 7 | [`rq2::fig7_social_networks`] |
//! | Fig. 8 | [`rq2::fig8_influence`] |
//! | Fig. 9 | [`rq2::fig9_switching`] |
//! | Fig. 10 | [`rq2::fig10_switcher_influence`] |
//! | Fig. 11 | [`rq3::fig11_activity`] |
//! | Fig. 12 | [`rq3::fig12_sources`] |
//! | Fig. 13 | [`rq3::fig13_crossposters`] |
//! | Fig. 14 | [`rq3::fig14_similarity`] |
//! | Fig. 15 | [`rq3::fig15_hashtags`] |
//! | Fig. 16 | [`rq3::fig16_toxicity`] |
//! | in-text stats | [`headline::HeadlineReport`] |
//! | all of the above, each computed at most once | [`analysis::Analysis`] |
//!
//! (Figs. 1 and 3 are series produced by the world/crawl directly: the
//! interest model and the weekly-activity crawl.)
//!
//! The free functions recompute on every call. Callers that read several
//! results of one dataset (the headline, the renderers, the CSV export)
//! read them through one [`analysis::Analysis`], which memoizes each.

pub mod analysis;
pub mod headline;
pub mod retention;
pub mod rq1;
pub mod rq2;
pub mod rq3;
pub mod stats;
pub mod topics;
pub mod util;

pub mod prelude {
    pub use crate::analysis::Analysis;
    pub use crate::headline::{HeadlineReport, Metric, Verdict};
    pub use crate::retention::{retention, RetentionClass, RetentionReport};
    pub use crate::rq1::{
        fig4_top_instances, fig5_centralization, fig6_size_analysis, instance_sizes,
        pre_takeover_account_fraction, Fig4Row, Fig5Centralization, Fig6InstanceSizes,
    };
    pub use crate::rq2::{
        fig10_switcher_influence, fig7_social_networks, fig8_influence, fig9_switching,
        Fig10SwitcherInfluence, Fig7SocialNetworks, Fig8Influence, Fig9Switching, SwitchFlow,
    };
    pub use crate::rq3::{
        fig11_activity, fig12_sources, fig13_crossposters, fig14_similarity, fig15_hashtags,
        fig16_toxicity, fig2_collection, Fig11Activity, Fig13CrossPosters, Fig14Similarity,
        Fig15Hashtags, Fig16Toxicity, Fig2Collection, HashtagRow, SourceRow,
    };
    pub use crate::stats::{cumulative_share, gini, mean, top_fraction_share, Ecdf};
    pub use crate::topics::{infer_interests, topic_report, InstanceTopicProfile, TopicReport};
}

pub use prelude::*;
