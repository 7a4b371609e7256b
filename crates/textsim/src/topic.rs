//! Discussion topics and their vocabularies.
//!
//! Figure 15 of the paper shows that migrated users discuss *diverse* topics
//! on Twitter (Entertainment, Celebrities, Politics, …) while Mastodon is
//! dominated by Fediverse/migration discussion. The simulator reproduces
//! this by drawing each post's topic from a platform-specific topic mix;
//! this module defines the topics and the words/hashtags each one emits.

use flock_core::Platform;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A discussion topic. The set mirrors the topic families named in §6.2 of
/// the paper, plus enough breadth to make Twitter's hashtag distribution
/// visibly more diverse than Mastodon's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Topic {
    /// Fediverse meta-discussion (dominates Mastodon in Fig. 15).
    Fediverse,
    /// The migration itself (#TwitterMigration et al.).
    Migration,
    /// Music/TV (#NowPlaying, #BBC6Music).
    Entertainment,
    /// Celebrity chatter (#BarbaraHolzer in Fig. 15).
    Celebrities,
    /// Politics (#StandWithUkraine, #GeneralElectionNow).
    Politics,
    /// Technology and programming.
    Tech,
    /// Game development (mastodon.gamedev.place's niche, §5.2).
    GameDev,
    /// AI research (sigmoid.social's niche, §5.3).
    Ai,
    /// History (historians.social's niche, §5.3).
    History,
    /// Sports.
    Sports,
    /// Photography and art.
    Art,
    /// Science.
    Science,
    /// Food.
    Food,
    /// Daily-life smalltalk.
    Smalltalk,
}

impl Topic {
    /// Every topic, in a fixed order.
    pub const ALL: [Topic; 14] = [
        Topic::Fediverse,
        Topic::Migration,
        Topic::Entertainment,
        Topic::Celebrities,
        Topic::Politics,
        Topic::Tech,
        Topic::GameDev,
        Topic::Ai,
        Topic::History,
        Topic::Sports,
        Topic::Art,
        Topic::Science,
        Topic::Food,
        Topic::Smalltalk,
    ];

    /// Content words characteristic of the topic. Posts mix these with the
    /// general vocabulary.
    pub fn words(self) -> &'static [&'static str] {
        match self {
            Topic::Fediverse => &[
                "instance",
                "federation",
                "server",
                "admin",
                "timeline",
                "boost",
                "toot",
                "activitypub",
                "decentralized",
                "moderation",
                "defederate",
                "local",
                "remote",
                "fediverse",
                "interoperable",
                "opensource",
                "community",
                "onboarding",
                "webfinger",
                "handle",
                "mutuals",
                "verification",
                "hashtags",
                "filters",
                "blocklist",
                "selfhosted",
                "protocol",
                "migrate",
                "followers",
                "threads",
                "replies",
                "favourite",
                "contentwarning",
                "altext",
                "discoverability",
                "serverside",
                "uptime",
                "donations",
                "sysadmin",
                "registrations",
            ],
            Topic::Migration => &[
                "leaving",
                "moving",
                "account",
                "followers",
                "migration",
                "birdsite",
                "quit",
                "joined",
                "alternative",
                "platform",
                "deactivate",
                "goodbye",
                "welcome",
                "newhere",
                "introduction",
                "finding",
                "friends",
                "exodus",
                "bridges",
                "crossposting",
                "archive",
                "export",
                "verified",
                "checkmark",
                "timeline",
                "algorithm",
                "chronological",
                "adfree",
                "community",
                "culture",
                "etiquette",
                "learning",
                "curve",
                "signup",
                "invite",
                "wave",
                "newbies",
                "veterans",
                "settled",
                "staying",
            ],
            Topic::Entertainment => &[
                "album",
                "song",
                "playlist",
                "concert",
                "radio",
                "episode",
                "season",
                "movie",
                "trailer",
                "series",
                "band",
                "vinyl",
                "gig",
                "festival",
                "soundtrack",
                "remix",
                "premiere",
                "chart",
                "actor",
                "director",
                "screening",
                "binge",
                "finale",
                "cliffhanger",
                "spoilers",
                "cast",
                "script",
                "reboot",
                "sequel",
                "documentary",
                "animation",
                "karaoke",
                "setlist",
                "encore",
                "acoustic",
                "lyrics",
                "producer",
                "mixtape",
                "headliner",
                "ballad",
            ],
            Topic::Celebrities => &[
                "interview",
                "redcarpet",
                "gossip",
                "paparazzi",
                "scandal",
                "premiere",
                "fashion",
                "award",
                "nominee",
                "couple",
                "rumor",
                "stylist",
                "fans",
                "idol",
                "tabloid",
                "feud",
                "engagement",
                "divorce",
                "memoir",
                "lookalike",
                "entourage",
                "brand",
                "endorsement",
                "glamour",
                "diva",
                "heartthrob",
                "spotlight",
                "publicist",
                "meltdown",
                "comeback",
                "cameo",
                "bodyguard",
                "yacht",
                "mansion",
                "chart",
                "gala",
            ],
            Topic::Politics => &[
                "election",
                "parliament",
                "policy",
                "minister",
                "vote",
                "campaign",
                "reform",
                "sanctions",
                "ukraine",
                "protest",
                "budget",
                "coalition",
                "debate",
                "ballot",
                "referendum",
                "manifesto",
                "democracy",
                "legislation",
                "inflation",
                "healthcare",
                "immigration",
                "senate",
                "congress",
                "filibuster",
                "lobbying",
                "subsidy",
                "tariff",
                "diplomacy",
                "treaty",
                "summit",
                "veto",
                "amendment",
                "gerrymander",
                "turnout",
                "polling",
                "constituency",
                "austerity",
                "pension",
                "strike",
                "union",
            ],
            Topic::Tech => &[
                "rust",
                "compiler",
                "database",
                "kernel",
                "deploy",
                "container",
                "latency",
                "api",
                "framework",
                "typescript",
                "refactor",
                "benchmark",
                "release",
                "bug",
                "patch",
                "terminal",
                "protocol",
                "encryption",
                "microservice",
                "monolith",
                "regression",
                "linter",
                "runtime",
                "allocator",
                "scheduler",
                "firmware",
                "opensource",
                "maintainer",
                "pullrequest",
                "changelog",
                "dependency",
                "sandbox",
                "telemetry",
                "observability",
                "incident",
                "oncall",
                "rollback",
                "pipelines",
                "cache",
                "shard",
            ],
            Topic::GameDev => &[
                "shader",
                "engine",
                "sprite",
                "gamejam",
                "indiedev",
                "unity",
                "godot",
                "pixelart",
                "playtest",
                "roguelike",
                "devlog",
                "prototype",
                "voxel",
                "collision",
                "leveldesign",
                "tilemap",
                "raycast",
                "particles",
                "animation",
                "rigging",
                "soundtrack",
                "publisher",
                "steamdeck",
                "controller",
                "speedrun",
                "procedural",
                "dungeon",
                "quest",
                "inventory",
                "dialogue",
                "cutscene",
                "framerate",
                "optimization",
                "beta",
                "patchnotes",
                "modding",
            ],
            Topic::Ai => &[
                "model",
                "training",
                "dataset",
                "neural",
                "transformer",
                "inference",
                "gradient",
                "benchmark",
                "alignment",
                "embedding",
                "diffusion",
                "finetune",
                "paper",
                "arxiv",
                "overfitting",
                "tokenizer",
                "attention",
                "pretraining",
                "distillation",
                "quantization",
                "hallucination",
                "prompt",
                "reinforcement",
                "reward",
                "agents",
                "robotics",
                "vision",
                "segmentation",
                "classifier",
                "regression",
                "baseline",
                "ablation",
                "checkpoint",
                "epochs",
                "loss",
                "convergence",
            ],
            Topic::History => &[
                "archive",
                "medieval",
                "empire",
                "manuscript",
                "excavation",
                "dynasty",
                "archaeology",
                "treaty",
                "antiquity",
                "chronicle",
                "artifact",
                "century",
                "reign",
                "translation",
                "primary",
                "sources",
                "crusade",
                "plague",
                "renaissance",
                "monastery",
                "cartography",
                "numismatics",
                "epigraphy",
                "oralhistory",
                "colonial",
                "abolition",
                "suffrage",
                "industrial",
                "revolution",
                "dynastic",
                "siege",
                "fortress",
                "parchment",
                "scriptorium",
                "heraldry",
                "genealogy",
            ],
            Topic::Sports => &[
                "match",
                "goal",
                "league",
                "transfer",
                "coach",
                "penalty",
                "fixture",
                "stadium",
                "worldcup",
                "qualifier",
                "injury",
                "derby",
                "champions",
                "kit",
                "referee",
                "offside",
                "marathon",
                "sprint",
                "podium",
                "medal",
                "tournament",
                "bracket",
                "playoff",
                "overtime",
                "hattrick",
                "cleansheet",
                "relegation",
                "promotion",
                "scouting",
                "academy",
                "captain",
                "substitute",
                "freekick",
                "tiebreak",
                "grandslam",
                "paddock",
            ],
            Topic::Art => &[
                "sketch",
                "watercolor",
                "gallery",
                "exhibition",
                "portrait",
                "canvas",
                "commission",
                "illustration",
                "photography",
                "lens",
                "exposure",
                "print",
                "sculpture",
                "mural",
                "palette",
                "studio",
                "charcoal",
                "gouache",
                "linocut",
                "etching",
                "ceramics",
                "glaze",
                "kiln",
                "weaving",
                "textile",
                "collage",
                "perspective",
                "composition",
                "vignette",
                "monochrome",
                "bokeh",
                "aperture",
                "darkroom",
                "filmgrain",
                "curator",
                "biennale",
            ],
            Topic::Science => &[
                "experiment",
                "telescope",
                "genome",
                "climate",
                "fossil",
                "quantum",
                "molecule",
                "spacecraft",
                "vaccine",
                "hypothesis",
                "peerreview",
                "lab",
                "asteroid",
                "neuron",
                "enzyme",
                "plasma",
                "spectroscopy",
                "supernova",
                "exoplanet",
                "mitochondria",
                "crispr",
                "protein",
                "catalyst",
                "isotope",
                "seismograph",
                "glacier",
                "biodiversity",
                "ecosystem",
                "pollinator",
                "microbiome",
                "radiocarbon",
                "superconductor",
                "photosynthesis",
                "tectonics",
                "entropy",
                "collider",
            ],
            Topic::Food => &[
                "recipe",
                "sourdough",
                "espresso",
                "ramen",
                "roast",
                "fermented",
                "seasonal",
                "bakery",
                "curry",
                "harvest",
                "tasting",
                "vegan",
                "brunch",
                "marinade",
                "dumplings",
                "pastry",
                "braise",
                "umami",
                "charcuterie",
                "gnocchi",
                "paella",
                "kimchi",
                "miso",
                "tahini",
                "saffron",
                "zest",
                "caramelize",
                "proofing",
                "crumb",
                "ganache",
                "meringue",
                "brine",
                "skillet",
                "mandoline",
                "julienne",
                "confit",
            ],
            Topic::Smalltalk => &[
                "morning",
                "coffee",
                "weekend",
                "weather",
                "commute",
                "garden",
                "cat",
                "dog",
                "walk",
                "rain",
                "sunset",
                "nap",
                "tea",
                "monday",
                "holiday",
                "cozy",
                "laundry",
                "errands",
                "groceries",
                "podcast",
                "crossword",
                "jigsaw",
                "knitting",
                "houseplant",
                "balcony",
                "neighbour",
                "traffic",
                "umbrella",
                "sweater",
                "fireplace",
                "leftovers",
                "alarm",
                "snooze",
                "daydream",
                "stroll",
                "picnic",
            ],
        }
    }

    /// Hashtags the topic emits on the given platform. The Twitter and
    /// Mastodon hashtag sets deliberately overlap only partially, matching
    /// the disjoint top-30 lists of Fig. 15.
    pub fn hashtags(self, platform: Platform) -> &'static [&'static str] {
        match (self, platform) {
            (Topic::Fediverse, _) => &[
                "#fediverse",
                "#mastodon",
                "#activitypub",
                "#introduction",
                "#mastodontips",
                "#foss",
            ],
            (Topic::Migration, Platform::Twitter) => &[
                "#TwitterMigration",
                "#Mastodon",
                "#ByeByeTwitter",
                "#GoodByeTwitter",
                "#RIPTwitter",
                "#MastodonMigration",
                "#MastodonSocial",
            ],
            (Topic::Migration, Platform::Mastodon) => &[
                "#TwitterMigration",
                "#twitterrefugee",
                "#newhere",
                "#introductions",
                "#migration",
            ],
            (Topic::Entertainment, Platform::Twitter) => &[
                "#NowPlaying",
                "#BBC6Music",
                "#Eurovision",
                "#StrangerThings",
                "#TheCrown",
            ],
            (Topic::Entertainment, Platform::Mastodon) => {
                &["#NowPlaying", "#music", "#film", "#tvshows"]
            }
            (Topic::Celebrities, Platform::Twitter) => {
                &["#BarbaraHolzer", "#Oscars", "#MetGala", "#RoyalFamily"]
            }
            (Topic::Celebrities, Platform::Mastodon) => &["#celebrity", "#redcarpet"],
            (Topic::Politics, Platform::Twitter) => &[
                "#StandWithUkraine",
                "#GeneralElectionNow",
                "#Midterms2022",
                "#NHS",
                "#CostOfLivingCrisis",
                "#COP27",
            ],
            (Topic::Politics, Platform::Mastodon) => &["#politics", "#ukraine", "#uspol"],
            (Topic::Tech, Platform::Twitter) => {
                &["#100DaysOfCode", "#rustlang", "#javascript", "#DevOps"]
            }
            (Topic::Tech, Platform::Mastodon) => {
                &["#rustlang", "#programming", "#linux", "#selfhosting"]
            }
            (Topic::GameDev, Platform::Twitter) => {
                &["#gamedev", "#indiedev", "#screenshotsaturday"]
            }
            (Topic::GameDev, Platform::Mastodon) => {
                &["#gamedev", "#indiedev", "#pixelart", "#godot"]
            }
            (Topic::Ai, Platform::Twitter) => &["#AI", "#MachineLearning", "#NeurIPS2022"],
            (Topic::Ai, Platform::Mastodon) => &["#ai", "#machinelearning", "#llm"],
            (Topic::History, Platform::Twitter) => &["#OnThisDay", "#histodons"],
            (Topic::History, Platform::Mastodon) => &["#histodons", "#history", "#archaeology"],
            (Topic::Sports, Platform::Twitter) => {
                &["#WorldCup2022", "#PremierLeague", "#F1", "#NFL"]
            }
            (Topic::Sports, Platform::Mastodon) => &["#football", "#sports"],
            (Topic::Art, Platform::Twitter) => &["#ArtistOnTwitter", "#photography", "#inktober"],
            (Topic::Art, Platform::Mastodon) => &["#mastoart", "#photography", "#art", "#fediart"],
            (Topic::Science, Platform::Twitter) => &["#SciComm", "#ClimateAction", "#Artemis1"],
            (Topic::Science, Platform::Mastodon) => &["#science", "#astronomy", "#climate"],
            (Topic::Food, Platform::Twitter) => &["#FoodTwitter", "#baking"],
            (Topic::Food, Platform::Mastodon) => &["#cooking", "#foodie", "#vegan"],
            (Topic::Smalltalk, Platform::Twitter) => &["#MondayMotivation", "#CatsOfTwitter"],
            (Topic::Smalltalk, Platform::Mastodon) => &["#caturday", "#mosstodon", "#goodmorning"],
        }
    }

    /// `true` for the niche topics that have a dedicated topical instance in
    /// the simulated fediverse (the paper's `sigmoid.social`,
    /// `historians.social`, `mastodon.gamedev.place` pattern).
    pub fn has_topical_instance(self) -> bool {
        matches!(
            self,
            Topic::GameDev | Topic::Ai | Topic::History | Topic::Tech | Topic::Art | Topic::Science
        )
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

word_list! {
    /// General-purpose filler vocabulary shared by every topic. These are the
    /// "stopwords" the embedding deliberately ignores so that unrelated posts do
    /// not look similar just because they both say "really the with today".
    pub const GENERAL_WORDS, fn is_general_word = [
        "the", "a", "and", "with", "today", "just", "really", "about", "think", "going", "still",
        "very", "some", "more", "this", "that", "here", "there", "have", "been", "what", "when",
        "nice", "good", "great", "honestly", "maybe", "probably", "finally", "again",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_topic_has_words_and_hashtags() {
        for t in Topic::ALL {
            assert!(!t.words().is_empty(), "{t} has no words");
            for p in Platform::ALL {
                assert!(!t.hashtags(p).is_empty(), "{t} has no hashtags on {p}");
            }
        }
    }

    /// The compiled stopword lookup finds every listed word, and only those.
    #[test]
    fn general_word_lookup_matches_its_list() {
        for w in GENERAL_WORDS {
            assert!(is_general_word(w), "{w}");
        }
        for near in ["thee", "hat", "idiotic", "th", "The", "a ", ""] {
            assert!(!is_general_word(near), "{near:?}");
        }
    }

    #[test]
    fn paper_hashtags_present() {
        // The hashtags called out by name in Fig. 15 must be emitted.
        let tw_ent = Topic::Entertainment.hashtags(Platform::Twitter);
        assert!(tw_ent.contains(&"#NowPlaying"));
        assert!(tw_ent.contains(&"#BBC6Music"));
        assert!(Topic::Celebrities
            .hashtags(Platform::Twitter)
            .contains(&"#BarbaraHolzer"));
        let tw_pol = Topic::Politics.hashtags(Platform::Twitter);
        assert!(tw_pol.contains(&"#StandWithUkraine"));
        assert!(tw_pol.contains(&"#GeneralElectionNow"));
        assert!(Topic::Fediverse
            .hashtags(Platform::Mastodon)
            .contains(&"#fediverse"));
        assert!(Topic::Migration
            .hashtags(Platform::Mastodon)
            .contains(&"#TwitterMigration"));
    }

    #[test]
    fn topic_words_are_single_lowercase_tokens() {
        for t in Topic::ALL {
            for w in t.words() {
                assert!(
                    w.bytes().all(|b| b.is_ascii_lowercase()),
                    "{t}: bad word {w:?}"
                );
            }
        }
    }

    #[test]
    fn topical_instance_topics() {
        assert!(Topic::Ai.has_topical_instance());
        assert!(Topic::History.has_topical_instance());
        assert!(Topic::GameDev.has_topical_instance());
        assert!(!Topic::Migration.has_topical_instance());
        assert!(!Topic::Smalltalk.has_topical_instance());
    }
}
