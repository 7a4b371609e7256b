//! Differential fuzzing of full-archive search: random queries drawn from
//! the query grammar must return the same tweets, in the same order,
//! whether served from the index (`search_ids_indexed`: posting lists and
//! the token arena) or by re-tokenizing the corpus (`search_ids_scan`).
//!
//! The draws cover words from the corpus and words absent from it,
//! phrases (the empty phrase and mixed case included), hashtags, `url:`
//! with a domain, with a parent domain, with any substring of a corpus
//! link that holds a `.` (a partial label, a host with part of its path,
//! a trailing dot) and with a value that has no `.` (which the index
//! cannot serve and scans for), `from:` in mixed case, `OR`, `-` and
//! parentheses.

use flock::apis::ApiServer;
use flock::core::{Day, DetRng};
use flock::fedisim::{World, WorldConfig};
use flock::textsim::tokenize;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One `small()` world, indexed once, and the material queries draw from.
struct Corpus {
    api: ApiServer,
    world: Arc<World>,
    words: Vec<String>,
    hashtags: Vec<String>,
    domains: Vec<String>,
    links: Vec<String>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(888)).unwrap());
        let api = ApiServer::with_defaults(world.clone()).unwrap();
        let (mut words, mut hashtags, mut links) = (Vec::new(), Vec::new(), Vec::new());
        for t in world.tweets.iter().step_by(97) {
            for token in tokenize(t.text) {
                if token.starts_with('#') {
                    hashtags.push(token);
                } else if token.starts_with("http") {
                    if token.contains('.') && !token.contains('"') {
                        links.push(token);
                    }
                } else if !token.contains(':') && token != "or" {
                    words.push(token);
                }
            }
        }
        assert!(!links.is_empty(), "the corpus sample holds no links");
        let domains = world.instances.iter().map(|i| i.domain.clone()).collect();
        Corpus {
            api,
            world,
            words,
            hashtags,
            domains,
            links,
        }
    })
}

/// `s` with each ASCII letter upper-cased at random.
fn mixed_case(s: &str, rng: &mut DetRng) -> String {
    s.chars()
        .map(|c| {
            if rng.chance(0.5) {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// A substring of `link` that holds at least one of its `.`s.
fn dotted_substring(link: &str, rng: &mut DetRng) -> String {
    let chars: Vec<char> = link.chars().collect();
    let dots: Vec<usize> = (0..chars.len()).filter(|&i| chars[i] == '.').collect();
    let dot = *rng.choose(dots.as_slice());
    let start = rng.below_usize(dot + 1);
    let end = dot + 1 + rng.below_usize(chars.len() - dot);
    chars[start..end].iter().collect()
}

/// One term of the grammar; `depth` bounds the nesting of `-` and `(`.
fn term(c: &Corpus, rng: &mut DetRng, depth: usize) -> String {
    let kinds = if depth < 3 { 13 } else { 11 };
    match rng.below(kinds) {
        0 | 1 => {
            let word = rng.choose(c.words.as_slice()).clone();
            mixed_case(&word, rng)
        }
        2 => format!("zzq{}x", rng.below(1_000)),
        3 => {
            // A run of one to three words from a real tweet, or none.
            let t = c.world.tweets.text(rng.below_usize(c.world.tweets.len()));
            let words: Vec<&str> = t.split_whitespace().collect();
            let n = rng.below_usize(4).min(words.len());
            let at = rng.below_usize(words.len() - n + 1);
            let phrase = words[at..at + n].join(" ").replace('"', "");
            format!("\"{}\"", mixed_case(&phrase, rng))
        }
        4 => {
            let tag = rng.choose(c.hashtags.as_slice()).clone();
            mixed_case(&tag, rng)
        }
        5 => format!("url:\"{}\"", rng.choose(c.domains.as_slice())),
        6 => {
            // A parent domain: the domain less its first label.
            let d = rng.choose(c.domains.as_slice());
            let parent = d.split_once('.').map_or(d.as_str(), |(_, p)| p);
            format!("url:{parent}")
        }
        7 => {
            // No `.`: a label of a domain, served by a scan.
            let d = rng.choose(c.domains.as_slice());
            let labels: Vec<&str> = d.split('.').collect();
            format!("url:{}", rng.choose(labels.as_slice()))
        }
        8 => {
            let t = c.world.tweets.get(rng.below_usize(c.world.tweets.len()));
            let name = &c.world.users[t.author.index()].username;
            format!("from:{}", mixed_case(name, rng))
        }
        9 => "from:nobody_at_all".to_string(),
        10 => {
            let link = rng.choose(c.links.as_slice());
            format!("url:\"{}\"", dotted_substring(link, rng))
        }
        11 => format!("-{}", term(c, rng, depth + 1)),
        _ => format!("({})", query(c, rng, depth + 1)),
    }
}

/// One to three conjunctions of one to three terms, joined by `OR`.
fn query(c: &Corpus, rng: &mut DetRng, depth: usize) -> String {
    (0..1 + rng.below(3))
        .map(|_| {
            (0..1 + rng.below(3))
                .map(|_| term(c, rng, depth))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join(" OR ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn indexed_search_matches_the_scan(seed in any::<u64>(), from in 0i32..60, span in 0i32..60) {
        let c = corpus();
        let mut rng = DetRng::new(seed);
        let q = query(c, &mut rng, 0);
        let (start, end) = (Day(from), Day(from + span));
        let indexed = c.api.search_ids_indexed(&q, start, end);
        prop_assert!(indexed.is_ok(), "{q:?} failed to parse: {indexed:?}");
        let scanned = c.api.search_ids_scan(&q, start, end);
        prop_assert_eq!(indexed, scanned, "query {:?} over days {}..={}", q, from, from + span);
    }
}
