//! The full-archive search index.
//!
//! Every distinct token, and every `\0url:` host key, is interned once to a
//! `u32` id in first-seen order ([`Vocab`]). Each tweet's distinct token
//! ids, ascending, form one run in a flat arena, and each id's posting
//! list holds the tweets that contain it, ascending. A query intersects the
//! posting lists of the tokens it requires (smallest first, galloping) and
//! checks every candidate with [`Query::matches`] over a [`Doc`] that
//! borrows the world's own text and author name: the index keeps no
//! per-tweet copy of either.

use crate::query::{host_suffixes, url_host, Doc, Query, TermStats};
use flock_core::rng::fnv1a;
use flock_core::{Day, FlockError, Result};
use flock_fedisim::World;
use flock_textsim::for_each_token;

/// Interned tokens: each distinct string gets a `u32` id once, in
/// first-seen order, and its bytes are stored once, in one arena.
///
/// The table hashes with FNV-1a rather than a keyed hasher: its keys are
/// the corpus's own tokens, not input an adversary picks.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    /// Every token, concatenated in id order.
    text: String,
    /// Token `id` is `text[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<usize>,
    /// Open-addressing table of ids with linear probing; [`EMPTY`] marks
    /// a free slot. Its length is a power of two, at least twice the
    /// number of ids.
    slots: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

impl Vocab {
    /// Number of interned tokens.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The token with id `id`.
    pub(crate) fn token(&self, id: u32) -> &str {
        let id = id as usize;
        &self.text[self.offsets[id]..self.offsets[id + 1]]
    }

    /// The id of `token`, if it was interned.
    pub(crate) fn id(&self, token: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(token).1
    }

    /// The id of `token`, interning it first if it is new.
    pub(crate) fn intern(&mut self, token: &str) -> u32 {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let (slot, found) = self.probe(token);
        if let Some(id) = found {
            return id;
        }
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let id = self.len() as u32;
        self.text.push_str(token);
        self.offsets.push(self.text.len());
        self.slots[slot] = id;
        id
    }

    /// `text`'s distinct token ids, ascending, written to `out`; tokens
    /// not seen before are interned.
    pub fn intern_text(&mut self, text: &str, out: &mut Vec<u32>) {
        out.clear();
        for_each_token(text, |t| out.push(self.intern(t)));
        out.sort_unstable();
        out.dedup();
    }

    /// `text`'s distinct token ids, ascending, written to `out`; tokens
    /// the vocabulary lacks are left out.
    pub fn token_ids(&self, text: &str, out: &mut Vec<u32>) {
        out.clear();
        for_each_token(text, |t| out.extend(self.id(t)));
        out.sort_unstable();
        out.dedup();
    }

    /// The slot that holds `token`, or else the free slot where it would
    /// go. The table must not be empty.
    fn probe(&self, token: &str) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut slot = slot_hash(token) & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return (slot, None),
                id if self.token(id) == token => return (slot, Some(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the table and re-insert every id.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        self.slots = vec![EMPTY; size];
        for id in 0..self.len() as u32 {
            let mut slot = slot_hash(self.token(id)) & (size - 1);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (size - 1);
            }
            self.slots[slot] = id;
        }
    }
}

/// FNV-1a, multiplied by the 64-bit golden ratio so that the bits the
/// table mask keeps depend on every byte.
fn slot_hash(token: &str) -> usize {
    (fnv1a(token).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

/// Reserved key prefix for URL hosts (`\0` cannot occur in a token).
const URL_KEY_PREFIX: &str = "\0url:";

/// The inverted index over every tweet of a world, plus each tweet's
/// token run for [`Query::matches`].
pub(crate) struct SearchIndex {
    /// Every token and URL host key.
    vocab: Vocab,
    /// The posting list of id `k` is
    /// `postings[posting_offsets[k]..posting_offsets[k + 1]]`: the indexes
    /// of the tweets holding `k`, ascending.
    postings: Vec<u32>,
    posting_offsets: Vec<u32>,
    /// Tweet `i`'s distinct token ids, ascending, are
    /// `tokens[token_offsets[i]..token_offsets[i + 1]]`.
    tokens: Vec<u32>,
    token_offsets: Vec<u32>,
}

impl SearchIndex {
    /// Index `texts`, tweet `i` being the `i`-th. Fails when the tweets or
    /// the postings outgrow `u32` indexes; every id comes from a posting,
    /// so the vocabulary fits too.
    pub(crate) fn build<'a>(texts: impl Iterator<Item = &'a str>) -> Result<SearchIndex> {
        let too_big = || FlockError::InvalidConfig("search index outgrows u32 ids".to_string());
        let mut vocab = Vocab::default();
        let mut token_offsets = Vec::with_capacity(texts.size_hint().0 + 1);
        token_offsets.push(0u32);
        let mut tokens = Vec::new();
        // (tweet, host key id) pairs, tweets ascending.
        let mut hosts: Vec<(u32, u32)> = Vec::new();
        let (mut ids, mut keys) = (Vec::new(), Vec::new());
        for (i, text) in texts.enumerate() {
            let i = u32::try_from(i).map_err(|_| too_big())?;
            vocab.intern_text(text, &mut ids);
            // A URL token also indexes its host and the host's parent
            // domains under reserved keys, so `url:domain` queries avoid
            // a corpus scan.
            keys.clear();
            for &id in &ids {
                let Some(host) = url_host(vocab.token(id)) else {
                    continue;
                };
                let host_keys: Vec<String> = host_suffixes(host)
                    .map(|suffix| format!("{URL_KEY_PREFIX}{suffix}"))
                    .collect();
                keys.extend(host_keys.iter().map(|key| vocab.intern(key)));
            }
            keys.sort_unstable();
            keys.dedup();
            hosts.extend(keys.iter().map(|&key| (i, key)));
            tokens.extend_from_slice(&ids);
            if u32::try_from(tokens.len() + hosts.len()).is_err() {
                return Err(too_big());
            }
            token_offsets.push(tokens.len() as u32);
        }
        tokens.shrink_to_fit();
        vocab.text.shrink_to_fit();
        vocab.offsets.shrink_to_fit();

        // Transpose the token runs and the host pairs into posting lists:
        // count, prefix-sum, then fill in tweet order, so every list comes
        // out ascending.
        let mut posting_offsets = vec![0u32; vocab.len() + 1];
        for &id in tokens.iter().chain(hosts.iter().map(|(_, key)| key)) {
            posting_offsets[id as usize + 1] += 1;
        }
        for k in 1..posting_offsets.len() {
            posting_offsets[k] += posting_offsets[k - 1];
        }
        let mut next = posting_offsets.clone();
        let mut postings = vec![0u32; tokens.len() + hosts.len()];
        let runs = token_offsets.windows(2).enumerate().flat_map(|(i, run)| {
            tokens[run[0] as usize..run[1] as usize]
                .iter()
                .map(move |&id| (i as u32, id))
        });
        for (i, id) in runs.chain(hosts.iter().copied()) {
            postings[next[id as usize] as usize] = i;
            next[id as usize] += 1;
        }
        Ok(SearchIndex {
            vocab,
            postings,
            posting_offsets,
            tokens,
            token_offsets,
        })
    }

    /// Parse `input` and bind its terms to this index's vocabulary.
    pub(crate) fn query(&self, input: &str) -> Result<Query> {
        let mut query = Query::parse(input)?;
        query.bind(&self.vocab);
        Ok(query)
    }

    /// The posting list of `token` (empty when absent).
    pub(crate) fn posting(&self, token: &str) -> &[u32] {
        match self.vocab.id(token) {
            Some(id) => {
                let id = id as usize;
                &self.postings
                    [self.posting_offsets[id] as usize..self.posting_offsets[id + 1] as usize]
            }
            None => &[],
        }
    }

    /// Tweet indexes present in **every** posting list of `required`
    /// (`None` = no token to demand, caller must scan). Lists are
    /// intersected smallest-first with a galloping merge, so one rare term
    /// keeps the whole intersection near its size.
    pub(crate) fn candidates(&self, required: &[String]) -> Option<Vec<u32>> {
        if required.is_empty() {
            return None;
        }
        let mut lists: Vec<&[u32]> = required.iter().map(|t| self.posting(t)).collect();
        lists.sort_by_key(|l| l.len());
        let mut acc = lists[0].to_vec();
        for list in &lists[1..] {
            if acc.is_empty() {
                break;
            }
            acc = gallop_intersect(&acc, list);
        }
        Some(acc)
    }

    /// Tweet `i` of `world` (the world this index was built from) as
    /// [`Query::matches`] reads it.
    fn doc<'a>(&'a self, world: &'a World, i: usize) -> Doc<'a> {
        Doc {
            text: world.tweets.text(i),
            author: &world.users[world.tweets.author(i).index()].username,
            tokens: &self.tokens
                [self.token_offsets[i] as usize..self.token_offsets[i + 1] as usize],
            vocab: &self.vocab,
        }
    }

    /// Indexes of the tweets of `world` in `[start, end]` that match
    /// `query` (bound by [`Self::query`]), ascending.
    pub(crate) fn search(&self, world: &World, query: &Query, start: Day, end: Day) -> Vec<u32> {
        let mut required = query.required_tokens(self);
        // A bare `url:host` query (or one AND-ed into a conjunction) is
        // served from the host keys; `Query::matches` below still checks
        // every candidate. A dotted value matches a host or its
        // subdomains on both paths, so its key holds every match; a
        // dot-free value falls back to scanning.
        let urls = match query {
            Query::And(parts) => parts.as_slice(),
            single => std::slice::from_ref(single),
        };
        for part in urls {
            if let Query::Url(host) = part {
                if host.contains('.') {
                    required.push(format!("{URL_KEY_PREFIX}{host}"));
                }
            }
        }
        // Intersect *all* required posting lists, so no conjunct is
        // re-checked on candidates the index could already exclude.
        let candidates = self
            .candidates(&required)
            .unwrap_or_else(|| (0..world.tweets.len() as u32).collect());
        candidates
            .into_iter()
            .filter(|&i| {
                let day = world.tweets.day(i as usize);
                day >= start && day <= end && query.matches(&self.doc(world, i as usize))
            })
            .collect()
    }

    /// [`Self::search`] without the posting lists or the token arena:
    /// every tweet in `[start, end]` is re-tokenized through the
    /// vocabulary and checked by [`Query::matches`]. Benches and tests
    /// compare the two.
    pub(crate) fn scan(&self, world: &World, query: &Query, start: Day, end: Day) -> Vec<u32> {
        let mut ids = Vec::new();
        (0..world.tweets.len())
            .filter(|&i| {
                let t = world.tweets.get(i);
                if t.day < start || t.day > end {
                    return false;
                }
                self.vocab.token_ids(t.text, &mut ids);
                query.matches(&Doc {
                    text: t.text,
                    author: &world.users[t.author.index()].username,
                    tokens: &ids,
                    vocab: &self.vocab,
                })
            })
            .map(|i| i as u32)
            .collect()
    }

    /// Live heap bytes: vocabulary, postings, arena and offsets.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let v = &self.vocab;
        let u32s = v.slots.capacity()
            + self.postings.capacity()
            + self.posting_offsets.capacity()
            + self.tokens.capacity()
            + self.token_offsets.capacity();
        v.text.capacity()
            + v.offsets.capacity() * std::mem::size_of::<usize>()
            + u32s * std::mem::size_of::<u32>()
    }
}

impl TermStats for SearchIndex {
    fn doc_frequency(&self, token: &str) -> usize {
        self.posting(token).len()
    }
}

/// First index `i >= lo` with `b[i] >= x`: gallop out of `lo`, then binary
/// search the bracketed range. `O(log d)` in the distance `d` advanced.
fn lower_bound_from(b: &[u32], lo: usize, x: u32) -> usize {
    if lo >= b.len() || b[lo] >= x {
        return lo;
    }
    let mut below = lo; // invariant: b[below] < x
    let mut step = 1usize;
    loop {
        let probe = below.saturating_add(step);
        if probe >= b.len() || b[probe] >= x {
            let (mut l, mut r) = (below + 1, probe.min(b.len()));
            while l < r {
                let m = l + (r - l) / 2;
                if b[m] < x {
                    l = m + 1;
                } else {
                    r = m;
                }
            }
            return l;
        }
        below = probe;
        step <<= 1;
    }
}

/// Intersect two strictly ascending lists; `a` should be the shorter one.
/// Each element of `a` gallops forward in `b`, so the cost is
/// `O(|a| log(|b|/|a|))` rather than `O(|a| + |b|)` when `b` dwarfs `a`.
fn gallop_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let mut j = 0usize;
    for &x in a {
        j = lower_bound_from(b, j, x);
        if j == b.len() {
            break;
        }
        if b[j] == x {
            out.push(x);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_fedisim::WorldConfig;

    #[test]
    fn vocab_assigns_ids_once_in_first_seen_order() {
        let mut vocab = Vocab::default();
        assert_eq!(vocab.id("a"), None);
        let words: Vec<String> = (0..1_000).map(|i| format!("w{i}")).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(vocab.intern(w), i as u32);
        }
        for (i, w) in words.iter().enumerate().rev() {
            assert_eq!(vocab.intern(w), i as u32, "re-interning {w}");
            assert_eq!(vocab.id(w), Some(i as u32));
            assert_eq!(vocab.token(i as u32), w);
        }
        assert_eq!(vocab.len(), words.len());
        assert_eq!(vocab.id("w1000"), None);
        // The empty string is a token like any other.
        assert_eq!(vocab.intern(""), 1_000);
        assert_eq!(vocab.token(1_000), "");
    }

    #[test]
    fn token_ids_are_sorted_distinct_and_skip_unknown_tokens() {
        let mut vocab = Vocab::default();
        let mut ids = Vec::new();
        vocab.intern_text("b a b #c https://x.org/@d", &mut ids);
        assert_eq!(ids, vec![0, 1, 2, 3]);
        vocab.token_ids("A zz B a", &mut ids);
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(vocab.len(), 4);
    }

    /// Each list holds exactly the tweets whose tokens include the key,
    /// ascending, and a link indexes its host's dot-suffixes.
    #[test]
    fn postings_transpose_the_token_runs() {
        let texts = [
            "mastodon hello https://a.mastodon.social/@x",
            "Hello #Tag hello",
            "see https://mastodon.social/@y and https://b.mastodon.social/@z",
            "",
            "mastodon",
        ];
        let index = SearchIndex::build(texts.iter().copied()).unwrap();
        for id in 0..index.vocab.len() as u32 {
            let token = index.vocab.token(id);
            let want: Vec<u32> = match token.strip_prefix(URL_KEY_PREFIX) {
                Some(host) => (0..texts.len() as u32)
                    .filter(|&i| {
                        flock_textsim::tokenize(texts[i as usize])
                            .iter()
                            .filter_map(|t| url_host(t))
                            .any(|h| host_suffixes(h).any(|s| s == host))
                    })
                    .collect(),
                None => (0..texts.len() as u32)
                    .filter(|&i| flock_textsim::tokenize(texts[i as usize]).contains(&token.into()))
                    .collect(),
            };
            assert_eq!(index.posting(token), want.as_slice(), "{token:?}");
        }
        assert_eq!(index.posting("\0url:mastodon.social"), &[0, 2]);
        assert_eq!(index.posting("\0url:social"), &[] as &[u32]);
        assert_eq!(index.posting("absent"), &[] as &[u32]);
    }

    /// Rebuilding from the same texts assigns the same ids (no id depends on
    /// a hash order), and the index stays small: a guard against per-tweet
    /// sets or strings coming back.
    #[test]
    fn the_index_is_deterministic_and_under_160_bytes_per_tweet() {
        let world = World::generate(&WorldConfig::small().with_seed(1234)).unwrap();
        let build = || SearchIndex::build(world.tweets.iter().map(|t| t.text)).unwrap();
        let (a, b) = (build(), build());
        assert_eq!(a.vocab.text, b.vocab.text);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.postings, b.postings);
        let per_tweet = a.heap_bytes() as f64 / world.tweets.len() as f64;
        assert!(
            per_tweet < 160.0,
            "{per_tweet:.1} B per tweet over {} tweets",
            world.tweets.len()
        );
    }

    /// A dotted `url:` value that is not a whole host or parent domain
    /// (a partial label, a host with a path, a trailing dot) finds nothing
    /// on either path; a whole host finds the same tweets on both.
    #[test]
    fn dotted_url_values_answer_the_same_indexed_and_scanned() {
        let world = World::generate(&WorldConfig::small().with_seed(1234)).unwrap();
        let index = SearchIndex::build(world.tweets.iter().map(|t| t.text)).unwrap();
        let (start, end) = (Day(i32::MIN), Day(i32::MAX));
        let both = |input: &str| {
            let q = index.query(input).unwrap();
            let indexed = index.search(&world, &q, start, end);
            assert_eq!(indexed, index.scan(&world, &q, start, end), "{input}");
            indexed.len()
        };
        for partial in [
            "url:\"astodon.social\"",
            "url:\"mastodon.social/@\"",
            "url:\"mastodon.\"",
        ] {
            assert_eq!(both(partial), 0, "{partial}");
        }
        assert!(both("url:\"mastodon.social\"") > 0);
    }

    #[test]
    fn gallop_intersect_agrees_with_naive() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[1, 2, 3]),
            (&[1, 2, 3], &[]),
            (&[1, 3, 5, 7], &[2, 3, 4, 7, 9]),
            (&[0, 100, 200], &[0, 1, 2, 3, 100, 150, 199, 200, 201]),
            (&[5], &[1, 2, 3, 4, 5]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[10, 20], &[1, 2, 3]),
        ];
        for (a, b) in cases {
            let naive: Vec<u32> = a.iter().copied().filter(|x| b.contains(x)).collect();
            assert_eq!(gallop_intersect(a, b), naive, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn gallop_intersect_handles_large_skews() {
        let a: Vec<u32> = (0..10_000).map(|i| i * 7).collect();
        let b: Vec<u32> = (0..1_000).map(|i| i * 91).collect();
        let naive: Vec<u32> = b
            .iter()
            .copied()
            .filter(|x| a.binary_search(x).is_ok())
            .collect();
        assert_eq!(gallop_intersect(&b, &a), naive);
    }

    #[test]
    fn lower_bound_from_is_a_lower_bound() {
        let b = [2u32, 4, 4, 8, 16, 32];
        for lo in 0..=b.len() {
            for x in 0..40u32 {
                let got = lower_bound_from(&b, lo, x);
                let want = (lo..b.len()).find(|&i| b[i] >= x).unwrap_or(b.len());
                assert_eq!(got, want, "lo={lo} x={x}");
            }
        }
    }

    #[test]
    fn candidates_intersects_all_required_lists() {
        // "common" is in all 100 tweets, "rare" in 3, 50, 99 and "other"
        // in 2, 3, 99.
        let texts: Vec<String> = (0..100)
            .map(|i| {
                let mut t = "common".to_string();
                if [3, 50, 99].contains(&i) {
                    t.push_str(" rare");
                }
                if [2, 3, 99].contains(&i) {
                    t.push_str(" other");
                }
                t
            })
            .collect();
        let index = SearchIndex::build(texts.iter().map(String::as_str)).unwrap();
        assert_eq!(index.posting("common").len(), 100);
        assert_eq!(index.candidates(&[]), None);
        let got = index
            .candidates(&["common".into(), "rare".into(), "other".into()])
            .unwrap();
        assert_eq!(got, vec![3, 99]);
        // An absent token annihilates the conjunction.
        let got = index
            .candidates(&["common".into(), "missing".into()])
            .unwrap();
        assert!(got.is_empty());
    }

    /// The planner demands the *rarest* phrase token, so the candidate set
    /// an index-assisted phrase search walks is the small posting list, not
    /// the large one (the old planner always took the phrase's first
    /// token).
    #[test]
    fn phrase_candidates_shrink_with_term_stats() {
        let world = World::generate(&WorldConfig::small().with_seed(321)).unwrap();
        let index = SearchIndex::build(world.tweets.iter().map(|t| t.text)).unwrap();
        let q = Query::parse("\"bye bye twitter\"").unwrap();
        let chosen = q.required_tokens(&index);
        assert_eq!(chosen.len(), 1);
        let chosen_df = index.doc_frequency(&chosen[0]);
        for tok in flock_textsim::tokenize("bye bye twitter") {
            assert!(
                chosen_df <= index.doc_frequency(&tok),
                "planner picked {:?} (df {}), but {:?} has df {}",
                chosen[0],
                chosen_df,
                tok,
                index.doc_frequency(&tok)
            );
        }
        // And the shrink is real on generated corpora: "bye" (a common
        // farewell word) outnumbers "twitter"-bearing phrase candidates.
        let candidates = index.candidates(&chosen).unwrap().len();
        let first_token_candidates = index.posting("bye").len();
        assert!(
            candidates <= first_token_candidates,
            "rarest-token candidates {candidates} vs first-token {first_token_candidates}"
        );
    }
}
