//! Property-based tests over the core data structures and invariants,
//! exercised across crates.

use flock::core::handle::{extract_handles, is_valid_domain, is_valid_username};
use flock::core::{Day, DetRng, MastodonHandle};
use flock::textsim::{cosine, embed, tokenize, ToxicityScorer};
use flock_analysis::{cumulative_share, gini, top_fraction_share, Ecdf};
use flock_apis::pagination::{decode, encode, Page};
use flock_apis::{Doc, Query, RatePolicy, TokenBucket, Vocab};
use proptest::prelude::*;

/// Strategy: a syntactically valid Mastodon username.
fn username() -> impl Strategy<Value = String> {
    "[a-z0-9_]{1,30}"
}

/// Strategy: a plausible instance domain.
fn domain() -> impl Strategy<Value = String> {
    ("[a-z0-9]{1,12}", "[a-z0-9]{1,12}", "[a-z]{2,6}")
        .prop_map(|(a, b, tld)| format!("{a}.{b}.{tld}"))
}

proptest! {
    // ---- handle grammar ---------------------------------------------------

    #[test]
    fn handle_display_round_trips(user in username(), dom in domain()) {
        let h = MastodonHandle::new(&user, &dom).unwrap();
        let reparsed: MastodonHandle = h.to_string().parse().unwrap();
        prop_assert_eq!(&reparsed, &h);
        let from_url: MastodonHandle = h.profile_url().parse().unwrap();
        prop_assert_eq!(&from_url, &h);
    }

    #[test]
    fn handles_are_extracted_from_arbitrary_context(
        user in username(),
        dom in domain(),
        prefix in "[a-zA-Z0-9 .,!?#]{0,40}",
        suffix in "[ .,!?][a-zA-Z0-9 .,!?#]{0,40}",
    ) {
        let h = MastodonHandle::new(&user, &dom).unwrap();
        // Avoid a word character directly before the '@'.
        let text = format!("{prefix} {h} {suffix}");
        let found = extract_handles(&text);
        prop_assert!(found.contains(&h), "lost {} in {:?}", h, text);
    }

    #[test]
    fn extraction_never_panics_or_invents_invalid_handles(text in ".{0,300}") {
        for h in extract_handles(&text) {
            prop_assert!(is_valid_username(h.username()));
            prop_assert!(is_valid_domain(h.instance()));
        }
    }

    // ---- deterministic RNG --------------------------------------------------

    #[test]
    fn rng_below_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_zipf_in_range(seed in any::<u64>(), n in 1usize..5000, s in 0.2f64..3.0) {
        let mut rng = DetRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.zipf(n, s) < n);
        }
    }

    #[test]
    fn rng_shuffle_is_permutation(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = DetRng::new(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    // ---- ECDF / stats --------------------------------------------------------

    #[test]
    fn ecdf_is_monotone_and_bounded(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::new(samples.clone());
        let mut xs: Vec<f64> = samples.clone();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for x in &xs {
            let p = e.eval(*x);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= prev - 1e-12);
            prev = p;
        }
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
        // Quantiles exist for non-empty samples, lie within the sample
        // range, and are ordered.
        let (q25, q75) = (e.quantile(0.25).unwrap(), e.quantile(0.75).unwrap());
        prop_assert!(q25 <= q75);
        prop_assert!(e.quantile(0.0).unwrap() >= xs[0]);
        prop_assert!(e.quantile(1.0).unwrap() <= *xs.last().unwrap());
        // Out-of-range probabilities are a caller error, not a panic.
        prop_assert!(e.quantile(-0.5).is_none());
        prop_assert!(e.quantile(1.5).is_none());
    }

    #[test]
    fn cumulative_share_ends_at_one(sizes in prop::collection::vec(1usize..10_000, 1..300)) {
        let curve = cumulative_share(&sizes);
        prop_assert_eq!(curve.len(), sizes.len());
        let (fi, fu) = *curve.last().unwrap();
        prop_assert!((fi - 1.0).abs() < 1e-9);
        prop_assert!((fu - 1.0).abs() < 1e-9);
        for w in curve.windows(2) {
            prop_assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        // Top-fraction share is monotone in the fraction.
        let q25 = top_fraction_share(&sizes, 0.25);
        let q50 = top_fraction_share(&sizes, 0.5);
        prop_assert!(q50 >= q25 - 1e-12);
    }

    #[test]
    fn gini_is_bounded(sizes in prop::collection::vec(0usize..10_000, 1..300)) {
        let g = gini(&sizes);
        prop_assert!((-1e-9..=1.0).contains(&g), "gini {g}");
    }

    // ---- embeddings -----------------------------------------------------------

    #[test]
    fn cosine_is_symmetric_and_bounded(a in ".{0,120}", b in ".{0,120}") {
        let (ea, eb) = (embed(&a), embed(&b));
        let ab = cosine(&ea, &eb);
        let ba = cosine(&eb, &ea);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!((-1.001..=1.001).contains(&ab));
    }

    #[test]
    fn self_similarity_is_one_for_content(text in "[a-z]{3,10}( [a-z]{3,10}){1,15}") {
        let e = embed(&text);
        if e.token_count > 0 {
            prop_assert!((cosine(&e, &e) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn toxicity_in_unit_interval(text in ".{0,300}") {
        let s = ToxicityScorer::new().score(&text);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn tokenize_produces_lowercase_tokens(text in ".{0,200}") {
        for tok in tokenize(&text) {
            prop_assert!(!tok.is_empty());
            prop_assert_eq!(tok.clone(), tok.to_lowercase());
        }
    }

    // ---- API substrate -----------------------------------------------------

    #[test]
    fn pagination_partitions_any_slice(
        len in 0usize..500,
        page in 1usize..100,
        scope in "[a-z]{1,20}",
    ) {
        let data: Vec<usize> = (0..len).collect();
        let mut seen = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            let offset = decode(&scope, cursor.as_deref()).unwrap();
            let p = Page::slice(&data, &scope, offset, page).unwrap();
            seen.extend(p.items);
            match p.next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        prop_assert_eq!(seen, data);
    }

    #[test]
    fn cursors_never_cross_scopes(
        scope_a in "[a-z]{1,16}",
        scope_b in "[a-z]{1,16}",
        offset in 0usize..10_000,
    ) {
        let c = encode(&scope_a, offset);
        if scope_a == scope_b {
            prop_assert_eq!(decode(&scope_b, Some(&c)).unwrap(), offset);
        } else {
            prop_assert!(decode(&scope_b, Some(&c)).is_err());
        }
    }

    #[test]
    fn token_bucket_never_exceeds_budget(
        capacity in 1u32..100,
        window in 1u64..1000,
        requests in 1u64..500,
    ) {
        let policy = RatePolicy { capacity, window_secs: window };
        let mut bucket = TokenBucket::new(policy, 0);
        // Greedy client at t = 0: grants must not exceed the burst budget.
        let mut granted = 0u64;
        for _ in 0..requests {
            if bucket.try_acquire(0).is_ok() {
                granted += 1;
            }
        }
        prop_assert!(granted <= u64::from(capacity));
    }

    #[test]
    fn query_parser_never_panics(q in ".{0,80}") {
        let _ = Query::parse(&q); // must not panic, Ok or Err both fine
    }

    #[test]
    fn word_queries_match_their_own_token(word in "[a-z]{2,12}") {
        let text = format!("prefix {word} suffix");
        let mut vocab = Vocab::default();
        let mut tokens = Vec::new();
        vocab.intern_text(&text, &mut tokens);
        let mut q = Query::parse(&word).unwrap();
        q.bind(&vocab);
        let doc = Doc { text: &text, author: "author", tokens: &tokens, vocab: &vocab };
        prop_assert!(q.matches(&doc));
    }

    // ---- calendar -------------------------------------------------------------

    #[test]
    fn day_date_round_trip(offset in -20_000i32..20_000) {
        let d = Day(offset);
        prop_assert_eq!(d.to_date().to_day(), d);
    }

    #[test]
    fn week_contains_its_days(offset in -1000i32..1000) {
        let d = Day(offset);
        let w = d.week();
        prop_assert!(w.monday() <= d);
        prop_assert!(d <= w.monday() + 6);
        prop_assert_eq!(w.monday().weekday(), 0);
    }
}
