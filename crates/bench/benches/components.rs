//! Micro-benchmarks of the pipeline's hot inner loops.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flock_apis::{Doc, Query, RatePolicy, TokenBucket, Vocab};
use flock_core::handle::extract_handles;
use flock_core::DetRng;
use flock_textsim::{
    cosine, embed, similar, tokenize, FeatureCounts, PostGenerator, Topic, ToxicityScorer,
};
use std::hint::black_box;

const BIO: &str = "ex-birdsite, into #rustlang and photography. \
     find me at @quiet_otter@mastodon.social or https://hachyderm.io/@quiet_otter — \
     email me at not.a.handle@example.com";

fn bench_handle_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("handle_extraction");
    group.throughput(Throughput::Bytes(BIO.len() as u64));
    group.bench_function("bio_with_two_handles", |b| {
        b.iter(|| black_box(extract_handles(BIO)))
    });
    let clean = "just a normal tweet about the weather with no handles at all in it";
    group.throughput(Throughput::Bytes(clean.len() as u64));
    group.bench_function("text_without_handles", |b| {
        b.iter(|| black_box(extract_handles(clean)))
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_query");
    group.bench_function("parse_keyword", |b| {
        b.iter(|| black_box(Query::parse("mastodon")).unwrap())
    });
    group.bench_function("parse_complex", |b| {
        b.iter(|| {
            black_box(Query::parse(
                "(mastodon OR koo) \"bye bye twitter\" -#ad url:\"mastodon.social\"",
            ))
            .unwrap()
        })
    });
    let text = "ok that's it, bye bye twitter — find me on the other site #TwitterMigration";
    let mut vocab = Vocab::default();
    let mut tokens = Vec::new();
    vocab.intern_text(text, &mut tokens);
    let mut q = Query::parse("#twittermigration \"bye bye twitter\"").unwrap();
    q.bind(&vocab);
    let doc = Doc {
        text,
        author: "someone",
        tokens: &tokens,
        vocab: &vocab,
    };
    group.bench_function("eval_match", |b| b.iter(|| black_box(q.matches(&doc))));
    // What a corpus scan pays per tweet: re-tokenize into vocabulary ids.
    let mut ids = Vec::new();
    group.bench_function("doc_token_ids", |b| {
        b.iter(|| {
            vocab.token_ids(black_box(text), &mut ids);
            black_box(ids.len())
        })
    });
    group.finish();
}

fn bench_text(c: &mut Criterion) {
    let gen = PostGenerator::default();
    let mut rng = DetRng::new(7);
    let post_a = gen.generate(Topic::Politics, &mut rng);
    let post_b = gen.generate(Topic::Politics, &mut rng);
    let mut group = c.benchmark_group("textsim");
    group.bench_function("tokenize", |b| b.iter(|| black_box(tokenize(&post_a))));
    group.bench_function("embed", |b| b.iter(|| black_box(embed(&post_a))));
    let (ea, eb) = (embed(&post_a), embed(&post_b));
    group.bench_function("cosine", |b| b.iter(|| black_box(cosine(&ea, &eb))));
    // One `similar` call per branch: an unrelated pair, decided on integer
    // counts, and a pair whose exact cosine is 0.7 (the in-band pair of
    // flock_textsim's embed tests), which the float cosine decides.
    let unrelated = (
        FeatureCounts::of(&post_a),
        FeatureCounts::of(&gen.generate(Topic::GameDev, &mut rng)),
    );
    group.bench_function("similar_integer", |b| {
        b.iter(|| black_box(similar(black_box(&unrelated.0), black_box(&unrelated.1))))
    });
    let in_band = (
        FeatureCounts::of("instance server admin timeline boost activitypub decentralized moderation remote fediverse"),
        FeatureCounts::of("instance server admin timeline boost activitypub decentralized webfinger blocklist followers"),
    );
    group.bench_function("similar_in_band", |b| {
        b.iter(|| black_box(similar(black_box(&in_band.0), black_box(&in_band.1))))
    });
    let scorer = ToxicityScorer::new();
    group.bench_function("toxicity_score", |b| {
        b.iter(|| black_box(scorer.score(&post_a)))
    });
    group.bench_function("generate_post", |b| {
        b.iter(|| black_box(gen.generate(Topic::Tech, &mut rng)))
    });
    group.bench_function("paraphrase", |b| {
        b.iter(|| black_box(gen.paraphrase(&post_a, &mut rng)))
    });
    group.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut rng = DetRng::new(9);
    let mut group = c.benchmark_group("rng");
    group.bench_function("next_u64", |b| b.iter(|| black_box(rng.next_u64())));
    group.bench_function("zipf_1000", |b| b.iter(|| black_box(rng.zipf(1000, 1.2))));
    group.bench_function("lognormal", |b| {
        b.iter(|| black_box(rng.lognormal(0.0, 1.0)))
    });
    group.bench_function("poisson_4", |b| b.iter(|| black_box(rng.poisson(4.0))));
    group.finish();
}

fn bench_rate_limit(c: &mut Criterion) {
    c.bench_function("token_bucket_acquire", |b| {
        let mut bucket = TokenBucket::new(RatePolicy::twitter_search(), 0);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            black_box(bucket.try_acquire(now).is_ok())
        })
    });
}

criterion_group!(
    components,
    bench_handle_extraction,
    bench_query,
    bench_text,
    bench_rng,
    bench_rate_limit,
);
criterion_main!(components);
