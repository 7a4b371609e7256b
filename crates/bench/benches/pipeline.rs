//! End-to-end pipeline benchmarks: world generation, search-index
//! construction, single API calls, and the complete §3 crawl.

use criterion::{criterion_group, criterion_main, Criterion};
use flock_apis::ApiServer;
use flock_bench::bench_world;
use flock_core::Day;
use flock_crawler::pipeline::crawl;
use flock_fedisim::{World, WorldConfig};
use std::hint::black_box;

fn bench_world_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("world");
    group.sample_size(10);
    group.bench_function("generate_small", |b| {
        b.iter(|| black_box(World::generate(&WorldConfig::small().with_seed(1)).unwrap()))
    });
    group.finish();
}

fn bench_api_server(c: &mut Criterion) {
    let world = bench_world().clone();
    let mut group = c.benchmark_group("api");
    group.sample_size(10);
    group.bench_function("build_search_index", |b| {
        b.iter(|| black_box(ApiServer::with_defaults(world.clone()).unwrap()))
    });
    group.finish();

    let api = ApiServer::with_defaults(world).unwrap();
    let mut group = c.benchmark_group("api_requests");
    group.bench_function("search_keyword", |b| {
        b.iter(|| {
            api.advance_clock_to(api.now() + 10); // keep the rate limiter satisfied
            black_box(
                api.twitter_search("mastodon", Day::COLLECTION_START, Day::COLLECTION_END, None)
                    .unwrap(),
            )
        })
    });
    // Ablation of the host-index design choice: the same logical search
    // expressed as a bare OR forfeits the index's required-token shortcut
    // and scans the corpus. The gap is the speedup the index buys the
    // 15,886 instance-link queries of §3.1.
    group.bench_function("search_or_query_full_scan", |b| {
        b.iter(|| {
            api.advance_clock_to(api.now() + 10);
            black_box(
                api.twitter_search(
                    "url:\"mastodon.social\" OR url:\"mastodon.online\"",
                    Day::COLLECTION_START,
                    Day::COLLECTION_END,
                    None,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("search_instance_link", |b| {
        b.iter(|| {
            api.advance_clock_to(api.now() + 10);
            black_box(
                api.twitter_search(
                    "url:\"mastodon.social\"",
                    Day::COLLECTION_START,
                    Day::COLLECTION_END,
                    None,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_full_crawl(c: &mut Criterion) {
    let world = bench_world().clone();
    let mut group = c.benchmark_group("crawl");
    group.sample_size(10);
    group.bench_function("full_study_small", |b| {
        b.iter(|| {
            let api = ApiServer::with_defaults(world.clone()).unwrap();
            black_box(crawl(&api).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    pipeline,
    bench_world_generation,
    bench_api_server,
    bench_full_crawl
);
criterion_main!(pipeline);
