//! Benchmarks of the generative substrates: social graphs, instance
//! populations, and the ActivityPub federation network.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flock_activitypub::FediverseNetwork;
use flock_core::DetRng;
use flock_core::TwitterUserId;
use flock_fedisim::graph::{build_friend_graph, realize_followees};
use flock_fedisim::instances::generate_instances;
use flock_fedisim::migration::InstanceSampler;
use std::hint::black_box;

fn bench_friend_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("friend_graph");
    group.sample_size(10);
    for n in [500usize, 2_000, 8_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = DetRng::new(1);
                black_box(build_friend_graph(n, 12.0, 0.55, 0.045, &mut rng))
            })
        });
    }
    group.finish();
}

fn bench_followee_realization(c: &mut Criterion) {
    let friends: Vec<TwitterUserId> = (0..40).map(TwitterUserId).collect();
    let pool: Vec<TwitterUserId> = (1_000..100_000).map(TwitterUserId).collect();
    c.bench_function("realize_followees_800", |b| {
        let mut rng = DetRng::new(2);
        b.iter(|| {
            black_box(realize_followees(
                TwitterUserId(0),
                &friends,
                800,
                &pool,
                &mut rng,
            ))
        })
    });
}

fn bench_instances(c: &mut Criterion) {
    let mut group = c.benchmark_group("instances");
    for n in [500usize, 5_000, 16_000] {
        group.bench_with_input(BenchmarkId::new("generate", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = DetRng::new(3);
                black_box(generate_instances(n, 2.1, &mut rng))
            })
        });
    }
    group.bench_function("sampler_build_16000", |b| {
        b.iter(|| black_box(InstanceSampler::new(16_000, 2.1)))
    });
    let sampler = InstanceSampler::new(16_000, 2.1);
    group.bench_function("sampler_draw", |b| {
        let mut rng = DetRng::new(4);
        b.iter(|| black_box(sampler.sample(1.3, &mut rng)))
    });
    group.finish();
}

fn bench_federation(c: &mut Criterion) {
    let mut group = c.benchmark_group("activitypub");
    group.sample_size(10);
    group.bench_function("hub_1000_remote_follows", |b| {
        b.iter(|| {
            let mut net = FediverseNetwork::default();
            let hub = net.register_actor("hub", "hub.example").unwrap();
            for i in 0..1000 {
                let f = net
                    .register_actor(&format!("f{i}"), &format!("i{}.example", i % 50))
                    .unwrap();
                net.follow(&f, &hub).unwrap();
            }
            net.run_to_quiescence();
            black_box(net.followers_of(&hub).unwrap().len())
        })
    });
    group.bench_function("move_account_500_followers", |b| {
        b.iter(|| {
            let mut net = FediverseNetwork::default();
            let old = net.register_actor("u", "big.example").unwrap();
            let new = net.register_actor("u", "niche.example").unwrap();
            for i in 0..500 {
                let f = net
                    .register_actor(&format!("f{i}"), &format!("i{}.example", i % 25))
                    .unwrap();
                net.follow(&f, &old).unwrap();
            }
            net.run_to_quiescence();
            net.set_also_known_as(&new, &old).unwrap();
            net.move_account(&old, &new).unwrap();
            net.run_to_quiescence();
            black_box(net.followers_of(&new).unwrap().len())
        })
    });
    group.finish();
}

criterion_group!(
    substrate,
    bench_friend_graph,
    bench_followee_realization,
    bench_instances,
    bench_federation,
);
criterion_main!(substrate);
