//! Everything a workload feeds the program. The same `--seed` gives the
//! same inputs; the program sees only what is generated here.
//!
//! Two kinds of input, seeded apart. The *world* — datasets, the fitted
//! model, the explanation context, a warm engine's prime seed — comes
//! from the constant [`WORLD_SEED`]: invocations per explanation and
//! every latency depend on which frequent itemsets a dataset happens to
//! have and how deep its forest grew (±8 % between generator seeds on
//! `serve_steady`), and a bound tight enough to catch a 3 % regression
//! cannot also absorb that. The *traffic* — which tuples are explained,
//! in what order, every perturbation stream, every arrival — comes from
//! `--seed`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use shahin_explain::ExplainContext;
use shahin_model::{ForestParams, RandomForest};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset, Instance};

use crate::spans::Recorder;

/// Seed of every dataset, model and prime: see the module docs.
pub const WORLD_SEED: u64 = 2021;

/// An independent sub-seed of `seed` for the purpose named by `tag`
/// (SplitMix64 finalizer, as `shahin::per_tuple_seed`).
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fitted model with its explanation context and held-out rows.
pub struct Inputs {
    pub ctx: ExplainContext,
    pub forest: RandomForest,
    /// Held-out rows: the tuples the workloads explain or serve.
    pub test: Dataset,
}

/// The paper's protocol (§4.1) with product defaults: a synthetic dataset
/// with the preset's shape, a 1/3 : 2/3 split, `ForestParams::default()`
/// trained on the first part, the context fitted on it too. Each stage is
/// one span under `parent`.
pub fn build_inputs(
    preset: DatasetPreset,
    data_scale: f64,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> Inputs {
    let (data, labels) = rec.time("tabular.synth", parent, || {
        preset.spec(data_scale).generate(seed)
    });
    let mut rng = StdRng::seed_from_u64(derive(seed, 1));
    let split = rec.time("tabular.split", parent, || {
        train_test_split(&data, &labels, 1.0 / 3.0, &mut rng)
    });
    let forest = rec.time("model.fit", parent, || {
        RandomForest::fit(
            &split.train,
            &split.train_labels,
            &ForestParams::default(),
            &mut rng,
        )
    });
    let ctx = rec.time("explain.context_fit", parent, || {
        ExplainContext::fit(&split.train, 1000, &mut rng)
    });
    Inputs {
        ctx,
        forest,
        test: split.test,
    }
}

/// The first `n` rows of `data` starting at `start`, wrapping around: the
/// `b`-th block of an offline workload. Rows inside one block are
/// distinct as long as `n <= data.n_rows()`.
pub fn block(data: &Dataset, start: usize, n: usize) -> Dataset {
    assert!(n <= data.n_rows(), "block larger than the dataset");
    let rows: Vec<usize> = (0..n).map(|i| (start + i) % data.n_rows()).collect();
    data.select(&rows)
}

/// A drifting stream: `n` rows of every segment starting at `start`
/// (wrapping), segment after segment. The segments come from differently
/// seeded generators (other Zipf code maps), so the frequent itemsets
/// change at each boundary.
pub fn drift_stream(segments: &[Dataset], start: usize, n: usize) -> Dataset {
    let schema = Arc::clone(segments[0].schema());
    let rows: Vec<Instance> = segments
        .iter()
        .flat_map(|seg| (0..n).map(move |i| seg.instance((start + i) % seg.n_rows())))
        .collect();
    Dataset::from_rows(schema, &rows)
}

/// One request of an open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the schedule starts at which the request is due.
    pub due_ns: u64,
    /// Index into the workload's tenant list.
    pub tenant: usize,
    /// Warm-set row to explain.
    pub row: usize,
}

/// One tenant's traffic in a schedule: `rate` requests per second while
/// "on". A source with `period_ns > 0` is on for the first `on_ns` of
/// every period; otherwise it is always on.
#[derive(Clone, Copy, Debug)]
pub struct Source {
    pub tenant: usize,
    pub rate: f64,
    pub n_rows: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub period_ns: u64,
    pub on_ns: u64,
}

/// `n` rows out of `0..n_rows`, uniform without replacement: a seeded
/// shuffle of all rows, walked round and round. Every row is asked for
/// equally often (to within one), so the work a request mix costs does
/// not depend on which rows a seed happened to draw.
pub fn cycled_rows(n: usize, n_rows: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_rows).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    (0..n).map(|i| order[i % n_rows]).collect()
}

/// Merges the sources into one schedule ordered by due time: a
/// fixed-rate open loop. Each source sends `rate × duration` requests,
/// evenly spaced from a random phase, in every interval it is on, and
/// walks its own [`cycled_rows`] order. Everything is seeded from `seed`.
pub fn schedule(sources: &[Source], seed: u64) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (s, src) in sources.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(derive(seed, 100 + s as u64));
        let mut order: Vec<usize> = (0..src.n_rows).collect();
        order.shuffle(&mut rng);
        // The intervals the source is on.
        let mut on: Vec<(u64, u64)> = Vec::new();
        if src.period_ns == 0 {
            on.push((src.start_ns, src.end_ns));
        } else {
            let mut t = src.start_ns;
            while t < src.end_ns {
                on.push((t, (t + src.on_ns).min(src.end_ns)));
                t += src.period_ns;
            }
        }
        // A per-source phase keeps sources with equal rates from landing
        // on the same nanosecond.
        let phase: f64 = rng.gen();
        let mut sent = 0usize;
        for (a, b) in on {
            let n = (src.rate * (b - a) as f64 / 1e9).round() as usize;
            for i in 0..n {
                out.push(Arrival {
                    due_ns: a + ((i as f64 + phase) * (b - a) as f64 / n as f64) as u64,
                    tenant: src.tenant,
                    row: order[sent % order.len()],
                });
                sent += 1;
            }
        }
    }
    out.sort_by_key(|a| (a.due_ns, a.tenant));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always(tenant: usize, rate: f64, end_ns: u64) -> Source {
        Source {
            tenant,
            rate,
            n_rows: 50,
            start_ns: 0,
            end_ns,
            period_ns: 0,
            on_ns: 0,
        }
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let sources = [
            always(0, 1000.0, 1_000_000_000),
            always(1, 50.0, 1_000_000_000),
        ];
        let a = schedule(&sources, 7);
        assert_eq!(a, schedule(&sources, 7));
        assert_ne!(a, schedule(&sources, 8));
        assert_eq!(a.iter().filter(|x| x.tenant == 0).count(), 1000);
        assert_eq!(a.iter().filter(|x| x.tenant == 1).count(), 50);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.row < 50));
        // Rows cycle a shuffle: 1 000 requests over 50 rows ask for every
        // row exactly 20 times.
        for row in 0..50 {
            assert_eq!(
                a.iter().filter(|x| x.tenant == 0 && x.row == row).count(),
                20
            );
        }
        assert_eq!(cycled_rows(7, 3, 1), cycled_rows(7, 3, 1));
        assert_eq!(cycled_rows(7, 3, 1)[..3], cycled_rows(7, 3, 1)[3..6]);
    }

    #[test]
    fn bursty_source_is_silent_off_period() {
        let src = Source {
            tenant: 2,
            rate: 200.0,
            n_rows: 10,
            start_ns: 1_000_000_000,
            end_ns: 9_000_000_000,
            period_ns: 4_000_000_000,
            on_ns: 1_000_000_000,
        };
        let a = schedule(&[src], 3);
        // Two periods, one second on in each, 200 requests per second.
        assert_eq!(a.len(), 400);
        for x in &a {
            assert!((x.due_ns - src.start_ns) % src.period_ns < src.on_ns);
        }
    }

    #[test]
    fn drift_stream_concatenates_segment_slices() {
        let spec = DatasetPreset::Recidivism.spec(0.01);
        let segs: Vec<Dataset> = (0..3).map(|i| spec.generate(40 + i).0).collect();
        let stream = drift_stream(&segs, 5, 10);
        assert_eq!(stream.n_rows(), 30);
        assert_eq!(stream.instance(0), segs[0].instance(5));
        assert_eq!(stream.instance(10), segs[1].instance(5));
        assert_eq!(stream.instance(29), segs[2].instance(14));
        // Starts past the end wrap around inside each segment.
        let n = segs[0].n_rows();
        let wrapped = drift_stream(&segs, n - 1, 2);
        assert_eq!(wrapped.instance(1), segs[0].instance(0));
        assert_eq!(wrapped.instance(2), segs[1].instance(n - 1));
    }

    #[test]
    fn blocks_wrap_and_seeds_differ() {
        let data = DatasetPreset::Recidivism.spec(0.01).generate(1).0;
        let n = data.n_rows();
        let b = block(&data, n - 2, 4);
        assert_eq!(b.instance(0), data.instance(n - 2));
        assert_eq!(b.instance(2), data.instance(0));
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
    }
}
