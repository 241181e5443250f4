//! Determinism of the parallel evaluation grid.
//!
//! The harness's headline guarantee: `run_grid` output is *bit-identical*
//! at any worker count, because every cell is a pure function of its index
//! (own RNG chain, own detector) and results land in fixed slots. This
//! test runs a small but real slice of the Table III grid serially and on
//! four workers and compares every metric **bitwise** (`f64::to_bits`, not
//! an epsilon) — any scheduling leak into the numerics fails loudly.

use sad_bench::{run_grid, EvalRow, HarnessScale, JobPool};
use sad_core::{paper_algorithms, ScoreKind};
use sad_data::{daphnet_like, smd_like, Corpus, CorpusParams};

fn bits(row: &EvalRow) -> [u64; 5] {
    [
        row.precision.to_bits(),
        row.recall.to_bits(),
        row.auc.to_bits(),
        row.vus.to_bits(),
        row.nab.to_bits(),
    ]
}

#[test]
fn parallel_grid_is_bit_identical_to_serial() {
    let cp = CorpusParams { length: 700, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpora: Vec<Corpus> = vec![daphnet_like(7, cp), smd_like(7, cp)];
    // A cheap, representative slice of the Table I specs (skip the slow
    // deep models: determinism does not depend on which spec runs).
    let specs: Vec<_> = paper_algorithms().into_iter().take(4).collect();
    let scorers = [ScoreKind::Raw, ScoreKind::AnomalyLikelihood];

    let serial = run_grid(&specs, &corpora, &scorers, HarnessScale::Quick, JobPool::new(1));
    let parallel = run_grid(&specs, &corpora, &scorers, HarnessScale::Quick, JobPool::new(4));

    assert_eq!(serial.rows.len(), specs.len() * corpora.len() * scorers.len());
    assert_eq!(serial.rows.len(), parallel.rows.len());
    assert_eq!(serial.root_labels, parallel.root_labels);
    assert_eq!(serial.jobs_used, 1);
    assert!(parallel.jobs_used > 1);
    for (i, (s, p)) in serial.rows.iter().zip(&parallel.rows).enumerate() {
        assert_eq!(bits(s), bits(p), "cell {i} differs between jobs=1 and jobs=4");
    }
}

#[test]
fn rerunning_the_grid_reproduces_itself() {
    // Same pool size twice: the grid must also be deterministic across
    // runs (fresh corpora built from the same seed).
    let cp = CorpusParams { length: 600, n_series: 1, anomalies_per_series: 2, with_drift: false };
    let specs: Vec<_> = paper_algorithms().into_iter().take(2).collect();
    let scorers = [ScoreKind::Average];

    let run = |seed: u64| {
        let corpora = vec![daphnet_like(seed, cp)];
        run_grid(&specs, &corpora, &scorers, HarnessScale::Quick, JobPool::new(2))
    };
    let a = run(11);
    let b = run(11);
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(bits(x), bits(y));
    }
}
