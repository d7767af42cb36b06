//! The optimizer miscompiles a few generated programs, all in its
//! `distribute` pass. The benchmark must count each one as failed
//! output — naming its generator seed and the pass the differential
//! verifier blames — without calling the run incorrect or dropping it.

use perfbench::optimize_corpus::OptimizeCorpus;
use perfbench::Workload;

/// Generator seeds of the known miscompiles.
const KNOWN: [u64; 3] = [
    1843610381004263888,
    4563075901595971970,
    15694603630292637804,
];

#[test]
fn known_distribute_miscompiles_are_reported_as_failed() {
    let mut corpus = OptimizeCorpus::of(
        KNOWN
            .iter()
            .map(|&s| OptimizeCorpus::generated(s))
            .collect(),
    );
    let pass = corpus.pass();
    let check = corpus.check(&[pass], &[]);
    assert_eq!(check.attempted, 3);
    assert_eq!(check.failed, 3, "notes: {:?}", check.notes);
    assert!(
        check.correct(),
        "miscompiles are failures, not an inconsistent run"
    );
    for seed in KNOWN {
        let note = check
            .notes
            .iter()
            .find(|n| n.contains(&seed.to_string()))
            .unwrap_or_else(|| panic!("seed {seed} not reported: {:?}", check.notes));
        assert!(note.ends_with("verifier blames distribute"), "{note}");
    }
}

#[test]
fn seed_one_draws_a_known_miscompile() {
    // The workload's generator seeds come from the run's `--seed`; seed 1
    // draws the first known miscompile, so the end-to-end run reports it.
    let count = perfbench::Scale::full().corpus_generated;
    let seeds = perfbench::optimize_corpus::generator_seeds(1, count);
    assert!(seeds.contains(&KNOWN[0]));
}
