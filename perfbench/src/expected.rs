//! Model metrics recorded per seed.
//!
//! Rounds, messages and bits are the paper's cost measure and a pure
//! function of the seed, so a run at a recorded seed must reproduce them
//! exactly; any difference counts the run's operations as failed. The
//! recorded seeds are the default, the held-out seed, and 1 to 10, the
//! seeds of the recorded baseline. The det-small values at seed 42 are the
//! BENCH_PR6/PR7 straggler cell. The held-out seed is for re-checking a
//! claimed gain on inputs the change was not tuned on. Other seeds are
//! checked for determinism and cross-engine identity only.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning, for re-checking claims.
pub const HELD_OUT_SEED: u64 = 20_200_803;

/// Simulated cost of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Model {
    pub rounds: u64,
    pub messages: u64,
    pub total_bits: u64,
}

impl Model {
    pub fn of(m: &congest::Metrics) -> Self {
        Model {
            rounds: m.rounds,
            messages: m.messages,
            total_bits: m.total_bits,
        }
    }
}

/// One recorded seed: `(seed, rounds, messages, total_bits)`.
type Row = (u64, u64, u64, u64);

fn lookup(rows: &[Row], seed: u64) -> Option<Model> {
    rows.iter()
        .find(|row| row.0 == seed)
        .map(|&(_, rounds, messages, total_bits)| Model {
            rounds,
            messages,
            total_bits,
        })
}

/// det-small on `random_regular(10⁵, 8)`: the seq, par2 and net2 workloads.
const DET: [Row; 12] = [
    (DEFAULT_SEED, 1170, 11_428_368, 235_413_376),
    (HELD_OUT_SEED, 1170, 11_447_040, 235_749_488),
    (1, 1170, 11_452_260, 235_831_433),
    (2, 1170, 11_436_544, 235_533_064),
    (3, 1170, 11_440_192, 235_639_640),
    (4, 1170, 11_439_744, 235_562_704),
    (5, 1170, 11_445_398, 235_677_943),
    (6, 1170, 11_437_599, 235_515_522),
    (7, 1170, 11_441_600, 235_570_568),
    (8, 1170, 11_442_432, 235_575_480),
    (9, 1170, 11_443_792, 235_670_168),
    (10, 1170, 11_452_128, 235_758_432),
];

/// Stressed rand-improved on `random_regular(10⁵, 8)`.
const RAND_STRESSED: [Row; 12] = [
    (DEFAULT_SEED, 553, 13_295_714, 1_009_998_123),
    (HELD_OUT_SEED, 553, 13_238_844, 1_008_918_605),
    (1, 547, 13_209_367, 1_008_279_160),
    (2, 547, 13_215_554, 1_007_816_262),
    (3, 553, 13_245_459, 1_009_024_709),
    (4, 556, 13_235_114, 1_008_867_651),
    (5, 553, 13_221_309, 1_008_417_938),
    (6, 544, 13_229_288, 1_008_481_486),
    (7, 547, 13_241_473, 1_008_868_341),
    (8, 550, 13_290_522, 1_009_914_604),
    (9, 556, 13_173_674, 1_007_246_440),
    (10, 553, 13_205_022, 1_007_975_378),
];

/// Repair cost summed over the churn trace's batches.
const CHURN: [Row; 12] = [
    (DEFAULT_SEED, 165, 88_487, 543_142),
    (HELD_OUT_SEED, 192, 90_653, 560_676),
    (1, 174, 93_408, 573_619),
    (2, 153, 87_060, 539_662),
    (3, 171, 87_206, 537_762),
    (4, 165, 89_856, 552_663),
    (5, 162, 88_574, 548_057),
    (6, 180, 85_317, 524_341),
    (7, 177, 84_787, 523_180),
    (8, 180, 91_398, 557_474),
    (9, 168, 88_814, 545_932),
    (10, 171, 85_111, 521_559),
];

/// det-small on `random_regular(10⁵, 8)`: the seq, par2 and net2 workloads.
pub fn det(seed: u64) -> Option<Model> {
    lookup(&DET, seed)
}

/// Stressed rand-improved on `random_regular(10⁵, 8)`.
pub fn rand_stressed(seed: u64) -> Option<Model> {
    lookup(&RAND_STRESSED, seed)
}

/// Repair cost summed over the churn trace's batches.
pub fn churn(seed: u64) -> Option<Model> {
    lookup(&CHURN, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_records_the_same_seeds() {
        for seed in (1..=10).chain([DEFAULT_SEED, HELD_OUT_SEED]) {
            assert!(det(seed).is_some(), "det, seed {seed}");
            assert!(rand_stressed(seed).is_some(), "rand, seed {seed}");
            assert!(churn(seed).is_some(), "churn, seed {seed}");
        }
        assert_eq!(det(11), None);
    }
}
