//! Pins the **noisy** dynamic MVM path — attention's `QKᵀ` and `AV` on a
//! chip with programming variation, drift, phase errors, losses and an
//! ADC — to recorded values. The ideal-mode suites (`llm_oracle`, the
//! `llm_block` golden) cannot see a changed noisy readout, and the
//! noisy LLM is otherwise only checked against itself.
//!
//! - **Golden:** `dynamic_mv` outputs for `QKᵀ` (`p × 8`) and `AV`
//!   (`8 × p`) at positions 1, 8, 16, 129 and 300, with signed and
//!   unsigned drives, on a noisy 128×128 offset-mapped chip and a noisy
//!   64×32 differential one; plus a 16-step noisy `llm_tiny` decode
//!   (tokens, logits, K/V rows). Each output is pinned by its length and
//!   an FNV-1a digest of its values.
//! - **History independence:** one executor serving the shapes out of
//!   order, twice each, answers like a fresh executor per call.
//! - **Field walk:** the cell-by-cell oracle engine answers like the
//!   compiled one on every shape.

use oxbar_nn::mapping::WeightMapping;
use oxbar_nn::transformer::{KvCache, LmConfig, LmWeights, StepInput};
use oxbar_sim::{lm_steps, DeviceExecutor, MvmEngine, SimConfig};

/// Sequence positions the shapes are pinned at: one tile, a few rows,
/// a full `llm_tiny` window, and two lengths that fold rows (AV) or
/// columns (`QKᵀ`) on a 128×128 array.
const POSITIONS: [usize; 5] = [1, 8, 16, 129, 300];

/// `llm_tiny`'s per-head width.
const HEAD_DIM: usize = 8;

/// The two attention products.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `p` key rows of `HEAD_DIM` codes times the query.
    Qk,
    /// `HEAD_DIM` value rows of `p` codes times the attention weights.
    Av,
}

/// SplitMix64: the deterministic code stream the shapes are drawn from.
struct Codes(u64);

impl Codes {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// One pinned call: `(stage, signed rows, drive)`.
fn call(kind: Kind, position: usize, signed: bool) -> (usize, Vec<Vec<i8>>, Vec<i64>) {
    let stage = match kind {
        Kind::Qk => 0,
        Kind::Av => 1,
    };
    let mut codes = Codes((position as u64) << 2 | (stage as u64) << 1 | u64::from(signed));
    let (outputs, inputs) = match kind {
        Kind::Qk => (position, HEAD_DIM),
        Kind::Av => (HEAD_DIM, position),
    };
    let rows = (0..outputs)
        .map(|_| (0..inputs).map(|_| codes.range(-31, 31) as i8).collect())
        .collect();
    let low = if signed { -63 } else { 0 };
    let drive = (0..inputs).map(|_| codes.range(low, 63)).collect();
    (stage, rows, drive)
}

/// Every pinned call, in golden-table order.
fn shapes() -> Vec<(Kind, usize, bool)> {
    let mut out = Vec::new();
    for kind in [Kind::Qk, Kind::Av] {
        for position in POSITIONS {
            for signed in [false, true] {
                out.push((kind, position, signed));
            }
        }
    }
    out
}

/// FNV-1a over the little-endian bytes of `values`.
fn digest(values: impl IntoIterator<Item = i64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn run(exec: &DeviceExecutor, kind: Kind, position: usize, signed: bool) -> Vec<i64> {
    let (stage, rows, drive) = call(kind, position, signed);
    exec.dynamic_mv(stage, &rows, &drive)
}

/// The noisy 128×128 offset-mapped chip.
fn noisy_offset() -> SimConfig {
    SimConfig::noisy(128, 128)
}

/// The noisy 64×32 differential chip (folds every long shape).
fn noisy_differential() -> SimConfig {
    SimConfig::noisy(64, 32)
        .with_mapping(WeightMapping::Differential)
        .with_seed(7)
}

/// `(output length, digest)` per call of [`shapes`] on [`noisy_offset`].
const OFFSET_GOLDEN: [(usize, u64); 20] = [
    (1, 0x8EC370DAECE648F2),
    (1, 0x122113F3FE411433),
    (8, 0x550178E4DAFCA2C0),
    (8, 0x5E47BA8F8A1F48A6),
    (16, 0x7F4E947B61A6B778),
    (16, 0x5B780090D6CADF13),
    (129, 0x6B0069720FD4FC9E),
    (129, 0x96DA3FBBF155978B),
    (300, 0xF7B45379CD369BF7),
    (300, 0x3CD18BE5FC52B6DF),
    (8, 0x066784C98C03479C),
    (8, 0x4051145A08180EA0),
    (8, 0x7CCF1D68626FBD60),
    (8, 0x598DD9E1657FD45B),
    (8, 0x6C2F3C8DB3C84789),
    (8, 0xBE7BCE42280B39F5),
    (8, 0xA8CE958438F2DBB5),
    (8, 0x8AAD951596BE171F),
    (8, 0x2D8676DAB0C0BB29),
    (8, 0x695E839FD7F75354),
];

/// `(output length, digest)` per call of [`shapes`] on
/// [`noisy_differential`].
const DIFFERENTIAL_GOLDEN: [(usize, u64); 20] = [
    (1, 0x7B34CA5AFC6BCA22),
    (1, 0xF0A9356E6AF2BC9D),
    (8, 0x328CD9C7D21DA469),
    (8, 0xDECD1B9773BDA1E7),
    (16, 0x3FB35BA9AD201CA1),
    (16, 0xC4F10949C321F431),
    (129, 0xD9C774A2216A57C0),
    (129, 0xC615DBC1C40C94D0),
    (300, 0x995B3607225CDA55),
    (300, 0x4F0DFBFA23D3F457),
    (8, 0x05BD4C912EF61FA9),
    (8, 0xC0ECE4DCFD870617),
    (8, 0x122A935F2F7C4FA2),
    (8, 0x8075ECD248C6EBA9),
    (8, 0x6CC155A9407A79E6),
    (8, 0xC80F8A88B3E8DAE0),
    (8, 0x72EA69C168731671),
    (8, 0x04D2BFD31D8709BD),
    (8, 0xBBC78740816CFCD3),
    (8, 0x74126056C5BD9EC5),
];

/// Greedy tokens of the 16-step noisy `llm_tiny` decode.
const DECODE_TOKENS: [u32; 16] = [
    31, 31, 18, 21, 31, 31, 31, 29, 31, 29, 27, 18, 31, 25, 31, 21,
];

/// Per step of that decode, the digest of its logits, then K rows, then
/// V rows.
const DECODE_DIGESTS: [u64; 16] = [
    0x98E90863518CDBC7,
    0x2FA2E0FA9B7F16D6,
    0xF7525D8E40BD0109,
    0xB32713F3DB04BF60,
    0x376BB96E6B25D0B4,
    0x31DBE43B72B324D1,
    0x79AEA525D59E58E0,
    0x40D6EEF1043E0A4A,
    0xF30483790E87CD2E,
    0x7F6ACF93D631141E,
    0x3C8D4AEBF7E71BD3,
    0x89C5635AE95EAFB2,
    0xEBC2F3F5A789B0A2,
    0xCB02540FDE99CD87,
    0xC9AC725686EE8338,
    0xCC18981CB3FA0DE4,
];

fn check_golden(config: SimConfig, golden: &[(usize, u64)], label: &str) {
    let exec = DeviceExecutor::new(config);
    for ((kind, position, signed), &(len, want)) in shapes().into_iter().zip(golden) {
        let got = run(&exec, kind, position, signed);
        assert_eq!(
            (got.len(), digest(got.iter().copied())),
            (len, want),
            "{label} {kind:?} p{position} signed={signed}: outputs moved (head {:?})",
            &got[..got.len().min(8)]
        );
    }
}

#[test]
fn noisy_dynamic_outputs_match_the_golden() {
    check_golden(noisy_offset(), &OFFSET_GOLDEN, "offset 128x128");
    check_golden(
        noisy_differential(),
        &DIFFERENTIAL_GOLDEN,
        "differential 64x32",
    );
}

/// A 16-step greedy decode of `llm_tiny` on a noisy 128×128 chip.
fn noisy_decode() -> Vec<(u32, u64)> {
    let weights = LmWeights::synthetic(LmConfig::tiny(), 10);
    let network = weights.network("lm");
    let filters = weights.filters();
    let exec = DeviceExecutor::new(SimConfig::noisy(128, 128).with_threads(1));
    let mut cache = KvCache::new(&weights.config);
    let mut token = 2;
    (0..16)
        .map(|pos| {
            let step = StepInput {
                cache: &cache,
                token,
                pos,
            };
            let outcome = lm_steps(&exec, &network, &filters, &weights, &[step]).remove(0);
            cache.apply(&outcome);
            token = outcome.next_token;
            let values = outcome
                .logits
                .iter()
                .copied()
                .chain(outcome.k_rows.iter().flatten().map(|&v| i64::from(v)))
                .chain(outcome.v_rows.iter().flatten().map(|&v| i64::from(v)));
            (outcome.next_token, digest(values))
        })
        .collect()
}

#[test]
fn noisy_decode_matches_the_golden() {
    let (tokens, digests): (Vec<u32>, Vec<u64>) = noisy_decode().into_iter().unzip();
    assert_eq!(tokens, DECODE_TOKENS, "noisy llm_tiny tokens moved");
    assert_eq!(
        digests, DECODE_DIGESTS,
        "noisy llm_tiny logits or K/V rows moved"
    );
}

#[test]
fn dynamic_outputs_do_not_depend_on_call_history() {
    for config in [noisy_offset(), noisy_differential()] {
        let shared = DeviceExecutor::new(config.clone());
        for kind in [Kind::Qk, Kind::Av] {
            for signed in [false, true] {
                for position in [300, 1, 129, 16, 8, 300, 1, 129, 16, 8] {
                    let fresh = DeviceExecutor::new(config.clone());
                    assert_eq!(
                        run(&shared, kind, position, signed),
                        run(&fresh, kind, position, signed),
                        "{kind:?} p{position} signed={signed}: history changed the outputs"
                    );
                }
            }
        }
    }
}

#[test]
fn field_walk_oracle_matches_the_compiled_dynamic_path() {
    for config in [noisy_offset(), noisy_differential()] {
        let compiled = DeviceExecutor::new(config.clone());
        let walk = DeviceExecutor::new(config).with_engine(MvmEngine::FieldWalk);
        for (kind, position, signed) in shapes() {
            assert_eq!(
                run(&walk, kind, position, signed),
                run(&compiled, kind, position, signed),
                "{kind:?} p{position} signed={signed}: field walk diverged"
            );
        }
    }
}
