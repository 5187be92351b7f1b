//! The sweep artifacts end to end, over the committed baselines.
//!
//! * `Sweep::parse_json` and `Sweep::parse_csv` face bytes from disk, so
//!   they must be total: `Ok` or `Err` on arbitrary bytes and on a
//!   committed `sweep.json` / `sweep.csv` with one byte changed, never a
//!   panic.
//! * The writer/reader pair is exact: every committed `sweep.json` parses
//!   and renders back to the same bytes, and to the committed `sweep.csv`.

use aq_harness::agg::Sweep;
use proptest::prelude::*;

const SMOKE_JSON: &str = include_str!("../baselines/expected/smoke/sweep.json");
const SMOKE_CSV: &str = include_str!("../baselines/expected/smoke/sweep.csv");

/// Bytes the two formats are made of, so noise reaches past the header.
const SWEEP_BYTES: &[u8] = b"{}[]\",:\\ \n-+.0123456789eEtruefalsNn=_aqscenario";

/// `text` with the byte at `at` (modulo its length) replaced, if the
/// result is still UTF-8 — the parsers take `&str`.
fn mutated(text: &str, at: usize, byte: u8) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    let at = at % bytes.len();
    bytes[at] = byte;
    String::from_utf8(bytes).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sweep_parsers_never_panic_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..200),
        shaped in prop::collection::vec(0usize..SWEEP_BYTES.len(), 0..200),
    ) {
        let shaped: Vec<u8> = shaped.into_iter().map(|i| SWEEP_BYTES[i]).collect();
        for bytes in [raw, shaped] {
            let text = String::from_utf8_lossy(&bytes);
            let _ = Sweep::parse_json(&text);
            let _ = Sweep::parse_csv(&text);
            // Behind a valid header the rows are what is left to break.
            let _ = Sweep::parse_csv(&format!("{}\n{text}", SMOKE_CSV.lines().next().expect("header")));
        }
    }

    #[test]
    fn a_committed_sweep_with_one_byte_changed_never_panics(
        at in 0usize..1 << 20,
        byte in any::<u8>(),
    ) {
        if let Some(text) = mutated(SMOKE_JSON, at, byte) {
            if let Ok(sweep) = Sweep::parse_json(&text) {
                let _ = (sweep.render_json(), sweep.render_csv());
            }
        }
        if let Some(text) = mutated(SMOKE_CSV, at, byte) {
            let _ = Sweep::parse_csv(&text);
        }
    }
}

#[test]
fn committed_sweeps_render_back_to_their_bytes() {
    for (spec, json, csv) in [
        ("smoke", SMOKE_JSON, SMOKE_CSV),
        (
            "extended",
            include_str!("../baselines/expected/extended/sweep.json"),
            include_str!("../baselines/expected/extended/sweep.csv"),
        ),
        (
            "paper",
            include_str!("../baselines/expected/paper/sweep.json"),
            include_str!("../baselines/expected/paper/sweep.csv"),
        ),
    ] {
        let sweep = Sweep::parse_json(json).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(
            sweep.render_json() == json,
            "{spec}: sweep.json changed on a round trip"
        );
        assert!(
            sweep.render_csv() == csv,
            "{spec}: sweep.csv disagrees with sweep.json"
        );
        let configs = Sweep::parse_csv(csv).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(
            configs.keys().eq(sweep.configs.keys()),
            "{spec}: sweep.csv names other configs than sweep.json"
        );
    }
}
