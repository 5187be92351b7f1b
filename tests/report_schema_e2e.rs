//! The report schema end to end, over one generated report with rows in
//! every table.
//!
//! * The artifact readers face bytes from disk, so they must be total:
//!   `aq_bench::json::parse` and `RunReport::parse_json` return `Ok` or
//!   `Err` on any input — arbitrary bytes, JSON-shaped noise, a rendered
//!   report with one byte changed — and never panic or overflow the stack.
//! * The writer/reader pair is exact: render, parse, render reproduces
//!   the bytes.
//! * The sweep drill-down sees the whole schema: a change to any declared
//!   column of any table is named by exactly that `(row, field)`.

use aq_bench::json;
use aq_bench::report::{
    AqRow, BufferRow, EntityRow, FaultRow, FaultSummary, PortRow, Row, RunReport, Section, TableRow,
};
use aq_harness::diff::Tolerances;
use aq_harness::drill::{diff_reports, FieldDiff};
use aq_netsim::ids::{EntityId, FlowId, NodeId, PortId};
use aq_netsim::queue::DropCause;
use aq_netsim::stats::{AqPosition, AqSummary, AqTableSummary, StatsHub};
use aq_netsim::time::Time;
use proptest::prelude::*;

/// Counters stay below 2^53: the reader holds numbers as `f64`, which is
/// exact up to there (the one larger value reports carry is the
/// `u64::MAX` "still rebuilding" sentinel, which saturates back).
const EXACT: u64 = 1 << 53;

/// Labels exercise both quoting layers: JSON escapes and CSV quotes.
const LABEL_CHARS: &[char] = &[
    'a', 'Z', '7', ' ', ',', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '=', 'π', '—', '{', ']',
];

const NO_FAULTS: &str = "\"faults\":{\"injected\":[],\"link_down_drops\":0,\
    \"link_down_dropped_bytes\":0,\"corrupt_drops\":0,\"corrupt_dropped_bytes\":0,\
    \"pause_drops\":0,\"pause_dropped_bytes\":0}";

/// `report.json` with rows in every table, its values drawn from `c`.
/// Entities, ports, pools, AQs and tables come through a hub capture; a
/// hub carries no fault log (only a simulator does), so the fault summary
/// is spliced into the rendered text.
fn report_json(label: &str, c: &[u64]) -> String {
    let c = |i: usize| c[i % c.len()];
    let small = |i: usize| c(i) % 1_000_000;
    let mut hub = StatsHub::new();
    let (e, n, p) = (EntityId(1), NodeId(2), PortId(3));
    hub.on_inject(e, small(0));
    hub.on_delivery(Time::from_millis(2), e, small(1), c(2), c(3));
    hub.on_delivery(Time::from_millis(14), EntityId(4), small(4), 0, 0);
    hub.on_drop(e);
    hub.register_flow(FlowId(1), e, small(1), Time::ZERO);
    hub.register_flow(FlowId(2), e, small(1), Time::ZERO);
    hub.flow_completed(FlowId(1), Time::from_micros(small(5) + 1));
    hub.flow_completed(FlowId(2), Time::from_micros(small(5) + 2));
    hub.on_port_enqueue(Time::from_millis(1), n, p, small(6), small(7), c(8));
    hub.on_port_dequeue(Time::from_millis(12), n, p, small(9), small(10));
    hub.on_port_tx(n, p, small(9));
    for &cause in DropCause::ALL {
        match cause {
            DropCause::LinkDown | DropCause::Corrupt => {
                hub.on_wire_drop(n, p, small(11), cause, c(11) % 2 == 0);
            }
            _ => hub.on_port_queue_drop(n, p, small(12), cause),
        }
    }
    hub.on_pool_sample(
        Time::from_millis(3),
        n,
        "dt",
        c(13),
        c(14),
        c(15),
        c(16),
        c(17),
    );
    // Rows differ in more than their position, so that a moved position is
    // a new row and not a second copy of the other one.
    let positions = [AqPosition::Ingress, AqPosition::Egress]
        .into_iter()
        .enumerate();
    hub.record_aq_summaries(positions.clone().map(|(i, position)| AqSummary {
        tag: (c(18) % u64::from(u32::MAX / 4)) as u32 + i as u32,
        position,
        rate_bps: c(19),
        limit_bytes: c(20),
        arrived_bytes: c(21),
        limit_drops: c(22),
        marks: c(23),
        gap_samples: c(24),
        max_gap_bytes: c(25),
        mean_gap_bytes: c(26) as f64 / 1024.0,
        wipes: c(27),
        reconverge_ns: if c(28) % 3 == 0 { u64::MAX } else { c(28) },
    }));
    for (i, position) in positions {
        hub.record_table_summary(AqTableSummary {
            node: NodeId(n.0 + i as u32),
            position,
            policy: "evict_idle",
            budget_bytes: c(29),
            occupancy_bytes: c(30),
            peak_bytes: c(31),
            rejected_deploys: c(32),
            evictions: c(33),
            readmissions: c(34),
            degraded_flows: c(35),
            degraded_pkts: c(36),
            degraded_bytes: c(37),
        });
    }
    let mut r = RunReport::new(label);
    r.capture_hub(label, Time::from_millis(30), c(38), &hub);
    // Sections pair up by label across two reports, so each needs its own.
    let model = format!("{label}/model");
    r.capture_metrics(&model, &[(label, c(39) as f64 / -7.0), ("plain", 0.5)]);
    let s = &r.sections()[0];
    let rows = [
        s.entities.len(),
        s.ports.len(),
        s.buffers.len(),
        s.aqs.len(),
        s.tables.len(),
    ];
    assert_eq!(
        rows,
        [2, 1, 1, 2, 2],
        "the hub capture must fill every table"
    );
    let faults = format!(
        "\"faults\":{{\"injected\":[{{\"at_ns\":{},\"kind\":\"link_down\",\"target\":\"l4\"}},\
         {{\"at_ns\":{},\"kind\":\"aq_reset\",\"target\":\"n0\"}}],\"link_down_drops\":{},\
         \"link_down_dropped_bytes\":{},\"corrupt_drops\":{},\"corrupt_dropped_bytes\":{},\
         \"pause_drops\":{},\"pause_dropped_bytes\":{}}}",
        c(40),
        c(40) + 1,
        c(41),
        c(42),
        c(43),
        c(44),
        c(45),
        c(46)
    );
    r.render_json().replacen(NO_FAULTS, &faults, 1)
}

fn drawn_report() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0usize..LABEL_CHARS.len(), 0..12),
        prop::collection::vec(0u64..EXACT, 47..48),
    )
        .prop_map(|(label, counts)| {
            let label: String = label.into_iter().map(|i| LABEL_CHARS[i]).collect();
            report_json(&label, &counts)
        })
}

/// Bytes a JSON document is made of, so noise reaches past the first
/// character of the grammar.
const JSON_BYTES: &[u8] = b"{}[]\",:\\ \n-+.0123456789eEtruefalsn/bu\xcf\x80";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..200),
        shaped in prop::collection::vec(0usize..JSON_BYTES.len(), 0..200),
    ) {
        let shaped: Vec<u8> = shaped.into_iter().map(|i| JSON_BYTES[i]).collect();
        for bytes in [raw, shaped] {
            let text = String::from_utf8_lossy(&bytes);
            let _ = json::parse(&text);
            let _ = RunReport::parse_json(&text);
        }
    }

    #[test]
    fn render_parse_render_is_the_identity(text in drawn_report()) {
        let parsed = RunReport::parse_json(&text);
        prop_assert!(parsed.is_ok(), "{:?} on {text}", parsed.err());
        let parsed = parsed.expect("checked");
        prop_assert_eq!(parsed.sections()[0].faults.injected.len(), 2);
        prop_assert_eq!(parsed.render_json(), text);
    }

    #[test]
    fn a_rendered_report_with_one_byte_changed_never_panics(
        text in drawn_report(),
        at in 0usize..1 << 20,
        byte in any::<u8>(),
    ) {
        let mut bytes = text.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        // A change that breaks the UTF-8 never reaches the parsers: they
        // take `&str`.
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = json::parse(&text);
            if let Ok(report) = RunReport::parse_json(&text) {
                let _ = report.render();
            }
        }
    }
}

#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":", "[{\"a\":"] {
        let text = open.repeat(200_000);
        assert!(json::parse(&text).is_err());
        assert!(RunReport::parse_json(&text).is_err());
    }
}

/// One fixed draw for the drill-down tests.
fn fixed_report() -> String {
    let counts: Vec<u64> = (1..=47).map(|i| i * 1009 + 1).collect();
    report_json("run", &counts)
}

fn drill(baseline: &str, current: &str) -> Vec<FieldDiff> {
    let parse = |text| RunReport::parse_json(text).expect("report parses");
    diff_reports(
        "r",
        &parse(baseline),
        &parse(current),
        &Tolerances::default(),
    )
}

/// The extent of the JSON value `text` starts with (no brackets or commas
/// inside the fixture's strings).
fn value_len(text: &str) -> usize {
    let mut depth = 0usize;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'[' | b'{' => depth += 1,
            b']' | b'}' if depth == 1 => return i + 1,
            b']' | b'}' if depth > 1 => depth -= 1,
            b',' | b']' | b'}' if depth == 0 => return i,
            _ => {}
        }
    }
    text.len()
}

/// `text` with the value of the first `"col":` after `anchor` replaced by
/// what `new` makes of it.
fn replace_value(text: &str, anchor: &str, col: &str, new: impl Fn(&str) -> String) -> String {
    let key = format!("\"{col}\":");
    let from = text.find(anchor).expect("anchor") + anchor.len();
    let at = from + text[from..].find(&key).expect("column") + key.len();
    let len = value_len(&text[at..]);
    format!(
        "{}{}{}",
        &text[..at],
        new(&text[at..at + len]),
        &text[at + len..]
    )
}

/// A value far outside every tolerance (labels and bools flipped, the
/// first bucket of a series moved).
fn moved(old: &str) -> String {
    match old {
        "true" => "false".to_string(),
        "false" => "true".to_string(),
        "\"ingress\"" => "\"egress\"".to_string(),
        _ if old.starts_with('"') => format!("\"x{}", &old[1..]),
        _ if old.starts_with('[') => {
            let first = old.find([',', ']']).expect("bucket end");
            format!("[{}{}", moved(&old[1..first]), &old[first..])
        }
        _ if old.contains('.') => format!("{:.6}", old.parse::<f64>().expect("float") * 3.0 + 1e3),
        // (The `u64::MAX` sentinel can only move down.)
        _ => match old.parse::<u64>().expect("integer") {
            v if v > EXACT => "0".to_string(),
            v => (v * 3 + 1000).to_string(),
        },
    }
}

/// Move each column of `R`'s first row after `anchor` in turn and require
/// the drill-down to name exactly that `(row, field)`.
fn every_column_is_named<R: Row>(anchor: &str, rows: impl Fn(&Section) -> &[R]) {
    let text = fixed_report();
    let base = RunReport::parse_json(&text).expect("baseline parses");
    let row = rows(&base.sections()[0])[0].label();
    // The nested `injected` table is covered as `FaultRow`.
    for col in R::COLUMNS.iter().filter(|col| col.name != "injected") {
        let diffs = drill(&text, &replace_value(&text, anchor, col.name, moved));
        let got: Vec<(&str, &str)> = diffs
            .iter()
            .map(|d| (d.row.as_str(), d.field.as_str()))
            .collect();
        if R::KEY.contains(&col.name) {
            // A moved key is another row: the old one is gone, a new one
            // appeared.
            assert_eq!(got.len(), 2, "{}.{}: {diffs:?}", R::LABEL, col.name);
            assert_eq!(got[0], (row.as_str(), "<row>"), "{diffs:?}");
            assert_eq!((got[1].1, diffs[1].baseline.as_str()), ("<row>", "absent"));
        } else {
            let bucket = format!("{}[0]", col.name);
            let field = if col.csv { col.name } else { bucket.as_str() };
            assert_eq!(got, [(row.as_str(), field)], "{}.{}", R::LABEL, col.name);
        }
    }
}

#[test]
fn every_declared_column_of_every_table_is_drilled() {
    every_column_is_named::<EntityRow>("\"entities\":[", |s| &s.entities);
    every_column_is_named::<PortRow>("\"ports\":[", |s| &s.ports);
    every_column_is_named::<BufferRow>("\"buffers\":[", |s| &s.buffers);
    every_column_is_named::<AqRow>("\"aqs\":[", |s| &s.aqs);
    every_column_is_named::<TableRow>("\"tables\":[", |s| &s.tables);
    every_column_is_named::<FaultRow>("\"injected\":[", |s| &s.faults.injected);
    every_column_is_named::<FaultSummary>("\"faults\":{", |s| std::slice::from_ref(&s.faults));
}

#[test]
fn a_row_on_one_side_only_is_reported_both_ways() {
    let with = fixed_report();
    for (table, row) in [
        ("buffers", "buffer 2"),
        ("tables", "table 3/egress"),
        ("injected", "fault 41371/aq_reset/n0"),
    ] {
        // Drop the table's last row (its only one, for `buffers`).
        let without = replace_value(&with, "\"label\":", table, |rows| {
            let last = rows.rfind(",{").map_or(1, |at| at);
            format!("{}]", &rows[..last])
        });
        let sides = |diffs: Vec<FieldDiff>| -> Vec<(String, String, String, String)> {
            let d = diffs.into_iter();
            d.map(|d| (d.row, d.field, d.baseline, d.current)).collect()
        };
        let s = String::from;
        assert_eq!(
            sides(drill(&with, &without)),
            [(s(row), s("<row>"), s("present"), s("absent"))]
        );
        assert_eq!(
            sides(drill(&without, &with)),
            [(s(row), s("<row>"), s("absent"), s("present"))]
        );
    }
}

#[test]
fn joined_packet_counters_share_the_two_packet_slack() {
    // The fixed report counts one drop of every cause on its port.
    let text = fixed_report();
    for col in [
        "shared_rejects",
        "overflow_drops",
        "link_drops",
        "corrupt_drops",
    ] {
        let set = |v: u64| replace_value(&text, "\"ports\":[", col, |_| v.to_string());
        let within = drill(&text, &set(3));
        assert!(
            within.is_empty(),
            "{col}: 1 -> 3 is inside the slack: {within:?}"
        );
        let beyond = drill(&text, &set(4));
        assert_eq!(beyond.len(), 1, "{col}: {beyond:?}");
        assert_eq!(
            (beyond[0].row.as_str(), beyond[0].field.as_str()),
            ("port 2/3", col)
        );
    }
}
