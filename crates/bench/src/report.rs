//! Run reporting: the structured [`RunReport`] artifact every run and
//! example emits.
//!
//! A [`RunReport`] serializes the whole `StatsHub` — entity series, port
//! series (byte conservation, drop causes, ECN marks, occupancy), AQ
//! summaries (gap statistics, limit drops), and fairness indices — to
//! CSV/JSON files under `target/run_reports/<name>/`.
//! Output is deterministic: all maps iterate in `BTreeMap` order and every
//! float is printed with fixed precision, so report bytes are identical
//! across same-seed runs (the determinism e2e digests them).

use crate::json::{self, FromJson, Json};
use aq_core::AqPipeline;
use aq_netsim::fault::{AppliedFault, FaultTotals};
use aq_netsim::ids::{EntityId, NodeId, PortId};
use aq_netsim::node::NodeKind;
use aq_netsim::sim::Simulator;
use aq_netsim::stats::{
    jain_index, AqPosition, AqSummary, AqTableSummary, BufferStats, EntityStats, PortStats,
    StatsHub,
};
use aq_netsim::time::{Duration, Time};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A value as drill-down text, in the fixed `{:.6}` precision the
/// serializers write (report bytes never depend on locale or default
/// `Display` shortest-repr quirks).
fn f6(v: f64) -> String {
    format!("{v:.6}")
}

/// Absolute slack of packet-count columns in the drill-down: a couple of
/// packets either way is seed noise, whatever the ratio (0 → 1 is not a
/// regression).
const PKT_SLACK: f64 = 2.0;

/// One declared column of a report table.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// JSON key, CSV header cell and drill-down field name.
    pub name: &'static str,
    /// Absolute delta at or below which the drill-down stays quiet.
    pub slack: f64,
    /// Whether the column is written to the table's CSV (series are not).
    pub csv: bool,
}

/// Receiver of the differences [`Section::diff`] finds; the sweep
/// drill-down implements it over its tolerances.
pub trait DiffSink {
    /// Whether `baseline → current` of numeric `field` is a difference,
    /// given the column's declared absolute `slack`.
    fn violates(&self, field: &str, slack: f64, baseline: f64, current: f64) -> bool;
    /// Record one difference. `row` names the table row (`port 0/4`, empty
    /// for section scalars), `field` the column, with a `[i]` or `.len`
    /// suffix for series.
    fn differs(&mut self, row: &str, field: &str, baseline: String, current: String);
}

fn diff_num<S: DiffSink>(row: &str, field: &str, slack: f64, b: f64, c: f64, sink: &mut S) {
    if sink.violates(field, slack, b, c) {
        sink.differs(row, field, f6(b), f6(c));
    }
}

/// How one cell type is written to JSON and CSV, read back and compared.
/// Implemented once per type a report column can have, so adding a column
/// never adds serializer code.
pub trait Cell: Sized {
    /// Series and nested rows live in `report.json` only.
    const IN_CSV: bool = true;
    /// Append the JSON rendering.
    fn json(&self, out: &mut String);
    /// Append the CSV rendering.
    fn csv(&self, out: &mut String);
    /// Read member `key` of the row object `obj`; errors name `ctx`.
    fn parse(obj: &Json, key: &str, ctx: &str) -> Result<Self, String>;
    /// Report to `sink` where baseline `self` and `cur` differ.
    fn diff<S: DiffSink>(&self, cur: &Self, row: &str, col: &Column, sink: &mut S);
}

/// Numeric cells: rendered bare, compared under the sink's tolerance.
pub trait Num: Cell + FromJson + Copy {
    /// The value as the `f64` tolerances are evaluated on.
    fn as_f64(self) -> f64;
}

macro_rules! num_cells {
    ($($t:ty => $fmt:literal),*) => {$(
        impl Num for $t {
            fn as_f64(self) -> f64 {
                self as f64
            }
        }
        impl Cell for $t {
            fn json(&self, out: &mut String) {
                let _ = write!(out, $fmt, self);
            }
            fn csv(&self, out: &mut String) {
                self.json(out);
            }
            fn parse(obj: &Json, key: &str, ctx: &str) -> Result<Self, String> {
                obj.field(key, ctx)
            }
            fn diff<S: DiffSink>(&self, cur: &Self, row: &str, col: &Column, sink: &mut S) {
                diff_num(row, col.name, col.slack, self.as_f64(), cur.as_f64(), sink);
            }
        }
    )*};
}
num_cells!(u64 => "{}", u32 => "{}", f64 => "{:.6}");

impl<T: Num> Cell for Option<T> {
    fn json(&self, out: &mut String) {
        match self {
            Some(v) => v.json(out),
            None => out.push_str("null"),
        }
    }
    fn csv(&self, out: &mut String) {
        if let Some(v) = self {
            v.csv(out);
        }
    }
    fn parse(obj: &Json, key: &str, ctx: &str) -> Result<Self, String> {
        obj.field(key, ctx)
    }
    fn diff<S: DiffSink>(&self, cur: &Self, row: &str, col: &Column, sink: &mut S) {
        let side = |v: &Option<T>| v.map_or_else(|| "absent".to_string(), |v| f6(v.as_f64()));
        match (self, cur) {
            (None, None) => {}
            (Some(b), Some(c)) => b.diff(c, row, col, sink),
            (b, c) => sink.differs(row, col.name, side(b), side(c)),
        }
    }
}

/// Windowed series. The drill-down names the first differing bucket only:
/// series regressions are almost always a shift from one point onward, and
/// one coordinate names it.
impl<T: Num> Cell for Vec<T> {
    const IN_CSV: bool = false;
    fn json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.json(out);
        }
        out.push(']');
    }
    fn csv(&self, _out: &mut String) {}
    fn parse(obj: &Json, key: &str, ctx: &str) -> Result<Self, String> {
        obj.field(key, ctx)
    }
    fn diff<S: DiffSink>(&self, cur: &Self, row: &str, col: &Column, sink: &mut S) {
        let name = col.name;
        if self.len() != cur.len() {
            let (b, c) = (self.len().to_string(), cur.len().to_string());
            sink.differs(row, &format!("{name}.len"), b, c);
        } else if let Some((i, (b, c))) = (self.iter().zip(cur).enumerate())
            .find(|(_, (b, c))| sink.violates(name, col.slack, b.as_f64(), c.as_f64()))
        {
            sink.differs(row, &format!("{name}[{i}]"), f6(b.as_f64()), f6(c.as_f64()));
        }
    }
}

/// Exactly-compared cells (`bool`, labels): any change is a difference.
macro_rules! exact_cells {
    ($($t:ty => |$v:ident| $json:expr, $csv:expr;)*) => {$(
        impl Cell for $t {
            fn json(&self, out: &mut String) {
                let $v = self;
                let _ = write!(out, "{}", $json);
            }
            fn csv(&self, out: &mut String) {
                let $v = self;
                let _ = write!(out, "{}", $csv);
            }
            fn parse(obj: &Json, key: &str, ctx: &str) -> Result<Self, String> {
                obj.field(key, ctx)
            }
            fn diff<S: DiffSink>(&self, cur: &Self, row: &str, col: &Column, sink: &mut S) {
                if self != cur {
                    sink.differs(row, col.name, self.to_string(), cur.to_string());
                }
            }
        }
    )*};
}
exact_cells! {
    bool => |v| v, v;
    String => |v| json::escape(v), crate::csv::quote(v);
    // The one `&'static str` column type is a pipeline position label.
    &'static str => |v| json::escape(v), crate::csv::quote(v);
}

impl FromJson for &'static str {
    fn expected() -> String {
        "\"ingress\" or \"egress\"".to_string()
    }
    fn from_json(v: &Json) -> Option<Self> {
        [AqPosition::Ingress, AqPosition::Egress]
            .into_iter()
            .map(AqPosition::label)
            .find(|l| Some(*l) == v.as_str())
    }
}

/// A report table's row type. Implemented by the `report_row!` macro from
/// the one column list each row struct is declared with; the generic table
/// functions below (`rows_json`, `rows_csv`, `parse_rows`, `diff_rows`)
/// are all the serializer, parser and drill-down there is.
pub trait Row: Sized {
    /// Row-label prefix in drill-down output (`port` in `port 0/4`) and
    /// the context of parse errors.
    const LABEL: &'static str;
    /// Names of the columns that identify a row within its table; rows of
    /// two reports pair up by them.
    const KEY: &'static [&'static str];
    /// Every declared column, in artifact order.
    const COLUMNS: &'static [Column];
    /// Append the row as a JSON object.
    fn json(&self, out: &mut String);
    /// Append `,cell` for every CSV column.
    fn csv(&self, out: &mut String);
    /// Read the row back from its JSON object.
    fn parse(obj: &Json) -> Result<Self, String>;
    /// Whether `other` is the same row of another report.
    fn same_key(&self, other: &Self) -> bool;
    /// The drill-down row label: [`LABEL`](Row::LABEL) plus the key cells.
    fn label(&self) -> String;
    /// Compare every column against the same row of another report.
    fn diff_cells<S: DiffSink>(&self, cur: &Self, row: &str, sink: &mut S);
}

/// Declare one report row type: the struct, how each column is captured
/// from the simulator's statistics, and — through [`Row`] and [`Cell`] —
/// its JSON/CSV rendering, parsing and drill-down comparison. A column is
/// one line: `name: type [slack] = capture expression;`.
macro_rules! report_row {
    (
        $(#[$meta:meta])*
        pub struct $row:ident, $label:literal, key($($key:ident),*),
            capture($($arg:ident: $argty:ty),*);
        $($(#[$doc:meta])* $name:ident: $ty:ty $([$slack:expr])? = $cap:expr;)*
    ) => {
        $(#[$meta])*
        pub struct $row {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl $row {
            fn capture($($arg: $argty),*) -> Self {
                $row { $($name: $cap,)* }
            }
        }

        impl Row for $row {
            const LABEL: &'static str = $label;
            const KEY: &'static [&'static str] = &[$(stringify!($key)),*];
            const COLUMNS: &'static [Column] = &[$(Column {
                name: stringify!($name),
                slack: 0.0 $(+ $slack)?,
                csv: <$ty as Cell>::IN_CSV,
            },)*];
            fn json(&self, out: &mut String) {
                out.push('{');
                $(
                    out.push_str(concat!("\"", stringify!($name), "\":"));
                    self.$name.json(out);
                    out.push(',');
                )*
                out.pop();
                out.push('}');
            }
            fn csv(&self, out: &mut String) {
                $(if <$ty as Cell>::IN_CSV {
                    out.push(',');
                    self.$name.csv(out);
                })*
            }
            fn parse(obj: &Json) -> Result<Self, String> {
                Ok($row { $($name: Cell::parse(obj, stringify!($name), $label)?,)* })
            }
            // The key-less summary record leaves `other` unused; keyed rows
            // use it, so an `#[expect]` would go unfulfilled for them.
            #[allow(unused_variables)]
            fn same_key(&self, other: &Self) -> bool {
                true $(&& self.$key == other.$key)*
            }
            // Likewise: only the key-less record leaves `sep`/`label` idle.
            #[allow(unused_variables, unused_mut, unused_assignments)]
            fn label(&self) -> String {
                let mut label = String::from($label);
                let mut sep = ' ';
                $(
                    label.push(sep);
                    self.$key.csv(&mut label);
                    sep = '/';
                )*
                label
            }
            fn diff_cells<S: DiffSink>(&self, cur: &Self, row: &str, sink: &mut S) {
                let mut cols = Self::COLUMNS.iter();
                $(
                    let col = cols.next().expect("COLUMNS lists every field");
                    self.$name.diff(&cur.$name, row, col, sink);
                )*
            }
        }
    };
}

fn rows_json<R: Row>(rows: &[R], out: &mut String) {
    out.push('[');
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        r.json(out);
    }
    out.push(']');
}

fn rows_csv<R: Row>(sections: &[Section], rows: impl Fn(&Section) -> &[R]) -> String {
    let mut c = String::from("section");
    for col in R::COLUMNS.iter().filter(|col| col.csv) {
        c.push(',');
        c.push_str(col.name);
    }
    c.push('\n');
    for s in sections {
        let label = crate::csv::quote(&s.label);
        for r in rows(s) {
            c.push_str(&label);
            r.csv(&mut c);
            c.push('\n');
        }
    }
    c
}

fn parse_rows<R: Row>(obj: &Json, key: &str, ctx: &str) -> Result<Vec<R>, String> {
    obj.arr_field(key, ctx)?.iter().map(R::parse).collect()
}

fn diff_rows<R: Row, S: DiffSink>(baseline: &[R], current: &[R], sink: &mut S) {
    for b in baseline {
        let row = b.label();
        match current.iter().find(|c| b.same_key(c)) {
            Some(c) => b.diff_cells(c, &row, sink),
            None => sink.differs(&row, "<row>", "present".into(), "absent".into()),
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.same_key(c)) {
            sink.differs(&c.label(), "<row>", "absent".into(), "present".into());
        }
    }
}

report_row! {
    /// One entity's snapshot inside a [`RunReport`] section.
    #[derive(Debug, Clone)]
    pub struct EntityRow, "entity", key(entity),
        capture(e: EntityId, es: &EntityStats, flows: (u64, u64), completion: Option<Duration>, now: Time);
    /// Entity id.
    entity: u64 = e.0 as u64;
    /// Payload bytes delivered.
    rx_bytes: u64 = es.rx_bytes;
    /// Average goodput over `[0, now)` in Gbit/s.
    goodput_gbps: f64 = if now > Time::ZERO {
        es.rx_series.avg_bps(Time::ZERO, now) / 1e9
    } else {
        0.0
    };
    /// Data packets this entity injected (including retransmissions).
    tx_pkts: u64 = es.tx_pkts;
    /// Payload bytes this entity injected (including retransmissions).
    tx_bytes: u64 = es.tx_bytes;
    /// Packets of this entity dropped anywhere.
    drops: u64 [PKT_SLACK] = es.drops;
    /// Physical queuing delay p50 (ns), if any samples.
    pq_p50_ns: Option<u64> = es.pq_delay.percentile(50.0);
    /// Physical queuing delay p99 (ns), if any samples.
    pq_p99_ns: Option<u64> = es.pq_delay.percentile(99.0);
    /// Virtual (AQ) queuing delay p50 (ns), if any samples.
    vq_p50_ns: Option<u64> = es.vdelay.percentile(50.0);
    /// Virtual (AQ) queuing delay p99 (ns), if any samples.
    vq_p99_ns: Option<u64> = es.vdelay.percentile(99.0);
    /// Flows registered for this entity.
    flows: u64 = flows.0;
    /// Flows that completed.
    flows_completed: u64 [1.0] = flows.1;
    /// Workload completion time (s), once every flow finished.
    completion_s: Option<f64> = completion.map(|d| d.as_secs_f64());
    /// Windowed goodput series in bit/s. Padded to the capture horizon:
    /// series lengths must agree across approaches/seeds of the same
    /// scenario so bucket-wise comparisons (sweep drill-down) line up.
    rate_series_bps: Vec<f64> = es.rx_series.rate_series_bps_padded(now);
}

report_row! {
    /// One port's snapshot inside a [`RunReport`] section — the serialized
    /// image of [`aq_netsim::stats::PortStats`]. Every
    /// [`aq_netsim::queue::DropCause`] counter is a column here (tested
    /// against `DropCause::ALL`).
    #[derive(Debug, Clone)]
    pub struct PortRow, "port", key(node, port),
        capture(p: PortId, ps: &PortStats, now: Time);
    /// Node owning the port.
    node: u64 = ps.node.0 as u64;
    /// Port id.
    port: u64 = p.0 as u64;
    /// Bytes offered to the discipline.
    enqueued_bytes: u64 = ps.enqueued_bytes;
    /// Bytes released for transmission.
    dequeued_bytes: u64 = ps.dequeued_bytes;
    /// Bytes of rejected packets.
    dropped_bytes: u64 = ps.dropped_bytes;
    /// Bytes buffered at capture time.
    resident_bytes: u64 = ps.resident_bytes;
    /// Whether `enqueued == dequeued + dropped + resident` held.
    conserves: bool = ps.conserves();
    /// Taildrop packet count.
    taildrops: u64 [PKT_SLACK] = ps.taildrops;
    /// RED (non-ECT over threshold) packet count.
    red_drops: u64 [PKT_SLACK] = ps.red_drops;
    /// Shaper-rejection packet count.
    shaper_drops: u64 [PKT_SLACK] = ps.shaper_drops;
    /// Shared-buffer admission rejections at this port.
    shared_rejects: u64 [PKT_SLACK] = ps.shared_rejects;
    /// AQ-limit drops attributed to this port (upstream of the queue).
    aq_drops: u64 [PKT_SLACK] = ps.aq_drops;
    /// Packets policed because their AQ was parked by a full AQ table
    /// (only non-zero when the pipeline degrades in policing mode).
    overflow_drops: u64 [PKT_SLACK] = ps.overflow_drops;
    /// Packets lost on this port's wire because the link died mid-flight.
    link_drops: u64 [PKT_SLACK] = ps.link_drops;
    /// Packets corrupted on this port's wire by stochastic loss faults.
    corrupt_drops: u64 [PKT_SLACK] = ps.corrupt_drops;
    /// Bytes of frames cut mid-serialization by link death (dequeued but
    /// never fully transmitted; post-serialization losses are in
    /// `tx_bytes`).
    wire_dropped_bytes: u64 = ps.wire_dropped_bytes;
    /// Cumulative CE marks applied by the discipline.
    ecn_marks: u64 [PKT_SLACK] = ps.ecn_marks;
    /// Packets fully serialized onto the wire.
    tx_pkts: u64 = ps.tx_pkts;
    /// Bytes fully serialized onto the wire.
    tx_bytes: u64 = ps.tx_bytes;
    /// Peak buffered bytes over the run.
    peak_occupancy_bytes: u64 = ps.peak_occupancy_bytes();
    /// Per-window peak backlog series (bytes).
    occupancy: Vec<u64> = ps.occupancy.buckets_padded(now);
}

report_row! {
    /// One switch's shared-buffer pool snapshot inside a [`RunReport`]
    /// section — the serialized image of [`aq_netsim::stats::BufferStats`].
    #[derive(Debug, Clone)]
    pub struct BufferRow, "buffer", key(node),
        capture(n: NodeId, bs: &BufferStats, now: Time);
    /// Switch node owning the pool.
    node: u64 = n.0 as u64;
    /// Admission-policy label (`static`, `dt`, `delay`).
    policy: String = bs.policy.to_string();
    /// Pool capacity (bytes).
    capacity_bytes: u64 = bs.capacity_bytes;
    /// Pool occupancy at capture time (bytes).
    occupancy_bytes: u64 = bs.occupancy_bytes;
    /// Packets rejected by admission control.
    shared_rejects: u64 [PKT_SLACK] = bs.shared_rejects;
    /// Bytes of rejected packets.
    rejected_bytes: u64 = bs.rejected_bytes;
    /// CE marks applied by the admission policy.
    marks: u64 [PKT_SLACK] = bs.marks;
    /// Peak pool occupancy over the run (bytes).
    peak_occupancy_bytes: u64 = bs.peak_occupancy_bytes();
    /// Per-window peak pool occupancy series (bytes).
    occupancy: Vec<u64> = bs.occupancy.buckets_padded(now);
}

report_row! {
    /// One AQ instance's snapshot inside a [`RunReport`] section.
    #[derive(Debug, Clone)]
    pub struct AqRow, "aq", key(tag, position), capture(s: &AqSummary);
    /// AQ tag.
    tag: u32 = s.tag;
    /// `"ingress"` or `"egress"`.
    position: &'static str = s.position.label();
    /// Configured rate (bit/s).
    rate_bps: u64 = s.rate_bps;
    /// Configured AQ limit (bytes).
    limit_bytes: u64 = s.limit_bytes;
    /// Bytes that arrived at the AQ.
    arrived_bytes: u64 = s.arrived_bytes;
    /// Packets dropped by the AQ limit.
    limit_drops: u64 [PKT_SLACK] = s.limit_drops;
    /// CE marks applied by the AQ.
    marks: u64 [PKT_SLACK] = s.marks;
    /// Gap observations behind the max/mean.
    gap_samples: u64 = s.gap_samples;
    /// Max A-Gap carried by a forwarded packet (bytes).
    max_gap_bytes: u64 = s.max_gap_bytes;
    /// Mean A-Gap over forwarded packets (bytes).
    mean_gap_bytes: f64 = s.mean_gap_bytes;
    /// Fault-injected state wipes this AQ went through.
    wipes: u64 = s.wipes;
    /// Time from the last wipe to gap-state re-convergence (ns); 0 if
    /// never wiped, `u64::MAX` while still rebuilding.
    reconverge_ns: u64 = s.reconverge_ns;
}

report_row! {
    /// One AQ *table*'s snapshot inside a [`RunReport`] section — the
    /// serialized image of [`aq_netsim::stats::AqTableSummary`]. One row per
    /// `(switch, position)` table; empty for scenarios whose approach
    /// carries no AQ pipeline.
    #[derive(Debug, Clone)]
    pub struct TableRow, "table", key(node, position), capture(t: &AqTableSummary);
    /// Switch owning the table.
    node: u64 = t.node.0 as u64;
    /// `"ingress"` or `"egress"`.
    position: &'static str = t.position.label();
    /// Overflow-policy label (`reject_new` / `evict_idle`).
    policy: String = t.policy.to_string();
    /// Configured register budget (bytes); 0 = unbounded.
    budget_bytes: u64 = t.budget_bytes;
    /// Register bytes occupied at capture time.
    occupancy_bytes: u64 = t.occupancy_bytes;
    /// Peak register bytes occupied over the run.
    peak_bytes: u64 = t.peak_bytes;
    /// Deploy attempts refused at budget.
    rejected_deploys: u64 = t.rejected_deploys;
    /// AQs evicted to admit newer demand.
    evictions: u64 = t.evictions;
    /// Parked AQs re-admitted on a later arrival.
    readmissions: u64 = t.readmissions;
    /// Distinct AQ ids that degraded to physical-queue behavior.
    degraded_flows: u64 = t.degraded_flows;
    /// Packets forwarded (or policed) while their AQ was parked.
    degraded_pkts: u64 = t.degraded_pkts;
    /// Wire bytes of the degraded packets.
    degraded_bytes: u64 = t.degraded_bytes;
}

report_row! {
    /// One injected fault event inside a [`RunReport`] section. The whole
    /// row is its identity: a fault is when, what and where.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultRow, "fault", key(at_ns, kind, target), capture(f: &AppliedFault);
    /// Injection time (ns).
    at_ns: u64 = f.at.as_nanos();
    /// Fault kind label (`link_down`, `aq_reset`, ...).
    kind: String = f.kind.to_string();
    /// Target id rendering (`l4`, `n9`, ...).
    target: String = f.target.clone();
}

report_row! {
    /// The fault-injection summary of one section: what was injected and
    /// what it cost, by cause. Empty/zero for fault-free runs (the section
    /// is always rendered so the artifact schema does not depend on the
    /// scenario).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FaultSummary, "faults", key(),
        capture(log: &[AppliedFault], totals: &FaultTotals);
    /// Applied fault events, in injection order.
    injected: Vec<FaultRow> = log.iter().map(FaultRow::capture).collect();
    /// Packets dropped mid-flight because their link went down.
    link_down_drops: u64 = totals.link_down_drops;
    /// Bytes dropped mid-flight because their link went down.
    link_down_dropped_bytes: u64 = totals.link_down_dropped_bytes;
    /// Packets dropped by stochastic corruption faults.
    corrupt_drops: u64 = totals.corrupt_drops;
    /// Bytes dropped by stochastic corruption faults.
    corrupt_dropped_bytes: u64 = totals.corrupt_dropped_bytes;
    /// Packets dropped at blacked-out hosts.
    pause_drops: u64 = totals.pause_drops;
    /// Bytes dropped at blacked-out hosts.
    pause_dropped_bytes: u64 = totals.pause_dropped_bytes;
}

/// The nested `injected` table of [`FaultSummary`]: an array of row
/// objects in `report.json`, compared row by row.
impl Cell for Vec<FaultRow> {
    const IN_CSV: bool = false;
    fn json(&self, out: &mut String) {
        rows_json(self, out);
    }
    fn csv(&self, _out: &mut String) {}
    fn parse(obj: &Json, key: &str, ctx: &str) -> Result<Self, String> {
        parse_rows(obj, key, ctx)
    }
    fn diff<S: DiffSink>(&self, cur: &Self, _row: &str, _col: &Column, sink: &mut S) {
        diff_rows(self, cur, sink);
    }
}

/// One labelled capture: the full hub state at one point of the run.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Harness-chosen label (e.g. the parameter-axis value of this row).
    pub label: String,
    /// Simulation time at capture (ns).
    pub now_ns: u64,
    /// Events processed at capture.
    pub events: u64,
    /// Jain fairness index over entity goodputs.
    pub jain_goodput: f64,
    /// Entity rows, in entity-id order.
    pub entities: Vec<EntityRow>,
    /// Port rows, in port-id order.
    pub ports: Vec<PortRow>,
    /// Shared-buffer pool rows, in node-id order (empty when no switch
    /// carries a pool).
    pub buffers: Vec<BufferRow>,
    /// AQ rows, in (tag, position) order.
    pub aqs: Vec<AqRow>,
    /// AQ table rows, in (node, position) order (empty when no switch
    /// runs an AQ pipeline).
    pub tables: Vec<TableRow>,
    /// Fault-injection summary (empty for fault-free captures).
    pub faults: FaultSummary,
    /// Harness-defined scalar metrics (model-only harnesses like the
    /// scalability example), in harness-chosen order.
    pub metrics: Vec<(String, f64)>,
}

impl Section {
    fn render_json(&self, j: &mut String) {
        let _ = write!(
            j,
            "{{\"label\":{},\"now_ns\":{},\"events\":{},\"jain_goodput\":{:.6},\"entities\":",
            json::escape(&self.label),
            self.now_ns,
            self.events,
            self.jain_goodput
        );
        rows_json(&self.entities, j);
        j.push_str(",\"ports\":");
        rows_json(&self.ports, j);
        j.push_str(",\"buffers\":");
        rows_json(&self.buffers, j);
        j.push_str(",\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(j, "{}:{v:.6}", json::escape(k));
        }
        j.push_str("},\"aqs\":");
        rows_json(&self.aqs, j);
        j.push_str(",\"tables\":");
        rows_json(&self.tables, j);
        j.push_str(",\"faults\":");
        self.faults.json(j);
        j.push('}');
    }

    fn parse(s: &Json) -> Result<Section, String> {
        let ctx = "section";
        Ok(Section {
            label: s.field("label", ctx)?,
            now_ns: s.field("now_ns", ctx)?,
            events: s.field("events", ctx)?,
            jain_goodput: s.field("jain_goodput", ctx)?,
            entities: parse_rows(s, "entities", ctx)?,
            ports: parse_rows(s, "ports", ctx)?,
            buffers: parse_rows(s, "buffers", ctx)?,
            aqs: parse_rows(s, "aqs", ctx)?,
            tables: parse_rows(s, "tables", ctx)?,
            faults: FaultSummary::parse(s.member("faults", ctx)?)?,
            metrics: s
                .obj_field("metrics", ctx)?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("section: metric `{k}` is not a number"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// Field-by-field comparison against the same section of another
    /// report: section scalars, every table row by its key (a row on one
    /// side only is a `<row>` difference), series bucket by bucket, and
    /// scalar metrics by key.
    pub fn diff<S: DiffSink>(&self, cur: &Section, sink: &mut S) {
        if self.now_ns != cur.now_ns {
            let (b, c) = (self.now_ns.to_string(), cur.now_ns.to_string());
            sink.differs("", "now_ns", b, c);
        }
        let (b, c) = (self.events as f64, cur.events as f64);
        diff_num("", "events", 0.0, b, c, sink);
        let (b, c) = (self.jain_goodput, cur.jain_goodput);
        diff_num("", "jain_goodput", 0.0, b, c, sink);
        diff_rows(&self.entities, &cur.entities, sink);
        diff_rows(&self.ports, &cur.ports, sink);
        diff_rows(&self.buffers, &cur.buffers, sink);
        diff_rows(&self.aqs, &cur.aqs, sink);
        diff_rows(&self.tables, &cur.tables, sink);
        self.faults
            .diff_cells(&cur.faults, FaultSummary::LABEL, sink);
        for (k, bv) in &self.metrics {
            let row = format!("metric {k}");
            match cur.metrics.iter().find(|(ck, _)| ck == k) {
                Some((_, cv)) => diff_num(&row, k, 0.0, *bv, *cv, sink),
                None => sink.differs(&row, "<row>", f6(*bv), "absent".into()),
            }
        }
        for (k, cv) in &cur.metrics {
            if !self.metrics.iter().any(|(bk, _)| bk == k) {
                sink.differs(&format!("metric {k}"), "<row>", "absent".into(), f6(*cv));
            }
        }
    }
}

/// A structured, deterministic artifact of one harness run.
///
/// Every sweep run and example builds one `RunReport`, [`capture`]s the
/// `StatsHub` once per configuration it runs (one [`Section`] each), and
/// [`write`]s the result under `target/run_reports/<name>/` as
/// `report.json` + `entities.csv` + `ports.csv` + `aqs.csv`.
///
/// All rows come from `BTreeMap` iteration and all floats are printed with
/// fixed precision, so two same-seed runs produce byte-identical files —
/// the determinism e2e test digests the rendered bytes.
///
/// [`capture`]: RunReport::capture
/// [`write`]: RunReport::write
#[derive(Debug, Clone)]
pub struct RunReport {
    name: String,
    sections: Vec<Section>,
}

impl RunReport {
    /// An empty report; `name` becomes the artifact directory name.
    pub fn new(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            sections: Vec::new(),
        }
    }

    /// The artifact name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Captured sections, in capture order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Capture the current state of a simulation as one section.
    ///
    /// First walks every switch's pipelines and exports any
    /// [`AqPipeline`]'s AQ summaries into the hub (idempotent), then
    /// snapshots entity/port/AQ rows.
    pub fn capture(&mut self, label: &str, sim: &mut Simulator) {
        for n in 0..sim.net.nodes.len() {
            let pipes = match &sim.net.nodes[n].kind {
                NodeKind::Switch { pipelines, .. } => pipelines.len(),
                NodeKind::Host { .. } => 0,
            };
            for i in 0..pipes {
                if let Some(pipe) = sim.net.pipeline_mut::<AqPipeline>(NodeId::from(n), i) {
                    pipe.export_stats(NodeId::from(n), &mut sim.stats);
                }
            }
        }
        let faults = FaultSummary::capture(sim.fault_log(), sim.fault_totals());
        self.capture_hub_faults(label, sim.now(), sim.processed_events, &sim.stats, faults);
    }

    /// Capture from a bare [`StatsHub`] (harnesses that run AQ tables or
    /// resource models without a simulator). The section's fault summary
    /// is empty — only [`capture`](RunReport::capture) sees a simulator's
    /// fault log.
    pub fn capture_hub(&mut self, label: &str, now: Time, events: u64, hub: &StatsHub) {
        self.capture_hub_faults(label, now, events, hub, FaultSummary::default());
    }

    fn capture_hub_faults(
        &mut self,
        label: &str,
        now: Time,
        events: u64,
        hub: &StatsHub,
        faults: FaultSummary,
    ) {
        let entities: Vec<EntityRow> = hub
            .entities()
            .map(|(e, es)| {
                let (mut flows, mut done) = (0u64, 0u64);
                for (_, rec) in hub.flows().filter(|(_, r)| r.entity == e) {
                    flows += 1;
                    done += u64::from(rec.end.is_some());
                }
                EntityRow::capture(e, es, (flows, done), hub.entity_completion(e), now)
            })
            .collect();
        let goodputs: Vec<f64> = entities.iter().map(|e| e.goodput_gbps).collect();
        self.sections.push(Section {
            label: label.to_string(),
            now_ns: now.as_nanos(),
            events,
            jain_goodput: jain_index(&goodputs),
            entities,
            ports: (hub.ports())
                .map(|(p, ps)| PortRow::capture(p, ps, now))
                .collect(),
            buffers: (hub.pools())
                .map(|(n, bs)| BufferRow::capture(n, bs, now))
                .collect(),
            aqs: hub.aq_summaries().map(AqRow::capture).collect(),
            tables: hub.table_summaries().map(TableRow::capture).collect(),
            faults,
            metrics: Vec::new(),
        });
    }

    /// Capture a section of harness-defined scalar metrics — the path for
    /// model-only harnesses (resource accounting, memory scaling, measure-
    /// function cycles) with no hub to snapshot. Order is preserved.
    pub fn capture_metrics(&mut self, label: &str, metrics: &[(&str, f64)]) {
        self.sections.push(Section {
            label: label.to_string(),
            jain_goodput: 1.0,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..Section::default()
        });
    }

    /// Render all artifact files as `(filename, contents)` pairs:
    /// `report.json`, `entities.csv`, `ports.csv`, `buffers.csv`,
    /// `aqs.csv`, `tables.csv`, `metrics.csv`.
    pub fn render(&self) -> Vec<(&'static str, String)> {
        vec![
            ("report.json", self.render_json()),
            ("entities.csv", self.render_entities_csv()),
            ("ports.csv", self.render_ports_csv()),
            ("buffers.csv", self.render_buffers_csv()),
            ("aqs.csv", self.render_aqs_csv()),
            ("tables.csv", self.render_tables_csv()),
            ("metrics.csv", self.render_metrics_csv()),
        ]
    }

    /// The full report as deterministic JSON.
    pub fn render_json(&self) -> String {
        let mut j = String::new();
        let _ = write!(j, "{{\"name\":{},\"sections\":[", json::escape(&self.name));
        for (si, s) in self.sections.iter().enumerate() {
            if si > 0 {
                j.push(',');
            }
            s.render_json(&mut j);
        }
        j.push_str("]}\n");
        j
    }

    /// Per-entity rows as CSV (one row per section × entity).
    fn render_entities_csv(&self) -> String {
        rows_csv(&self.sections, |s| &s.entities)
    }

    /// Per-port rows as CSV (one row per section × port).
    fn render_ports_csv(&self) -> String {
        rows_csv(&self.sections, |s| &s.ports)
    }

    /// Per-pool rows as CSV (one row per section × shared-buffer pool).
    fn render_buffers_csv(&self) -> String {
        rows_csv(&self.sections, |s| &s.buffers)
    }

    /// Per-AQ rows as CSV (one row per section × AQ).
    pub fn render_aqs_csv(&self) -> String {
        rows_csv(&self.sections, |s| &s.aqs)
    }

    /// Per-table rows as CSV (one row per section × AQ table).
    fn render_tables_csv(&self) -> String {
        rows_csv(&self.sections, |s| &s.tables)
    }

    /// Harness-defined scalar metrics as CSV (one row per section × key).
    pub fn render_metrics_csv(&self) -> String {
        let mut c = String::from("section,key,value\n");
        for s in &self.sections {
            for (k, v) in &s.metrics {
                let _ = writeln!(
                    c,
                    "{},{},{v:.6}",
                    crate::csv::quote(&s.label),
                    crate::csv::quote(k)
                );
            }
        }
        c
    }

    /// Write all artifact files under `target/run_reports/<name>/` and
    /// print the directory. Returns the directory path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = self.write_to(&PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/run_reports"
        )))?;
        println!("  run report: target/run_reports/{}/", self.name);
        Ok(dir)
    }

    /// Write all artifact files under `<base>/<name>/` and return that
    /// directory. The sweep harness gives every `(scenario, params, seed)`
    /// run its own base, so parallel runs never collide on the shared
    /// `target/run_reports/<name>/` location that [`write`] uses.
    ///
    /// [`write`]: RunReport::write
    pub fn write_to(&self, base: &Path) -> std::io::Result<PathBuf> {
        let dir = base.join(&self.name);
        std::fs::create_dir_all(&dir)?;
        for (file, contents) in self.render() {
            std::fs::write(dir.join(file), contents)?;
        }
        Ok(dir)
    }

    /// Parse the `report.json` rendering back into a [`RunReport`] — the
    /// read side of [`render_json`], used by the regression gate to load
    /// committed baselines. Round-trip is exact: floats are fixed-precision
    /// in the artifact, so `parse_json(r.render_json()).render_json()`
    /// reproduces the input bytes. A section table that is not an array is
    /// an error, never "zero rows".
    ///
    /// [`render_json`]: RunReport::render_json
    pub fn parse_json(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let ctx = "report.json";
        Ok(RunReport {
            name: doc.field("name", ctx)?,
            sections: (doc.arr_field("sections", ctx)?.iter())
                .map(Section::parse)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parse the `metrics.csv` rendering back into per-section
    /// `(label, key, value)` rows — the read side of
    /// [`render_metrics_csv`].
    ///
    /// [`render_metrics_csv`]: RunReport::render_metrics_csv
    pub fn parse_metrics_csv(text: &str) -> Result<Vec<(String, String, f64)>, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("section,key,value") => {}
            other => return Err(format!("metrics.csv: bad header {other:?}")),
        }
        let mut rows = Vec::new();
        for (i, line) in lines.enumerate() {
            let cols = crate::csv::split_record(line)
                .map_err(|e| format!("metrics.csv row {}: {e}", i + 2))?;
            let [section, key, value] = match cols.as_slice() {
                [s, k, v] => [s, k, v],
                _ => return Err(format!("metrics.csv row {}: expected 3 columns", i + 2)),
            };
            let value: f64 = value
                .parse()
                .map_err(|_| format!("metrics.csv row {}: bad value `{value}`", i + 2))?;
            rows.push((section.clone(), key.clone(), value));
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_netsim::ids::{EntityId, FlowId, PortId};

    fn sample_hub() -> StatsHub {
        let mut hub = StatsHub::new();
        hub.on_delivery(Time::from_millis(2), EntityId(1), 3000, 500, 100);
        hub.on_drop(EntityId(1));
        hub.register_flow(FlowId(1), EntityId(1), 3000, Time::ZERO);
        hub.flow_completed(FlowId(1), Time::from_millis(2));
        hub.on_port_enqueue(Time::from_millis(1), NodeId(0), PortId(4), 1000, 1000, 0);
        hub.on_port_dequeue(Time::from_millis(2), NodeId(0), PortId(4), 1000, 0);
        hub.on_port_tx(NodeId(0), PortId(4), 1000);
        hub.on_pool_sample(
            Time::from_millis(1),
            NodeId(0),
            "dt",
            150_000,
            2120,
            1,
            1060,
            2,
        );
        hub
    }

    #[test]
    fn report_bytes_are_stable_across_identical_captures() {
        let hub = sample_hub();
        let render = |hub: &StatsHub| {
            let mut r = RunReport::new("unit");
            r.capture_hub("row1", Time::from_millis(10), 42, hub);
            r.render()
                .into_iter()
                .map(|(_, c)| c)
                .collect::<Vec<_>>()
                .join("\x1e")
        };
        assert_eq!(render(&hub), render(&hub));
    }

    #[test]
    fn csv_row_counts_match_sections() {
        let hub = sample_hub();
        let mut r = RunReport::new("unit");
        r.capture_hub("a", Time::from_millis(10), 1, &hub);
        r.capture_hub("b", Time::from_millis(10), 2, &hub);
        // header + 2 sections x 1 entity.
        assert_eq!(r.render_entities_csv().lines().count(), 3);
        assert_eq!(r.render_ports_csv().lines().count(), 3);
        let s = r.sections();
        assert_eq!(s.len(), 2);
        assert!(s[0].ports[0].conserves);
        assert_eq!(s[0].entities[0].flows_completed, 1);
    }

    #[test]
    fn every_table_captures_its_rows_and_round_trips_through_json() {
        use aq_netsim::stats::AqTableSummary;
        let mut hub = sample_hub();
        hub.record_table_summary(AqTableSummary {
            node: NodeId(0),
            position: AqPosition::Ingress,
            policy: "reject_new",
            budget_bytes: 105,
            occupancy_bytes: 105,
            peak_bytes: 105,
            rejected_deploys: 7,
            evictions: 0,
            readmissions: 0,
            degraded_flows: 2,
            degraded_pkts: 40,
            degraded_bytes: 42_400,
        });
        hub.record_table_summary(AqTableSummary {
            node: NodeId(0),
            position: AqPosition::Egress,
            policy: "evict_idle",
            budget_bytes: 0,
            occupancy_bytes: 45,
            peak_bytes: 60,
            rejected_deploys: 0,
            evictions: 3,
            readmissions: 3,
            degraded_flows: 0,
            degraded_pkts: 0,
            degraded_bytes: 0,
        });
        let mut r = RunReport::new("unit");
        r.capture_hub("row1", Time::from_millis(10), 42, &hub);
        r.capture_metrics("model", &[("stages_pct", 16.7), ("maus_pct", 12.5)]);
        // capture() fills the fault summary from the simulator; here the
        // serializer is exercised directly.
        let fault = |at_ns, kind: &str, target: &str| FaultRow {
            at_ns,
            kind: kind.to_string(),
            target: target.to_string(),
        };
        r.sections[0].faults = FaultSummary {
            injected: vec![
                fault(1_000_000, "link_down", "l4"),
                fault(2_000_000, "aq_reset", "n0"),
            ],
            link_down_drops: 3,
            link_down_dropped_bytes: 4500,
            corrupt_drops: 1,
            corrupt_dropped_bytes: 1500,
            pause_drops: 2,
            pause_dropped_bytes: 3000,
        };

        let s = &r.sections()[0];
        assert_eq!(s.buffers.len(), 1);
        assert_eq!(s.buffers[0].policy, "dt");
        assert_eq!(s.buffers[0].capacity_bytes, 150_000);
        assert_eq!(s.buffers[0].occupancy_bytes, 2120);
        assert_eq!(s.buffers[0].shared_rejects, 1);
        assert_eq!(s.buffers[0].peak_occupancy_bytes, 2120);
        assert_eq!(s.buffers[0].occupancy.len(), 1, "padded to 10 ms horizon");
        assert_eq!(s.tables.len(), 2);
        assert_eq!(s.tables[0].position, "ingress");
        assert_eq!(s.tables[0].policy, "reject_new");
        assert_eq!(s.tables[0].degraded_bytes, 42_400);
        assert_eq!(s.tables[1].position, "egress");
        assert_eq!(s.tables[1].evictions, 3);
        // header + one row per (section, pool) and (section, table).
        assert_eq!(r.render_buffers_csv().lines().count(), 2);
        assert_eq!(r.render_tables_csv().lines().count(), 3);

        let rendered = r.render_json();
        let parsed = RunReport::parse_json(&rendered).expect("parse back");
        assert_eq!(parsed.name(), r.name());
        assert_eq!(parsed.sections().len(), 2);
        let p = &parsed.sections()[0];
        assert_eq!(p.buffers.len(), 1);
        assert_eq!(p.tables.len(), 2);
        assert_eq!(p.tables[0].rejected_deploys, 7);
        assert_eq!(p.faults, s.faults);
        assert_eq!(parsed.render_json(), rendered, "round-trip bytes differ");
    }

    #[test]
    fn metrics_csv_round_trip() {
        let mut r = RunReport::new("unit");
        r.capture_metrics("model", &[("a", 1.0), ("b", -2.25)]);
        let rows = RunReport::parse_metrics_csv(&r.render_metrics_csv()).expect("parse");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "model");
        assert_eq!(rows[0].1, "a");
        assert!((rows[1].2 + 2.25).abs() < 1e-12);
        assert!(RunReport::parse_metrics_csv("bad,header\n").is_err());
    }

    #[test]
    fn metrics_csv_round_trips_comma_bearing_labels() {
        // Sweep sections are labelled with canonical param strings, which
        // contain commas (`b_flows=2,horizon_ms=5`); the CSV round-trip
        // must keep such a label as one field.
        let label = "b_flows=2,horizon_ms=5";
        let mut r = RunReport::new("unit");
        r.capture_metrics(label, &[("jain_goodput", 0.97)]);
        let csv = r.render_metrics_csv();
        assert!(
            csv.contains("\"b_flows=2,horizon_ms=5\""),
            "comma-bearing label must be quoted on write: {csv}"
        );
        let rows = RunReport::parse_metrics_csv(&csv).expect("quoted label parses");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, label);
        assert_eq!(rows[0].1, "jain_goodput");
        // The other per-section CSVs quote the same label field.
        let hub = sample_hub();
        let mut r2 = RunReport::new("unit");
        r2.capture_hub(label, Time::from_millis(10), 1, &hub);
        for csv in [r2.render_entities_csv(), r2.render_ports_csv()] {
            assert!(
                csv.contains("\"b_flows=2,horizon_ms=5\""),
                "label unquoted in: {csv}"
            );
        }
    }

    #[test]
    fn capture_pads_series_to_the_capture_horizon() {
        // sample_hub records its last entity delivery at 2 ms and its last
        // port event at 2 ms; a capture at 50 ms must still produce series
        // spanning all five 10 ms windows, with explicit zero tails.
        let hub = sample_hub();
        let mut r = RunReport::new("unit");
        r.capture_hub("pad", Time::from_millis(50), 1, &hub);
        let s = &r.sections()[0];
        assert_eq!(s.entities[0].rate_series_bps.len(), 5);
        assert_eq!(s.ports[0].occupancy.len(), 5);
        assert_eq!(s.entities[0].rate_series_bps[4], 0.0);
        assert_eq!(s.ports[0].occupancy[4], 0);
    }

    #[test]
    fn parse_json_rejects_malformed_reports() {
        assert!(RunReport::parse_json("{}").is_err());
        assert!(RunReport::parse_json("{\"name\":\"x\"}").is_err());
        assert!(RunReport::parse_json("not json").is_err());
    }

    #[test]
    fn a_table_that_is_not_an_array_is_an_error_not_zero_rows() {
        let hub = sample_hub();
        let mut r = RunReport::new("unit");
        r.capture_hub("row1", Time::from_millis(10), 42, &hub);
        let rendered = r.render_json();
        for (table, not_an_array) in [
            ("entities", "null"),
            ("ports", "null"),
            ("buffers", "7"),
            ("aqs", "{}"),
            ("tables", "\"none\""),
        ] {
            let key = format!("\"{table}\":[");
            let start = rendered.find(&key).expect("table present") + key.len() - 1;
            // None of the sample rows nests an array of objects, so the
            // table ends at the first `]` followed by `,"`.
            let end = start + rendered[start..].find("],\"").expect("table end") + 1;
            let broken = format!("{}{not_an_array}{}", &rendered[..start], &rendered[end..]);
            assert_eq!(
                RunReport::parse_json(&broken).expect_err("must not parse as zero rows"),
                format!("section: `{table}` is not an array"),
            );
        }
    }

    #[test]
    fn every_drop_cause_is_a_ports_column_rendered_in_json_and_csv() {
        use aq_netsim::queue::DropCause;
        let (n, p) = (NodeId(0), PortId(4));
        for &cause in DropCause::ALL {
            let mut hub = StatsHub::new();
            match cause {
                DropCause::LinkDown | DropCause::Corrupt => {
                    hub.on_wire_drop(n, p, 100, cause, false);
                }
                _ => hub.on_port_queue_drop(n, p, 100, cause),
            }
            let mut r = RunReport::new("unit");
            r.capture_hub("c", Time::from_millis(10), 1, &hub);
            let name = cause.counter();
            assert!(
                PortRow::COLUMNS.iter().any(|c| c.name == name && c.csv),
                "DropCause::{cause:?} counts into `{name}`, which is not a ports column"
            );
            let doc = json::parse(&r.render_json()).expect("parses");
            let port = &doc.arr_field("sections", "doc").expect("sections")[0]
                .arr_field("ports", "section")
                .expect("ports")[0];
            let csv = r.render_ports_csv();
            let mut lines = csv
                .lines()
                .map(|l| crate::csv::split_record(l).expect("csv"));
            let (header, row) = (lines.next().expect("header"), lines.next().expect("row"));
            for &other in DropCause::ALL {
                let want = u64::from(other == cause);
                let col = other.counter();
                assert_eq!(
                    port.field::<u64>(col, "port"),
                    Ok(want),
                    "{cause:?} in JSON"
                );
                let at = header.iter().position(|h| h == col).expect("CSV column");
                assert_eq!(row[at], want.to_string(), "{cause:?} in CSV `{col}`");
            }
        }
    }
}
