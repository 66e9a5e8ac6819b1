//! Metrics from a run's record: printed by name with unit and sample
//! count, and as the closing JSON line.

use crate::closed_loop::{ns_per_entry_rank, Record};
use crate::layers::LinearityRow;
use crate::stats::{mean, percentile, small_median, Quantile, MIN_BEYOND, P50, P90};
use crate::trace::Tracer;
use crate::workload::{Spec, Workload};

/// Least share of a traced tick its in-band child spans (the SUT calls)
/// must cover for the layer accounting to reconcile; the rest is the
/// generator's own time inside the tick.
pub const COVERAGE_TOLERANCE: f64 = 0.10;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples it rests on (`None` for counters and ratios of totals).
    pub n: Option<usize>,
    /// Part of the JSON result (declared in `BENCHMARK.json`), or
    /// printed only.
    pub in_json: bool,
}

struct Out(Vec<Metric>);

impl Out {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64, n: Option<usize>) {
        self.0.push(Metric {
            name,
            unit,
            value,
            n,
            in_json: true,
        });
    }

    /// A figure printed beside the declared ones but not part of the
    /// JSON result (it does not apply to every workload, or it is zero
    /// on a healthy run).
    fn print_only(&mut self, name: &'static str, unit: &'static str, value: f64, n: Option<usize>) {
        self.0.push(Metric {
            name,
            unit,
            value,
            n,
            in_json: false,
        });
    }

    /// A printed p90, or a note that the kept samples cannot back one.
    fn tail(&mut self, name: &'static str, samples: &[f64]) {
        match percentile(samples, P90) {
            Ok(p) => self.print_only(name, "ms", p.value, Some(p.n)),
            Err(_) => self.print_only(name, "ms", f64::NAN, Some(samples.len())),
        }
    }

    fn pct(
        &mut self,
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        q: Quantile,
        scale: f64,
    ) -> Result<(), String> {
        let p = percentile(samples, q).map_err(|e| format!("{name}: {e}"))?;
        self.add(name, unit, p.value * scale, Some(p.n));
        Ok(())
    }
}

fn guarded(name: &str, samples: &[f64]) -> Result<f64, String> {
    percentile(samples, P50)
        .map(|p| p.value)
        .map_err(|e| format!("{name}: {e}"))
}

/// The end-to-end figures of an untraced run.
pub fn end_to_end(rec: &Record, spec: &Spec) -> Result<Vec<Metric>, String> {
    let mut out = Out(Vec::new());
    let setup = small_median(&rec.setups_s).ok_or("no set-up ran")?;
    out.add("setup_s", "s", setup, Some(rec.setups_s.len()));
    if rec.ingest_flush_s <= 0.0 {
        return Err("no timed tick ran".to_string());
    }
    out.add(
        "slices_per_s",
        "1/s",
        rec.slices as f64 / rec.ingest_flush_s,
        Some(rec.ticks_ms.len() + rec.traced_ticks_ms.len()),
    );
    // The p90s are printed, not declared: on a shared two-core host the
    // tail belongs to the neighbours, and across seeds it spreads by a
    // third of its median even after the interference filter.
    out.pct("tick_p50_ms", "ms", &rec.ticks_ms, P50, 1.0)?;
    out.tail("tick_p90_ms", &rec.ticks_ms);
    out.pct("latest_p50_ms", "ms", &rec.latest_ms, P50, 1.0)?;
    out.tail("latest_p90_ms", &rec.latest_ms);
    out.pct("forecast_p50_ms", "ms", &rec.forecast_ms, P50, 1.0)?;
    out.tail("forecast_p90_ms", &rec.forecast_ms);
    out.pct("cycle_p50_ms", "ms", &rec.cycles_ms, P50, 1.0)?;
    out.add(
        "sut_cpu_ms_per_slice",
        "ms",
        rec.sut_cpu_ms / rec.slices as f64,
        Some(rec.slices as usize),
    );
    out.add("peak_rss_mb", "MB", rec.sut_hwm_kb as f64 / 1024.0, None);
    // Printed, not declared: each is a deterministic function of the
    // seed, but some streams' start-up factorization absorbs outliers
    // and some does not, so from seed to seed the means move by a
    // quarter on `paper-nyc` and `slot-migrate`.
    let impute = mean(&rec.impute_nre).ok_or("no Latest read was scored")?;
    out.print_only("impute_nre", "ratio", impute, Some(rec.impute_nre.len()));
    let forecast = mean(&rec.forecast_nre).ok_or("no Forecast read was scored")?;
    out.print_only(
        "forecast_nre",
        "ratio",
        forecast,
        Some(rec.forecast_nre.len()),
    );
    if spec.workload == Workload::SlotMigrate {
        let p = percentile(&rec.migrate_ms, P50).map_err(|e| format!("migrate_p50_ms: {e}"))?;
        out.print_only("migrate_p50_ms", "ms", p.value, Some(p.n));
        out.tail("migrate_p90_ms", &rec.migrate_ms);
    }
    out.print_only(
        "fail_ratio",
        "ratio",
        fail_count(rec) as f64 / rec.attempted.max(1) as f64,
        Some(rec.attempted as usize),
    );
    Ok(out.0)
}

/// Failed or refused operations: typed errors, backpressure hand-backs
/// and the SUT's decode errors over the timed phase.
pub fn fail_count(rec: &Record) -> u64 {
    rec.failed + rec.decode_errors
}

/// Per-id difference `a − b` (µs) of two span families.
fn paired_diff_us(tr: &Tracer, a: &str, b: &str) -> Vec<f64> {
    let b = tr.sum_by_id(b);
    tr.sum_by_id(a)
        .into_iter()
        .filter_map(|(id, x)| b.get(&id).map(|y| (x as f64 - *y as f64) / 1e3))
        .collect()
}

/// The per-layer figures of a traced run.
pub fn per_layer(
    rec: &Record,
    spec: &Spec,
    linearity: &[LinearityRow],
) -> Result<Vec<Metric>, String> {
    let tr = rec.tracer.as_ref().ok_or("not a traced run")?;
    let replay = rec.replay.as_ref().ok_or("not a traced run")?;
    let c = rec.counters.as_ref().ok_or("no SUT counters")?;
    let mut out = Out(Vec::new());
    let med = |name: &str| guarded(name, &tr.durations_us(name));

    // core
    let init = mean(&rec.init_ms).ok_or("no init ran")?;
    out.add("core.init_ms", "ms", init, Some(rec.init_ms.len()));
    let update = med("core.update")?;
    let step = med("core.step")?;
    let probe = med("core.probe")?;
    let n_slices = tr.durations_us("core.update").len();
    out.add("core.update_us", "us", update, Some(n_slices));
    out.add("core.step_us", "us", step, Some(n_slices));
    let recon = paired_diff_us(tr, "core.step", "core.update");
    out.add(
        "core.recon_us",
        "us",
        guarded("core.recon", &recon)?,
        Some(recon.len()),
    );
    out.add("core.probe_us", "us", probe, Some(n_slices));
    out.pct(
        "core.forecast_us",
        "us",
        &tr.durations_us("core.forecast"),
        P50,
        1.0,
    )?;
    out.pct(
        "core.snapshot_us",
        "us",
        &tr.durations_us("core.snapshot"),
        P50,
        1.0,
    )?;
    out.pct(
        "core.restore_us",
        "us",
        &tr.durations_us("core.restore"),
        P50,
        1.0,
    )?;
    let observed: Vec<f64> = replay.observed.iter().map(|&(_, o)| o as f64).collect();
    out.add(
        "core.observed_per_slice",
        "count",
        mean(&observed).ok_or("no traced slice")?,
        Some(observed.len()),
    );
    let update_ns = tr.sum_by_id("core.update");
    let order = spec.dims.len() + 1;
    let unit_costs: Vec<f64> = replay
        .observed
        .iter()
        .filter_map(|&(id, obs)| {
            update_ns
                .get(&id)
                .map(|&ns| ns_per_entry_rank(ns as f64, obs, order, spec.rank))
        })
        .collect();
    out.pct("core.ns_per_entry_rank", "ns", &unit_costs, P50, 1.0)?;
    out.add(
        "core.serve_over_update",
        "ratio",
        (step + probe) / update,
        None,
    );
    let per_unit: Vec<f64> = linearity.iter().map(|r| r.ns_per_entry_rank).collect();
    let max = per_unit.iter().cloned().fold(f64::MIN, f64::max);
    let min = per_unit.iter().cloned().fold(f64::MAX, f64::min);
    out.add(
        "core.fig7_max_over_min",
        "ratio",
        max / min,
        Some(per_unit.len()),
    );

    // fleet: the in-process replica, plus the SUT's own counters
    out.pct(
        "fleet.enqueue_us",
        "us",
        &tr.durations_us("fleet.enqueue"),
        P50,
        1.0,
    )?;
    out.pct(
        "fleet.tick_ms",
        "ms",
        &tr.durations_us("fleet.tick"),
        P50,
        1e-3,
    )?;
    out.pct(
        "fleet.latest_us",
        "us",
        &tr.durations_us("fleet.latest"),
        P50,
        1.0,
    )?;
    out.pct(
        "fleet.forecast_us",
        "us",
        &tr.durations_us("fleet.forecast"),
        P50,
        1.0,
    )?;
    let (fb, fa) = (&c.fleet_before, &c.fleet_after);
    let (lb, la) = (fb.ingest_latency(), fa.ingest_latency());
    let steps = la.count() - lb.count();
    out.add(
        "fleet.step_mean_us",
        "us",
        (la.moments().sum() - lb.moments().sum()) / steps.max(1) as f64,
        Some(steps as usize),
    );
    let batches: u64 = fa.shards.iter().map(|s| s.batches).sum::<u64>()
        - fb.shards.iter().map(|s| s.batches).sum::<u64>();
    out.add(
        "fleet.slices_per_batch",
        "count",
        (fa.steps() - fb.steps()) as f64 / batches.max(1) as f64,
        None,
    );
    let max_batch = fa.shards.iter().map(|s| s.max_batch).max().unwrap_or(0);
    out.add("fleet.max_batch", "count", max_batch as f64, None);
    let round_trips = fa.query_batches() - fb.query_batches();
    out.add(
        "fleet.queries_per_round_trip",
        "count",
        (fa.queries().total() - fb.queries().total()) as f64 / round_trips.max(1) as f64,
        None,
    );
    out.add(
        "fleet.dropped",
        "count",
        (fa.dropped() - fb.dropped()) as f64,
        None,
    );
    out.add(
        "fleet.backpressure_retries",
        "count",
        replay.handbacks as f64,
        None,
    );

    // wire: the run's real payloads through the codec
    out.pct("wire.ingest_bytes", "B", &replay.ingest_bytes, P50, 1.0)?;
    out.pct(
        "wire.ingest_encode_us",
        "us",
        &tr.durations_us("wire.ingest_encode"),
        P50,
        1.0,
    )?;
    out.pct(
        "wire.ingest_decode_us",
        "us",
        &tr.durations_us("wire.ingest_decode"),
        P50,
        1.0,
    )?;
    out.pct("wire.latest_bytes", "B", &replay.latest_bytes, P50, 1.0)?;
    out.pct(
        "wire.latest_encode_us",
        "us",
        &tr.durations_us("wire.latest_encode"),
        P50,
        1.0,
    )?;
    out.pct(
        "wire.latest_decode_us",
        "us",
        &tr.durations_us("wire.latest_decode"),
        P50,
        1.0,
    )?;
    out.pct("wire.forecast_bytes", "B", &replay.forecast_bytes, P50, 1.0)?;
    out.pct(
        "wire.forecast_encode_us",
        "us",
        &tr.durations_us("wire.forecast_encode"),
        P50,
        1.0,
    )?;
    out.pct(
        "wire.forecast_decode_us",
        "us",
        &tr.durations_us("wire.forecast_decode"),
        P50,
        1.0,
    )?;
    out.pct(
        "wire.batch_reply_bytes",
        "B",
        &replay.batch_reply_bytes,
        P50,
        1.0,
    )?;

    // net: client-side round trips and self times, SUT NetStats deltas
    out.pct(
        "net.ingest_rtt_us",
        "us",
        &tr.durations_us("net.ingest"),
        P50,
        1.0,
    )?;
    let ingest_self = tr.self_times_us("net.ingest");
    out.pct("net.ingest_self_us", "us", &ingest_self, P50, 1.0)?;
    out.pct(
        "net.flush_ms",
        "ms",
        &tr.durations_us("net.flush"),
        P50,
        1e-3,
    )?;
    out.pct(
        "net.latest_rtt_us",
        "us",
        &tr.durations_us("net.latest"),
        P50,
        1.0,
    )?;
    out.pct(
        "net.latest_self_us",
        "us",
        &tr.self_times_us("net.latest"),
        P50,
        1.0,
    )?;
    out.pct(
        "net.forecast_rtt_us",
        "us",
        &tr.durations_us("net.forecast"),
        P50,
        1.0,
    )?;
    let (nb, na) = (&c.net_before, &c.net_after);
    let frames = na.frames_decoded - nb.frames_decoded;
    out.add("net.frames", "count", frames as f64, None);
    out.add(
        "net.polls_per_frame",
        "ratio",
        (na.poll_iterations - nb.poll_iterations) as f64 / frames.max(1) as f64,
        None,
    );
    out.add(
        "net.wakeups_per_frame",
        "ratio",
        (na.wakeups - nb.wakeups) as f64 / frames.max(1) as f64,
        None,
    );
    let (sb, sa) = (nb.settle_latency.moments(), na.settle_latency.moments());
    let settled = sa.count() - sb.count();
    out.add(
        "net.settle_mean_us",
        "us",
        (sa.sum() - sb.sum()) / settled.max(1) as f64,
        Some(settled as usize),
    );
    out.add(
        "net.write_highwater_bytes",
        "B",
        na.write_buffer_highwater as f64,
        None,
    );
    out.add(
        "net.read_interest_drops",
        "count",
        (na.read_interest_drops - nb.read_interest_drops) as f64,
        None,
    );
    out.add(
        "net.decode_errors",
        "count",
        (na.decode_errors - nb.decode_errors) as f64,
        None,
    );

    // durability: the same envelopes written through the checkpoint path
    out.pct(
        "durability.write_us",
        "us",
        &tr.durations_us("durability.write"),
        P50,
        1.0,
    )?;
    out.add(
        "durability.envelope_bytes",
        "B",
        mean(&replay.envelope_bytes).ok_or("no snapshot")?,
        Some(replay.envelope_bytes.len()),
    );

    // tracing itself
    let traced = guarded("traced ticks", &rec.traced_ticks_ms)?;
    let plain = guarded("untraced ticks", &rec.ticks_ms)?;
    out.add(
        "trace.overhead_pct",
        "%",
        100.0 * (traced - plain) / plain,
        Some(rec.traced_ticks_ms.len() + rec.ticks_ms.len()),
    );
    let coverage = tr.coverage("tick");
    out.pct("trace.coverage_pct", "%", &coverage, P50, 100.0)?;

    // cluster: slot-migrate only, so printed but not in the JSON
    if spec.workload == Workload::SlotMigrate {
        let p = percentile(&tr.durations_us("net.ingest"), P50).map_err(|e| e.to_string())?;
        out.print_only("cluster.ingest_rtt_us", "us", p.value, Some(p.n));
        let p = percentile(&tr.durations_us("net.flush"), P50).map_err(|e| e.to_string())?;
        out.print_only("cluster.flush_ms", "ms", p.value / 1e3, Some(p.n));
        for (span, metric) in [
            ("cluster.migrate_flush", "cluster.migrate_flush_ms"),
            ("cluster.migrate_snapshot", "cluster.migrate_snapshot_ms"),
            ("cluster.migrate_register", "cluster.migrate_register_ms"),
            ("cluster.migrate_flip", "cluster.migrate_flip_ms"),
            (
                "cluster.migrate_deregister",
                "cluster.migrate_deregister_ms",
            ),
        ] {
            let per_migration: Vec<f64> = tr
                .sum_by_id(span)
                .values()
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            let p = percentile(&per_migration, P50).map_err(|e| format!("{metric}: {e}"))?;
            out.print_only(metric, "ms", p.value, Some(p.n));
        }
        out.print_only(
            "cluster.streams_per_migration",
            "count",
            mean(&rec.streams_moved).unwrap_or(0.0),
            Some(rec.streams_moved.len()),
        );
        out.print_only("cluster.epoch_bumps", "count", rec.epoch_bumps as f64, None);
    }
    Ok(out.0)
}

/// Whether the traced tick reconciles: the SUT calls cover all but
/// [`COVERAGE_TOLERANCE`] of it, and the layers replayed beneath each
/// ingest take no longer than the ingest round trip itself.
pub fn reconciles(metrics: &[Metric]) -> (bool, String) {
    let get = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    let coverage = get("trace.coverage_pct").unwrap_or(0.0);
    let ingest_self = get("net.ingest_self_us").unwrap_or(-1.0);
    let ok = coverage >= 100.0 * (1.0 - COVERAGE_TOLERANCE) && ingest_self >= 0.0;
    let line = format!(
        "trace: SUT calls cover {coverage:.1}% of the traced tick (need >= {:.0}%); \
         ingest self time after the replayed codec and enqueue is {ingest_self:.1} us \
         (need >= 0): {}",
        100.0 * (1.0 - COVERAGE_TOLERANCE),
        if ok { "reconciled" } else { "NOT reconciled" }
    );
    (ok, line)
}

/// Renders one metric as a human line.
pub fn human_line(m: &Metric) -> String {
    let n = m.n.map_or(String::new(), |n| format!(" (n={n})"));
    if m.value.is_nan() {
        return format!(
            "metric {} unavailable: too few samples kept{n} to leave {MIN_BEYOND} beyond it",
            m.name
        );
    }
    format!("metric {} = {} {}{n}", m.name, m.value, m.unit)
}

/// The closing JSON result line, over the metrics declared in
/// `BENCHMARK.json`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::new();
    for m in metrics.iter().filter(|m| m.in_json) {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite ({})", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, value: f64, in_json: bool) -> Metric {
        Metric {
            name,
            unit: "ms",
            value,
            n: Some(3),
            in_json,
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = json_line(
            true,
            12,
            0,
            &[
                metric("tick_p50_ms", 1.25, true),
                metric("fail_ratio", 0.0, false),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"tick_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn json_line_refuses_non_finite_values() {
        assert!(json_line(true, 1, 0, &[metric("x", f64::NAN, true)]).is_err());
    }

    #[test]
    fn reconciliation_thresholds() {
        let ok = [
            metric("trace.coverage_pct", 95.0, true),
            metric("net.ingest_self_us", 3.0, true),
        ];
        assert!(reconciles(&ok).0);
        let gap = [
            metric("trace.coverage_pct", 80.0, true),
            metric("net.ingest_self_us", 3.0, true),
        ];
        assert!(!reconciles(&gap).0);
        let over = [
            metric("trace.coverage_pct", 99.0, true),
            metric("net.ingest_self_us", -1.0, true),
        ];
        assert!(!reconciles(&over).0);
    }

    #[test]
    fn human_lines_carry_unit_and_count() {
        assert_eq!(
            human_line(&metric("tick_p50_ms", 1.5, true)),
            "metric tick_p50_ms = 1.5 ms (n=3)"
        );
        assert_eq!(
            human_line(&metric("tick_p90_ms", f64::NAN, false)),
            "metric tick_p90_ms unavailable: too few samples kept (n=3) to leave 10 beyond it"
        );
    }
}
