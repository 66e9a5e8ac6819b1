//! Checkpointing: save and restore a streaming [`crate::model::Sofia`]
//! model.
//!
//! A streaming factorization service must survive restarts without
//! re-running initialization, so the full dynamic state — configuration,
//! non-temporal factors, temporal history window, per-component
//! Holt-Winters states, and the error-scale tensor — round-trips through a
//! self-describing, line-oriented text format. Floats are encoded as IEEE
//! 754 bit patterns (hex), so restore is **bit-exact**: a restored model
//! produces byte-identical outputs to the original.
//!
//! The format is versioned (`sofia-checkpoint v1`) and intentionally
//! dependency-free (no serde data format crates are pulled in).

use crate::config::SofiaConfig;
use crate::dynamic::DynamicState;
use crate::hw::HwBank;
use crate::model::Sofia;
use crate::snapshot::wire::{parse_f64s, parse_int, push_f64s, LineCursor, WireError};
use sofia_tensor::{DenseTensor, Matrix, Shape};
use sofia_timeseries::holt_winters::{HoltWinters, HwParams, HwState};
use std::fmt::Write as _;

/// The header line of the format.
const HEADER: &str = "sofia-checkpoint v1";

/// Serializes a streaming SOFIA model to the v1 text format.
pub fn save(model: &Sofia) -> String {
    let config = model.config();
    let dynamic = model.dynamic();
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');

    // --- config
    let _ = writeln!(
        out,
        "config {} {} {} {} {} {}",
        config.rank,
        config.period,
        config.init_seasons,
        config.max_als_iters,
        config.max_outer_iters,
        config.als_sweeps_per_outer
    );
    push_f64s(
        &mut out,
        "config_f",
        [
            config.lambda1,
            config.lambda2,
            config.lambda3,
            config.mu,
            config.phi,
            config.tol,
            config.lambda3_decay,
        ],
    );

    // --- non-temporal factors
    let _ = writeln!(out, "factors {}", dynamic.factors().len());
    for f in dynamic.factors() {
        let _ = writeln!(out, "factor {} {}", f.rows(), f.cols());
        push_f64s(&mut out, "data", f.data().iter().copied());
    }

    // --- temporal history window
    let history = dynamic.temporal_history();
    let _ = writeln!(out, "history {}", history.len());
    for row in &history {
        push_f64s(&mut out, "u", row.iter().copied());
    }

    // --- Holt-Winters bank
    let _ = writeln!(out, "hw {}", dynamic.hw().rank());
    for model_r in dynamic.hw().models() {
        let p = model_r.params();
        push_f64s(&mut out, "hw_params", [p.alpha, p.beta, p.gamma]);
        let st = model_r.state();
        let _ = writeln!(out, "hw_phase {}", st.phase);
        push_f64s(&mut out, "hw_level_trend", [st.level, st.trend]);
        push_f64s(&mut out, "hw_seasonal", st.seasonal.iter().copied());
    }

    // --- error-scale tensor
    let dims: Vec<String> = dynamic
        .slice_shape()
        .dims()
        .iter()
        .map(|d| d.to_string())
        .collect();
    let _ = writeln!(out, "sigma_shape {}", dims.join(" "));
    push_f64s(&mut out, "sigma", dynamic.sigma().data().iter().copied());

    let _ = writeln!(out, "steps {}", dynamic.steps());
    out
}

/// Reads the next line as `label n1 … nk`: exactly `count` integers,
/// each after one space and in the dialect's one spelling.
fn ints(cur: &mut LineCursor<'_>, label: &str, count: usize) -> Result<Vec<usize>, WireError> {
    let values: Vec<usize> = cur
        .field(label)?
        .split(' ')
        .map(|tok| parse_int(tok, label))
        .collect::<Result<_, _>>()?;
    if values.len() != count {
        return Err(WireError::new(format!("`{label}` needs {count} integers")));
    }
    Ok(values)
}

/// Reads the next line as `label n`.
fn int(cur: &mut LineCursor<'_>, label: &str) -> Result<usize, WireError> {
    Ok(ints(cur, label, 1)?[0])
}

/// Restores a streaming SOFIA model from the v1 text format.
///
/// The init-phase tensors (`X̂_init`, `O_init`) are not part of the
/// checkpoint (they are inspection artifacts, not state).
///
/// Total and strict over its input: every line is read through one
/// [`LineCursor`], every integer in its one spelling ([`parse_int`]),
/// and a line after the `steps <n>` trailer is refused. Besides line
/// syntax, every shape the model's constructors assert (rank and period
/// ≥ 1, `rank`-column factors, `period` history rows of `rank` values,
/// `rank` Holt-Winters models of `period` seasonals, a sigma shaped like
/// the factor rows) is checked here, so a malformed file — or a
/// malformed `register` payload off the wire — is a [`WireError`], never
/// a panic.
pub fn load(text: &str) -> Result<Sofia, WireError> {
    let mut cur = LineCursor::new(text);
    let header = cur.next("checkpoint header")?;
    if header != HEADER {
        return Err(WireError::new(format!("bad checkpoint header `{header}`")));
    }

    // --- config
    let config_ints = ints(&mut cur, "config", 6)?;
    let floats = parse_f64s(cur.next("config_f")?, "config_f")?;
    if floats.len() != 7 {
        return Err(WireError::new("config floats"));
    }
    let (rank, period) = (config_ints[0], config_ints[1]);
    if rank == 0 || period == 0 {
        return Err(WireError::new("rank and period must be positive"));
    }
    let mut config = SofiaConfig::new(rank, period);
    config.init_seasons = config_ints[2];
    config.max_als_iters = config_ints[3];
    config.max_outer_iters = config_ints[4];
    config.als_sweeps_per_outer = config_ints[5];
    config.lambda1 = floats[0];
    config.lambda2 = floats[1];
    config.lambda3 = floats[2];
    config.mu = floats[3];
    config.phi = floats[4];
    config.tol = floats[5];
    config.lambda3_decay = floats[6];

    // --- factors
    let n_factors = int(&mut cur, "factors")?;
    if n_factors == 0 {
        return Err(WireError::new("need at least one factor"));
    }
    // Counts below come from the file: clamp pre-allocations so a
    // corrupt header errors on the missing lines instead of panicking in
    // `with_capacity` (restores may run on serving threads).
    let mut factors = Vec::with_capacity(n_factors.min(16));
    for _ in 0..n_factors {
        let dims = ints(&mut cur, "factor", 2)?;
        if dims[0] == 0 || dims[1] != rank {
            return Err(WireError::new("factor dims"));
        }
        let data = parse_f64s(cur.next("factor data")?, "data")?;
        if dims[0].checked_mul(dims[1]) != Some(data.len()) {
            return Err(WireError::new("factor data length"));
        }
        factors.push(Matrix::from_vec(dims[0], dims[1], data));
    }

    // --- history
    if int(&mut cur, "history")? != period {
        return Err(WireError::new("history must hold one row per period step"));
    }
    let mut history = Vec::with_capacity(period.min(4096));
    for _ in 0..period {
        let row = parse_f64s(cur.next("history row")?, "u")?;
        if row.len() != rank {
            return Err(WireError::new("history row length"));
        }
        history.push(row);
    }

    // --- HW bank
    if int(&mut cur, "hw")? != rank {
        return Err(WireError::new("need one hw model per component"));
    }
    let mut models = Vec::with_capacity(rank.min(4096));
    for _ in 0..rank {
        let p = parse_f64s(cur.next("hw params")?, "hw_params")?;
        if p.len() != 3 {
            return Err(WireError::new("hw params"));
        }
        let phase = int(&mut cur, "hw_phase")?;
        let lt = parse_f64s(cur.next("hw level")?, "hw_level_trend")?;
        if lt.len() != 2 {
            return Err(WireError::new("hw level/trend"));
        }
        let seasonal = parse_f64s(cur.next("hw seasonal")?, "hw_seasonal")?;
        if seasonal.len() != period || phase >= period {
            return Err(WireError::new("hw seasonal/phase"));
        }
        models.push(HoltWinters::new(
            HwParams::clamped(p[0], p[1], p[2]),
            HwState::new(lt[0], lt[1], seasonal, phase),
        ));
    }
    let hw = HwBank::from_models(models);

    // --- sigma
    let sigma_dims = ints(&mut cur, "sigma_shape", factors.len())?;
    if !sigma_dims
        .iter()
        .copied()
        .eq(factors.iter().map(Matrix::rows))
    {
        return Err(WireError::new("sigma shape must match the factor rows"));
    }
    let sigma_data = parse_f64s(cur.next("sigma")?, "sigma")?;
    let sigma_len = sigma_dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    if sigma_len != Some(sigma_data.len()) {
        return Err(WireError::new("sigma length"));
    }
    let sigma = DenseTensor::from_vec(Shape::new(&sigma_dims), sigma_data);

    let steps = int(&mut cur, "steps")?;
    cur.finish()?;

    let dynamic = DynamicState::restore(config.clone(), factors, history, hw, sigma, steps);
    Sofia::from_dynamic(&config, dynamic).map_err(|e| WireError::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sofia;
    use sofia_tensor::{kruskal, ObservedTensor};

    fn trained_model() -> (Sofia, Vec<ObservedTensor>) {
        let m = 6;
        let a = Matrix::from_fn(4, 2, |i, j| 0.6 + ((i + j) % 3) as f64 * 0.3);
        let b = Matrix::from_fn(3, 2, |i, j| 1.0 - ((i + 2 * j) % 4) as f64 * 0.2);
        let slice = |t: usize| {
            let phase = 2.0 * std::f64::consts::PI * (t % m) as f64 / m as f64;
            let u = vec![2.0 + phase.sin(), -1.0 + 0.5 * phase.cos()];
            ObservedTensor::fully_observed(kruskal::kruskal_slice(&[&a, &b], &u))
        };
        let config = SofiaConfig::new(2, m)
            .with_lambdas(0.01, 0.01, 10.0)
            .with_als_limits(1e-4, 1, 100);
        let startup: Vec<ObservedTensor> = (0..3 * m).map(slice).collect();
        let mut model = Sofia::init(&config, &startup, 3).expect("init");
        for t in 3 * m..4 * m {
            model.step(&slice(t));
        }
        let future: Vec<ObservedTensor> = (4 * m..5 * m).map(slice).collect();
        (model, future)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (model, future) = trained_model();
        let text = save(&model);
        let restored = load(&text).expect("load");

        // Identical forecasts...
        for h in 1..=4 {
            assert_eq!(
                model.forecast_slice(h).data(),
                restored.forecast_slice(h).data()
            );
        }
        // ...and identical future stepping behaviour.
        let mut a = model.clone();
        let mut b = restored;
        for slice in &future {
            let oa = a.step(slice);
            let ob = b.step(slice);
            assert_eq!(oa.completed.data(), ob.completed.data());
            assert_eq!(oa.temporal, ob.temporal);
        }
    }

    #[test]
    fn save_is_stable() {
        let (model, _) = trained_model();
        assert_eq!(save(&model), save(&model));
    }

    #[test]
    fn bad_header_rejected() {
        let reason = |text: &str| load(text).map(drop).unwrap_err().reason;
        assert_eq!(reason("garbage\n"), "bad checkpoint header `garbage`");
        // No panic on empty input.
        assert_eq!(reason(""), "truncated: expected checkpoint header");
        // The retired v2 envelope is not read.
        let (model, _) = trained_model();
        let v2 = format!(
            "sofia-checkpoint v2\nmodel sofia\nsteps 0\n{}",
            save(&model)
        );
        assert_eq!(reason(&v2), "bad checkpoint header `sofia-checkpoint v2`");
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let (model, _) = trained_model();
        let text = save(&model);
        let lines: Vec<&str> = text.lines().collect();
        // Drop the last 3 lines.
        let truncated = lines[..lines.len() - 3].join("\n");
        assert!(load(&truncated).is_err());
    }

    #[test]
    fn corrupted_float_rejected() {
        let (model, _) = trained_model();
        let text = save(&model).replace("config_f ", "config_f zzzz ");
        assert!(load(&text).is_err());
    }

    /// `text` with its lines edited by `f`.
    fn edited(text: &str, f: impl FnOnce(&mut Vec<String>)) -> String {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        f(&mut lines);
        lines.join("\n")
    }

    /// Index of the first line starting with `prefix`.
    fn line_at(lines: &[String], prefix: &str) -> usize {
        lines
            .iter()
            .position(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line"))
    }

    /// Sets whitespace token `k` of the first line starting with
    /// `prefix`.
    fn set_token(lines: &mut [String], prefix: &str, k: usize, value: &str) {
        let i = line_at(lines, prefix);
        let mut toks: Vec<&str> = lines[i].split(' ').collect();
        toks[k] = value;
        lines[i] = toks.join(" ");
    }

    /// Drops the last token of the first line starting with `prefix`.
    fn drop_last_token(lines: &mut [String], prefix: &str) {
        let i = line_at(lines, prefix);
        let cut = lines[i].rfind(' ').expect("line has values");
        lines[i].truncate(cut);
    }

    /// Respells the first integer of the first line starting with
    /// `prefix` by putting `lead` before it (same value, other spelling).
    fn respell(lines: &mut [String], prefix: &str, lead: &str) {
        let i = line_at(lines, prefix);
        lines[i] = lines[i].replacen(' ', &format!(" {lead}"), 1);
    }

    /// Every shape the model's constructors assert is checked by `load`:
    /// each variant parses line by line, yet describes a state that
    /// `DynamicState::restore` or a constructor under it would panic on.
    /// And the reader is strict: an integer in any spelling but its one
    /// canonical form, or a line after the `steps` trailer, is refused.
    #[test]
    fn shape_violations_are_typed_errors() {
        // Rank 2, period 6, factors 4x2 and 3x2.
        let (model, _) = trained_model();
        let text = save(&model);
        let overflowing_rows = (usize::MAX / 2 + 1).to_string();
        let variants = [
            (
                "zero rank",
                edited(&text, |l| set_token(l, "config ", 1, "0")),
            ),
            (
                "zero period",
                edited(&text, |l| set_token(l, "config ", 2, "0")),
            ),
            (
                "no factors",
                edited(&text, |l| {
                    let i = line_at(l, "factors ");
                    l[i] = "factors 0".into();
                    l.drain(i + 1..i + 5);
                }),
            ),
            (
                "factor columns differ from the rank",
                edited(&text, |l| {
                    set_token(l, "factor ", 1, "8");
                    set_token(l, "factor ", 2, "1");
                }),
            ),
            (
                "zero-row factor",
                edited(&text, |l| {
                    let i = line_at(l, "factor ");
                    l[i] = "factor 0 2".into();
                    l[i + 1] = "data".into();
                }),
            ),
            (
                "factor size overflows",
                edited(&text, |l| set_token(l, "factor ", 1, &overflowing_rows)),
            ),
            (
                "one history row for period 6",
                edited(&text, |l| {
                    let i = line_at(l, "history ");
                    l[i] = "history 1".into();
                    l.drain(i + 2..i + 7);
                }),
            ),
            (
                "short history row",
                edited(&text, |l| drop_last_token(l, "u ")),
            ),
            (
                "one hw model for rank 2",
                edited(&text, |l| {
                    let i = line_at(l, "hw ");
                    l[i] = "hw 1".into();
                    l.drain(i + 5..i + 9);
                }),
            ),
            (
                "short seasonal",
                edited(&text, |l| {
                    set_token(l, "hw_phase", 1, "0");
                    drop_last_token(l, "hw_seasonal");
                }),
            ),
            (
                "sigma shape transposed",
                edited(&text, |l| {
                    let i = line_at(l, "sigma_shape");
                    l[i] = "sigma_shape 3 4".into();
                }),
            ),
            (
                "sigma shape with a zero mode",
                edited(&text, |l| {
                    let i = line_at(l, "sigma_shape");
                    l[i] = "sigma_shape 4 0".into();
                    l[i + 1] = "sigma".into();
                }),
            ),
            ("signed steps", edited(&text, |l| respell(l, "steps ", "+"))),
            (
                "zero-padded factor count",
                edited(&text, |l| respell(l, "factors ", "0")),
            ),
            (
                "zero-padded hw phase",
                edited(&text, |l| respell(l, "hw_phase ", "0")),
            ),
            (
                "two spaces before a dimension",
                edited(&text, |l| respell(l, "factor ", " ")),
            ),
            ("a line after the trailer", format!("{text}steps 6\n")),
            ("a blank line after the trailer", format!("{text}\n")),
        ];
        assert!(load(&text).is_ok(), "the unedited checkpoint loads");
        assert!(text.ends_with("\nsteps 6\n"), "{text}");
        for (what, bad) in variants {
            assert!(load(&bad).is_err(), "{what}: expected a typed error");
        }
    }

    #[test]
    fn config_survives_roundtrip() {
        let (model, _) = trained_model();
        let restored = load(&save(&model)).expect("load");
        assert_eq!(model.config(), restored.config());
        assert_eq!(model.dynamic().steps(), restored.dynamic().steps());
    }
}
