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
use crate::snapshot::wire::{parse_f64s, parse_usizes, push_f64s};
use sofia_tensor::{DenseTensor, Matrix, Shape};
use sofia_timeseries::holt_winters::{HoltWinters, HwParams, HwState};
use std::fmt::Write as _;

/// Errors raised while parsing a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The header line is missing or names an unsupported version.
    BadHeader,
    /// A section or field is missing or malformed.
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "bad or missing checkpoint header"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes a streaming SOFIA model to the v1 text format.
pub fn save(model: &Sofia) -> String {
    let config = model.config();
    let dynamic = model.dynamic();
    let mut out = String::new();
    out.push_str("sofia-checkpoint v1\n");

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

/// Restores a streaming SOFIA model from the v1 text format.
///
/// The init-phase tensors (`X̂_init`, `O_init`) are not part of the
/// checkpoint (they are inspection artifacts, not state).
///
/// Total over its input: besides line syntax, every shape the model's
/// constructors assert (rank and period ≥ 1, `rank`-column factors,
/// `period` history rows of `rank` values, `rank` Holt-Winters models
/// of `period` seasonals, a sigma shaped like the factor rows) is
/// checked here, so a malformed file — or a malformed envelope off the
/// wire — is a [`CheckpointError::Malformed`], never a panic.
pub fn load(text: &str) -> Result<Sofia, CheckpointError> {
    let mut lines = text.lines();
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| CheckpointError::Malformed(format!("unexpected EOF at {what}")))
    };

    if next("header")?.trim() != "sofia-checkpoint v1" {
        return Err(CheckpointError::BadHeader);
    }

    // --- config
    let ints = parse_usizes(next("config")?, "config")?;
    if ints.len() != 6 {
        return Err(CheckpointError::Malformed("config ints".into()));
    }
    let floats = parse_f64s(next("config_f")?, "config_f")?;
    if floats.len() != 7 {
        return Err(CheckpointError::Malformed("config floats".into()));
    }
    let (rank, period) = (ints[0], ints[1]);
    if rank == 0 || period == 0 {
        return Err(CheckpointError::Malformed(
            "rank and period must be positive".into(),
        ));
    }
    let mut config = SofiaConfig::new(rank, period);
    config.init_seasons = ints[2];
    config.max_als_iters = ints[3];
    config.max_outer_iters = ints[4];
    config.als_sweeps_per_outer = ints[5];
    config.lambda1 = floats[0];
    config.lambda2 = floats[1];
    config.lambda3 = floats[2];
    config.mu = floats[3];
    config.phi = floats[4];
    config.tol = floats[5];
    config.lambda3_decay = floats[6];

    // --- factors
    let n_factors = parse_usizes(next("factors")?, "factors")?;
    let n_factors = *n_factors
        .first()
        .ok_or_else(|| CheckpointError::Malformed("factor count".into()))?;
    if n_factors == 0 {
        return Err(CheckpointError::Malformed(
            "need at least one factor".into(),
        ));
    }
    // Counts below come from the file: clamp pre-allocations so a
    // corrupt header errors on the missing lines instead of panicking in
    // `with_capacity` (restores may run on serving threads).
    let mut factors = Vec::with_capacity(n_factors.min(16));
    for _ in 0..n_factors {
        let dims = parse_usizes(next("factor")?, "factor")?;
        if dims.len() != 2 {
            return Err(CheckpointError::Malformed("factor dims".into()));
        }
        if dims[0] == 0 || dims[1] != rank {
            return Err(CheckpointError::Malformed("factor dims".into()));
        }
        let data = parse_f64s(next("factor data")?, "data")?;
        if dims[0].checked_mul(dims[1]) != Some(data.len()) {
            return Err(CheckpointError::Malformed("factor data length".into()));
        }
        factors.push(Matrix::from_vec(dims[0], dims[1], data));
    }

    // --- history
    let n_hist = parse_usizes(next("history")?, "history")?;
    let n_hist = *n_hist
        .first()
        .ok_or_else(|| CheckpointError::Malformed("history count".into()))?;
    if n_hist != period {
        return Err(CheckpointError::Malformed(
            "history must hold one row per period step".into(),
        ));
    }
    let mut history = Vec::with_capacity(n_hist.min(4096));
    for _ in 0..n_hist {
        let row = parse_f64s(next("history row")?, "u")?;
        if row.len() != rank {
            return Err(CheckpointError::Malformed("history row length".into()));
        }
        history.push(row);
    }

    // --- HW bank
    let n_hw = parse_usizes(next("hw")?, "hw")?;
    let n_hw = *n_hw
        .first()
        .ok_or_else(|| CheckpointError::Malformed("hw count".into()))?;
    if n_hw != rank {
        return Err(CheckpointError::Malformed(
            "need one hw model per component".into(),
        ));
    }
    let mut models = Vec::with_capacity(n_hw.min(4096));
    for _ in 0..n_hw {
        let p = parse_f64s(next("hw params")?, "hw_params")?;
        if p.len() != 3 {
            return Err(CheckpointError::Malformed("hw params".into()));
        }
        let phase = parse_usizes(next("hw phase")?, "hw_phase")?;
        let lt = parse_f64s(next("hw level")?, "hw_level_trend")?;
        if lt.len() != 2 {
            return Err(CheckpointError::Malformed("hw level/trend".into()));
        }
        let seasonal = parse_f64s(next("hw seasonal")?, "hw_seasonal")?;
        let phase = *phase
            .first()
            .ok_or_else(|| CheckpointError::Malformed("hw phase".into()))?;
        if seasonal.len() != period || phase >= period {
            return Err(CheckpointError::Malformed("hw seasonal/phase".into()));
        }
        models.push(HoltWinters::new(
            HwParams::clamped(p[0], p[1], p[2]),
            HwState::new(lt[0], lt[1], seasonal, phase),
        ));
    }
    let hw = HwBank::from_models(models);

    // --- sigma
    let sigma_dims = parse_usizes(next("sigma shape")?, "sigma_shape")?;
    if !sigma_dims
        .iter()
        .copied()
        .eq(factors.iter().map(Matrix::rows))
    {
        return Err(CheckpointError::Malformed(
            "sigma shape must match the factor rows".into(),
        ));
    }
    let sigma_data = parse_f64s(next("sigma")?, "sigma")?;
    let sigma_len = sigma_dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    if sigma_len != Some(sigma_data.len()) {
        return Err(CheckpointError::Malformed("sigma length".into()));
    }
    let sigma = DenseTensor::from_vec(Shape::new(&sigma_dims), sigma_data);

    let steps = parse_usizes(next("steps")?, "steps")?;
    let steps = *steps
        .first()
        .ok_or_else(|| CheckpointError::Malformed("steps".into()))?;

    let dynamic = DynamicState::restore(config.clone(), factors, history, hw, sigma, steps);
    Sofia::from_dynamic(&config, dynamic).map_err(|e| CheckpointError::Malformed(e.to_string()))
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
        assert!(matches!(load("garbage\n"), Err(CheckpointError::BadHeader)));
        assert!(load("").is_err()); // no panic on empty input
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
        assert!(matches!(load(&text), Err(CheckpointError::Malformed(_))));
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

    /// Every shape the model's constructors assert is checked by `load`:
    /// each variant parses line by line, yet describes a state that
    /// `DynamicState::restore` or a constructor under it would panic on.
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
        ];
        assert!(load(&text).is_ok(), "the unedited checkpoint loads");
        for (what, bad) in variants {
            assert!(
                matches!(load(&bad), Err(CheckpointError::Malformed(_))),
                "{what}: expected a typed error"
            );
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
