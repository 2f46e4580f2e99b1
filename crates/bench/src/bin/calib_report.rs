//! The calibration closed loop on the paper's headline workload:
//! emulate GE 960/32 (diagonal, 8 processors), fit a LogGP preset to
//! the measured runs, and score the fitted preset by the paper's own
//! bracketing test on held-out runs — `standard ≤ measured ≤
//! worst-case`.
//!
//! Writes `BENCH_CALIB.json` (strict JSON, integer picoseconds and
//! permille) recording the fitted parameters, the residual RMSE, and
//! the bracket hit rate, and prints the same numbers as a table.
//!
//! ```text
//! cargo run -p bench --release --bin calib_report
//! ```

use loggp::presets;
use predsim_calib::{bracket, calibrate, measure, FitConfig, MeasureConfig};
use predsim_engine::{Engine, EngineConfig, JobSource};
use predsim_lint::json::Value;

const SOURCE: &str = "ge:960,32,diagonal,8";
const RUNS: usize = 10;
const HOLDOUT: usize = 4;

fn main() {
    let source = JobSource::parse_spec(SOURCE)
        .expect("spec parses")
        .expect("spec has a generator prefix");
    let (prog, loads) = source.build_loaded();
    let procs = prog.procs();
    let truth = presets::meiko_cs2(procs);

    println!("== calibration closed loop: {SOURCE} ==");
    println!("emulating {RUNS} runs on the meiko-like emulator...");
    let mcfg = MeasureConfig {
        ecfg: machine::EmulatorConfig::meiko_like(commsim::SimConfig::new(truth)),
        base_seed: 0,
        runs: RUNS,
        faults: None,
    };
    let set = measure(&prog, &loads, SOURCE, "meiko-emulated", &mcfg);

    let engine = Engine::new(EngineConfig::default());
    let mut fcfg = FitConfig::new(truth);
    fcfg.holdout = HOLDOUT;
    println!(
        "fitting from {} training runs ({} held out)...",
        RUNS - HOLDOUT,
        HOLDOUT
    );
    let report = calibrate(&prog, &set, &engine, &fcfg).expect("calibration runs");
    let p = report.params;

    // The same fit scored against the *initial* preset's bracket, to
    // show what calibration bought: the uncalibrated meiko numbers
    // bracket the emulator too (its jitter is centred on meiko), so the
    // interesting deltas are the fit RMSE and the bracket width.
    let holdout_runs = &set.runs[set.runs.len() - HOLDOUT..];
    let initial_bracket = bracket(&prog, truth, holdout_runs, &engine);

    println!();
    println!(
        "fitted (us):   L={} o={} g={} G={}",
        p.latency, p.overhead, p.gap, p.gap_per_byte
    );
    println!(
        "initial (us):  L={} o={} g={} G={}",
        truth.latency, truth.overhead, truth.gap, truth.gap_per_byte
    );
    println!(
        "rmse={}  objective={}  rounds={}  evaluations={} ({} unique)",
        report.rmse, report.objective, report.rounds, report.evaluations, report.unique_evaluations
    );
    println!(
        "bracket (fitted):  {}/{} held-out runs inside [std={}, wc={}]",
        report.bracket.hits,
        report.bracket.total,
        report.bracket.std_total,
        report.bracket.wc_total
    );
    println!(
        "bracket (initial): {}/{} held-out runs inside [std={}, wc={}]",
        initial_bracket.hits,
        initial_bracket.total,
        initial_bracket.std_total,
        initial_bracket.wc_total
    );
    assert!(report.converged, "the closed loop must converge");
    assert!(
        report.bracket.hit_permille() >= 900,
        "fitted preset must bracket >= 90% of held-out runs, got {}",
        report.bracket.hit_permille()
    );

    let int = |t: loggp::Time| Value::Int(t.as_ps() as i64);
    let bracket_obj = |b: &predsim_calib::BracketReport| {
        Value::Object(vec![
            ("hits".into(), Value::Int(b.hits as i64)),
            ("total".into(), Value::Int(b.total as i64)),
            ("hit_permille".into(), Value::Int(b.hit_permille() as i64)),
            ("std_total_ps".into(), int(b.std_total)),
            ("wc_total_ps".into(), int(b.wc_total)),
        ])
    };
    let doc = Value::Object(vec![
        ("version".into(), Value::Int(1)),
        ("source".into(), Value::Str(SOURCE.into())),
        ("emulated_machine".into(), Value::Str("meiko".into())),
        ("runs".into(), Value::Int(RUNS as i64)),
        ("holdout".into(), Value::Int(HOLDOUT as i64)),
        (
            "fitted".into(),
            Value::Object(vec![
                ("latency_ps".into(), int(p.latency)),
                ("overhead_ps".into(), int(p.overhead)),
                ("gap_ps".into(), int(p.gap)),
                ("gap_per_byte_ps".into(), int(p.gap_per_byte)),
                ("procs".into(), Value::Int(p.procs as i64)),
            ]),
        ),
        ("rmse_ps".into(), int(report.rmse)),
        ("objective_ps".into(), int(report.objective)),
        ("converged".into(), Value::Bool(report.converged)),
        ("rounds".into(), Value::Int(report.rounds as i64)),
        ("evaluations".into(), Value::Int(report.evaluations as i64)),
        (
            "unique_evaluations".into(),
            Value::Int(report.unique_evaluations as i64),
        ),
        ("bracket".into(), bracket_obj(&report.bracket)),
        ("bracket_initial".into(), bracket_obj(&initial_bracket)),
    ]);
    std::fs::write("BENCH_CALIB.json", doc.to_pretty() + "\n").expect("write BENCH_CALIB.json");
    println!();
    println!("wrote BENCH_CALIB.json");
}
