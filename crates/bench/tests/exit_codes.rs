//! Exit-code propagation tests for the bench-gate binaries and `repro`.
//!
//! CI trusts these binaries' exit status: a gate that prints a
//! divergence but exits 0 silently stops gating. The negative test
//! forces a divergence and requires a nonzero exit; the positive test
//! requires a clean run to exit 0 *and* produce the JSON artifact.

use std::path::Path;
use std::process::Command;

fn math_kernels() -> Command {
    Command::new(env!("CARGO_BIN_EXE_math_kernels"))
}

#[test]
fn clean_run_exits_zero_and_writes_artifact() {
    let out = std::env::temp_dir().join("BENCH_math_exit_code_test.json");
    let _ = std::fs::remove_file(&out);
    let status = math_kernels()
        .args(["--quick", "--out", out.to_str().unwrap()])
        .status()
        .expect("spawn math_kernels");
    assert!(status.success(), "clean run must exit 0, got {status:?}");
    let doc = std::fs::read_to_string(&out).expect("artifact written");
    assert!(
        doc.contains("\"identical\":true"),
        "artifact records the verdict:\n{doc}"
    );
    assert!(
        doc.contains("decode_cw_per_sec"),
        "artifact carries throughput:\n{doc}"
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn forced_divergence_fails_the_run() {
    let out = std::env::temp_dir().join("BENCH_math_exit_code_neg_test.json");
    let _ = std::fs::remove_file(&out);
    let output = math_kernels()
        .args([
            "--quick",
            "--inject-divergence",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("spawn math_kernels");
    assert!(
        !output.status.success(),
        "injected divergence must exit nonzero"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("DIVERGENCE"),
        "stderr names the divergence:\n{stderr}"
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let status = math_kernels()
        .arg("--no-such-flag")
        .status()
        .expect("spawn math_kernels");
    assert_eq!(status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn store_throughput_rejects_invalid_theta() {
    // The satellite bugfix end-to-end: a misconfigured zipfian skew must
    // fail the bench run (typed error → nonzero exit), not silently run
    // a clamped distribution.
    let output = Command::new(env!("CARGO_BIN_EXE_store_throughput"))
        .args([
            "--actors",
            "2",
            "--keys",
            "8",
            "--ops",
            "10",
            "--threads",
            "1",
            "--theta",
            "1.2",
            "--out",
            std::env::temp_dir()
                .join("BENCH_store_theta_test.json")
                .to_str()
                .unwrap(),
        ])
        .output()
        .expect("spawn store_throughput");
    assert!(
        !output.status.success(),
        "theta 1.2 must fail the run, not be clamped"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("theta"),
        "stderr names the bad skew:\n{stderr}"
    );
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn repro_unknown_experiment_fails_before_any_runs() {
    // The known name comes first: it must not run (and write its CSV)
    // before the unknown one is rejected.
    let dir = std::env::temp_dir().join("repro_exit_code_unknown_test");
    let _ = std::fs::remove_dir_all(&dir);
    let output = repro()
        .args(["table3", "fig99", "--out", dir.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "unknown names exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("fig99"), "stderr names it:\n{stderr}");
    assert!(stderr.contains("usage: repro"), "usage:\n{stderr}");
    assert!(!dir.join("table3.csv").exists(), "no experiment ran");
}

#[test]
fn repro_bad_flag_value_is_a_usage_error() {
    for args in [&["table3", "--seed", "x"][..], &["--samples"][..]] {
        let output = repro().args(args).output().expect("spawn repro");
        assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("needs an integer"), "{args:?}:\n{stderr}");
    }
}

#[test]
fn artifacts_do_not_leak_into_repo_root() {
    // Guard the test hygiene itself: the tests above write only under
    // the temp dir.
    assert!(!Path::new("BENCH_math_exit_code_test.json").exists());
}
