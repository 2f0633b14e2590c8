//! The `run_single` and `infer_single` CLIs refuse what they do not
//! understand. An unknown flag, an unknown value of an enumerated flag or
//! an unparsable number exits with status 2 and names the flag on stderr,
//! before any training or serving starts; what they do understand still
//! trains, exports and serves.

use std::process::{Command, Output};

/// Runs `bin` with `args` split on whitespace, followed by `extra` as is.
fn run(bin: &str, args: &str, extra: &[&str]) -> Output {
    Command::new(bin)
        .args(args.split_whitespace())
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// `prefix` then `bad` must be refused, naming `bad`'s leading flag.
fn assert_rejected(bin: &str, prefix: &str, bad: &str) {
    let flag = bad.split_whitespace().next().unwrap();
    let out = run(bin, &format!("{prefix} {bad}"), &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bad:?} not refused: {stderr}");
    assert!(
        stderr.contains(flag) && stderr.contains("usage:"),
        "{bad:?} must name {flag} and print the usage line: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bad:?} produced a result");
}

/// Runs `bin`, which must succeed, and returns its stdout.
fn run_ok(bin: &str, args: &str, extra: &[&str]) -> String {
    let out = run(bin, args, extra);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn run_single_rejects_unknown_flags_and_values() {
    let bin = env!("CARGO_BIN_EXE_run_single");
    // Each case but the first pins the smoke profile, so a regression that
    // stops refusing trains for a moment instead of minutes.
    assert_rejected(bin, "--epochs 1", "--profile huge");
    for bad in [
        "--encoding bitmap",
        "--method structured",
        "--method sett",
        "--arch resnet",
        "--dataset mnist",
        "--neuron izhikevich",
        "--surrogate sigmoid",
        "--surrogate rect:wide",
        "--seed seven",
        "--sparsity 0.9x",
        "--seed 1 --seed 2",
        "--epochs",
    ] {
        assert_rejected(bin, "--profile smoke", bad);
    }
}

#[test]
fn infer_single_rejects_unknown_flags_and_numbers() {
    let bin = env!("CARGO_BIN_EXE_infer_single");
    // The artifact does not exist: getting past argument checking would
    // fail the load with a panic (status 101), not status 2.
    for bad in [
        "--encoding bitmap",
        "--requests abc",
        "--requests 1e3",
        "--clients -1",
        "--max-wait-us 0.5",
    ] {
        assert_rejected(bin, "--artifact no-such-artifact.ndinf", bad);
    }
}

#[test]
fn accepted_flags_train_export_and_serve() {
    let dir = std::env::temp_dir().join(format!("ndsnn-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("m.ndinf");
    let model = model.to_str().unwrap();
    let trained = run_ok(
        env!("CARGO_BIN_EXE_run_single"),
        "--profile smoke --arch lenet5 --dataset cifar10 --method ndsnn --sparsity 0.9 \
         --initial 0.5 --epochs 1 --timesteps 2 --seed 3 --neuron lif --surrogate rect:1.5 \
         --quantize --export",
        &[model],
    );
    assert!(trained.contains("\"best_test_acc\""), "{trained}");
    let served = run_ok(
        env!("CARGO_BIN_EXE_infer_single"),
        "--requests 4 --clients 1 --batch 2 --artifact",
        &[model],
    );
    assert!(served.contains("\"requests\":4"), "{served}");
    std::fs::remove_dir_all(&dir).ok();
}
