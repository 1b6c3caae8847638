//! The robustness binaries refuse malformed arguments: a misspelt mode
//! or a non-decimal seed prints the usage and exits non-zero before
//! anything runs, instead of silently running a default sweep.

use std::process::Command;

#[test]
fn a_bad_mode_or_seed_prints_the_usage_and_exits_non_zero() {
    let cases: [(&str, &[&str]); 5] = [
        (env!("CARGO_BIN_EXE_chaos_sweep"), &["smok"]),
        (env!("CARGO_BIN_EXE_chaos_sweep"), &["smoke", "0x10"]),
        (env!("CARGO_BIN_EXE_certify"), &["--smok"]),
        (env!("CARGO_BIN_EXE_certify"), &["--smoke", "0xce47"]),
        (env!("CARGO_BIN_EXE_fleet_campaign"), &["smok"]),
    ];
    for (i, (bin, args)) in cases.into_iter().enumerate() {
        // A fresh working directory shows whether a report was written.
        let dir = std::env::temp_dir().join(format!("sbst-cli-it-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch cwd");
        let out = Command::new(bin).args(args).current_dir(&dir).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} {args:?} was accepted");
        assert!(stderr.contains("usage:"), "{bin} {args:?} printed no usage:\n{stderr}");
        assert!(!dir.join("out").exists(), "{bin} {args:?} ran before refusing its arguments");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
