//! The bench binaries refuse malformed arguments: a misspelt mode, a
//! surplus argument or a non-decimal seed prints the usage and exits
//! non-zero before anything runs, instead of silently running a default
//! sweep.

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

#[test]
fn a_misspelt_table_mode_prints_the_usage_before_any_sweep() {
    let cases: [(&str, &[&str]); 9] = [
        (env!("CARGO_BIN_EXE_table1"), &["standrad"]),
        (env!("CARGO_BIN_EXE_table2"), &["qiuck"]),
        (env!("CARGO_BIN_EXE_table3"), &["ful"]),
        (env!("CARGO_BIN_EXE_reproduce"), &["Standard"]),
        (env!("CARGO_BIN_EXE_ablations"), &["full"]),
        (env!("CARGO_BIN_EXE_cache_sweep"), &["--standard"]),
        (env!("CARGO_BIN_EXE_coverage_holes"), &["standart"]),
        (env!("CARGO_BIN_EXE_delay_faults"), &["quik"]),
        (env!("CARGO_BIN_EXE_table1"), &["quick", "quick"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?} was accepted");
        assert!(stderr.contains("usage:"), "{bin} {args:?} printed no usage:\n{stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} started a sweep before refusing");
    }
}
