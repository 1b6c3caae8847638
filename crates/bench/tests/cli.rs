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

#[test]
fn disasm_rejects_an_unknown_core_or_a_surplus_argument() {
    let disasm = env!("CARGO_BIN_EXE_disasm");
    for args in [&["hdcu", "Q"][..], &["icu", "B", "--rwa"], &["icu", "--raw", "B"]] {
        let out = Command::new(disasm).args(args).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "disasm {args:?} was accepted");
        assert!(stderr.contains("usage:"), "disasm {args:?} printed no usage:\n{stderr}");
        assert!(out.stdout.is_empty(), "disasm {args:?} disassembled before refusing");
    }
    let out = Command::new(disasm).args(["icu", "B", "--raw"]).output().expect("spawn binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "disasm icu B --raw was refused");
    assert!(stdout.starts_with("; icu[8 rounds] on core B"), "{stdout}");
    assert!(stdout.contains("[unwrapped body]"), "{stdout}");
}
