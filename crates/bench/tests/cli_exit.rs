//! A bad command line ends an experiment binary with exit status 2 and a
//! usage line on stderr, not a panic (status 101).

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_with_a_usage_line() {
    let cases: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_stability_exp"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_stability_exp"), &["--monitor"]),
        (env!("CARGO_BIN_EXE_sparse_smoke"), &["--links", "0"]),
        (env!("CARGO_BIN_EXE_fig1"), &["--trace"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("spawn the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("\nusage: "), "{bin} {args:?}: {stderr}");
    }
}
