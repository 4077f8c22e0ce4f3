//! `paper` rejects out-of-range flag values before any work starts: exit 2
//! with a message naming the flag, never a hang or a panic.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn out_of_range_flag_values_exit_2_naming_the_flag() {
    let invalid = [
        ("fig4 --kernel ep --modeled --ranks 0", "--ranks"),
        (
            "fig4 --kernel ep --searched --ranks 64 --chains 0",
            "--chains",
        ),
        ("fig2 --sigma -1", "--sigma"),
        ("fig2 --sigma nan", "--sigma"),
        ("fig3 --sigma inf", "--sigma"),
        ("ablation latency-ranking --sigma -0.5", "--sigma"),
        // Executed runs place every process on Table 1's 1 040 cores.
        ("fig4 --kernel ep --ranks 1041", "--ranks"),
        ("ablation contention --processes 1041", "--processes"),
        ("ablation contention --processes 0", "--processes"),
        ("ablation overbooking --processes 0", "--processes"),
        ("ablation overbooking --churn 2", "--churn"),
    ];
    for (line, flag) in invalid {
        let mut child = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(line.split_whitespace())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("paper starts");
        // A child still running after 10 s is killed: a hang fails this
        // test instead of stalling the suite.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("paper can be polled").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("`paper {line}` still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child
            .wait_with_output()
            .expect("paper's stderr is readable");
        let (code, stderr) = (out.status.code(), String::from_utf8_lossy(&out.stderr));
        assert_eq!(code, Some(2), "`paper {line}`: {stderr}");
        assert!(stderr.contains(flag), "`paper {line}`: {stderr}");
    }
}
