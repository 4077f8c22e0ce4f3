//! `day` rejects out-of-range flag values before any sweep starts: exit 2
//! with a message naming the flag, never a hang or a panic.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn out_of_range_flag_values_exit_2_naming_the_flag() {
    let invalid = [
        ("--sample-secs 0", "--sample-secs"),
        ("--rate-scale -1", "--rate-scale"),
        ("--scenario all --rate-scale -0.5", "--rate-scale"),
        ("--shards 0", "--shards"),
        ("--shards 9", "--shards"),
        ("--worst-phase --offsets nan", "--offsets"),
        ("--duration-scale nan", "--duration-scale"),
        ("--shards 2 --cross-fraction 2", "--cross-fraction"),
        ("--ranks 0", "--ranks"),
        ("--shards 2 --ranks 8,0", "--ranks"),
        ("--strategy balanced:2", "--strategy"),
        // The parse error itself is kept, not only the flag's name.
        (
            "--strategy balanced:2",
            "expected spread, concentrate or searched",
        ),
    ];
    for (line, flag) in invalid {
        let mut child = Command::new(env!("CARGO_BIN_EXE_day"))
            .args(line.split_whitespace())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("day starts");
        // A child still running after 10 s is killed: a hang fails this
        // test instead of stalling the suite.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("day can be polled").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("`day {line}` still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("day's stderr is readable");
        let (code, stderr) = (out.status.code(), String::from_utf8_lossy(&out.stderr));
        assert_eq!(code, Some(2), "`day {line}`: {stderr}");
        assert!(stderr.contains(flag), "`day {line}`: {stderr}");
    }
}
