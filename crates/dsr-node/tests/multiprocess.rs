//! Real multi-process smoke tests: 1 master + 3 `dsr-node` worker
//! **processes** on loopback TCP, exercising exactly the deployment the
//! README's quickstart describes. The master binary verifies internally
//! that a 64-query batch and a mixed update batch produce answers and
//! `CommStats`/`UpdateStats` byte counts identical to the in-process
//! backend, so this test only has to spawn the processes and assert the
//! exit codes — the same contract the CI smoke step checks from a shell.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_dsr-node");

struct Worker {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Worker {
    /// Spawns `dsr-node worker --listen 127.0.0.1:0` and parses the bound
    /// address from its first stdout line.
    fn spawn() -> Worker {
        Worker::spawn_with(&["--listen", "127.0.0.1:0"])
    }

    /// Spawns a long-lived worker (`--keep-serving`) that survives master
    /// loss and can be re-adopted by failover — the chaos-test flavor.
    fn spawn_keep_serving() -> Worker {
        Worker::spawn_with(&[
            "--listen",
            "127.0.0.1:0",
            "--keep-serving",
            "--io-timeout-ms",
            "4000",
        ])
    }

    /// Restarts a killed worker on its old (now free) address, as a
    /// long-lived worker ready to be resynced.
    fn respawn_at(addr: &str) -> Worker {
        Worker::spawn_with(&[
            "--listen",
            addr,
            "--keep-serving",
            "--io-timeout-ms",
            "4000",
        ])
    }

    fn spawn_with(args: &[&str]) -> Worker {
        let mut full = vec!["worker"];
        full.extend_from_slice(args);
        let mut child = Command::new(BIN)
            .args(&full)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn dsr-node worker");
        let mut stdout = BufReader::new(child.stdout.take().expect("worker stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read worker banner");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("banner ends with the address")
            .to_string();
        assert!(
            line.contains("listening on") && addr.contains(':'),
            "unexpected worker banner: {line:?}"
        );
        Worker {
            child,
            addr,
            stdout,
        }
    }

    /// Kills the worker process outright — the chaos move.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits for the worker to exit cleanly after its master session.
    fn finish(mut self) {
        let status = self.child.wait().expect("worker exits");
        let mut rest = String::new();
        use std::io::Read;
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        assert!(
            status.success(),
            "worker must exit 0 after a clean session; output:\n{rest}"
        );
        assert!(
            rest.contains("session complete"),
            "worker reports a clean session end; output:\n{rest}"
        );
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn one_master_three_workers_answer_batches_byte_identically() {
    let workers = [Worker::spawn(), Worker::spawn(), Worker::spawn()];
    let cluster = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");

    let output = Command::new(BIN)
        .args([
            "master",
            "--workers",
            &cluster,
            "--queries",
            "64",
            "--updates",
            "24",
        ])
        .output()
        .expect("run dsr-node master");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "master must verify the cluster; stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("query batch costs 3 rounds"), "{stdout}");
    assert!(
        stdout.contains("all checks passed"),
        "byte-identity verified: {stdout}"
    );
    assert!(!stdout.contains("FAIL"), "no failed checks: {stdout}");

    for worker in workers {
        worker.finish();
    }
}

#[test]
fn worker_bind_conflict_exits_nonzero_with_the_address() {
    // First worker takes a port...
    let holder = Worker::spawn();
    // ...second worker asking for the same port must fail fast with an
    // actionable message naming the address, not panic or hang.
    let output = Command::new(BIN)
        .args(["worker", "--listen", &holder.addr])
        .output()
        .expect("run conflicting worker");
    assert!(
        !output.status.success(),
        "bind conflict must exit nonzero (stdout: {})",
        String::from_utf8_lossy(&output.stdout)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("failed to bind") && stderr.contains(&holder.addr),
        "actionable bind error naming {}; got:\n{stderr}",
        holder.addr
    );
    // `holder` is killed by Drop.
}

/// Runs a replicated master while `trigger(line) -> Option<action>` watches
/// its stdout; returns (exit-ok, full stdout). Actions run at most once.
fn run_chaos_master<F: FnMut(&str)>(args: &[&str], mut on_line: F) -> (bool, String) {
    let mut master = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsr-node master");
    let mut reader = BufReader::new(master.stdout.take().expect("master stdout piped"));
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read master stdout") == 0 {
            break;
        }
        on_line(&line);
        lines.push(line.clone());
    }
    let status = master.wait().expect("master exits");
    let mut stderr = String::new();
    use std::io::Read;
    if let Some(mut pipe) = master.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    (status.success(), lines.concat() + &stderr)
}

#[test]
fn replicated_cluster_survives_a_worker_kill_midrun() {
    // 3 long-lived workers, replication 2: every partition has a backup
    // replica, so losing one worker mid-run must not lose a single answer.
    let mut workers = [
        Worker::spawn_keep_serving(),
        Worker::spawn_keep_serving(),
        Worker::spawn_keep_serving(),
    ];
    let cluster = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");

    let mut killed = false;
    let (ok, stdout) = run_chaos_master(
        &[
            "master",
            "--workers",
            &cluster,
            "--replication",
            "2",
            "--vertices",
            "400",
            "--queries",
            "32",
            "--updates",
            "24",
            "--batches",
            "6",
            "--pause-ms",
            "150",
        ],
        |line| {
            // Kill worker 1 right after the update batch: the remaining
            // 5 query batches all run against a degraded cluster.
            if !killed && line.starts_with("update batch:") {
                workers[1].kill();
                killed = true;
            }
        },
    );
    assert!(killed, "never saw the update batch line:\n{stdout}");
    assert!(ok, "master must survive the kill and exit 0:\n{stdout}");
    assert!(!stdout.contains("FAIL"), "no failed checks:\n{stdout}");
    assert!(stdout.contains("all checks passed"), "{stdout}");
    // Every post-kill batch still answered correctly...
    for batch in 2..=6 {
        assert!(
            stdout.contains(&format!("PASS  batch {batch}: answers match")),
            "batch {batch} verified:\n{stdout}"
        );
    }
    // ...and the failover counters show the reroute actually happened.
    let failover = stdout
        .lines()
        .find(|l| l.starts_with("failover:"))
        .expect("failover summary line");
    assert!(!failover.contains("retries=0"), "retried: {failover}");
    assert!(failover.contains("suspects=1"), "one suspect: {failover}");
}

#[test]
fn killed_worker_rejoins_and_resyncs_via_deltas() {
    let mut workers = [
        Worker::spawn_keep_serving(),
        Worker::spawn_keep_serving(),
        Worker::spawn_keep_serving(),
    ];
    let cluster = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let dead_addr = workers[2].addr.clone();

    let mut killed = false;
    let mut restarted: Option<Worker> = None;
    let (ok, stdout) = run_chaos_master(
        &[
            "master",
            "--workers",
            &cluster,
            "--replication",
            "2",
            "--vertices",
            "400",
            "--queries",
            "32",
            "--updates",
            "24",
            "--batches",
            "8",
            "--pause-ms",
            "250",
        ],
        |line| {
            if !killed && line.starts_with("update batch:") {
                workers[2].kill();
                killed = true;
            }
            // Once failover has routed batch 2 around the corpse, restart
            // the worker on the same port: a later inter-batch rejoin pass
            // must re-adopt it.
            if killed && restarted.is_none() && line.contains("batch 2: answers match") {
                restarted = Some(Worker::respawn_at(&dead_addr));
            }
        },
    );
    assert!(killed, "never saw the update batch line:\n{stdout}");
    assert!(restarted.is_some(), "never restarted the worker:\n{stdout}");
    assert!(ok, "master must finish the run and exit 0:\n{stdout}");
    assert!(!stdout.contains("FAIL"), "no failed checks:\n{stdout}");
    // The restarted worker was re-adopted: reconnected and routed to again
    // (a worker holds no state to restore).
    assert!(
        stdout.contains("resync: worker(s) [2] rejoined"),
        "rejoin reported:\n{stdout}"
    );
    let failover = stdout
        .lines()
        .find(|l| l.starts_with("failover:"))
        .expect("failover summary line");
    assert!(
        !failover.contains("resyncs=0"),
        "resync counted: {failover}"
    );
    assert!(failover.contains("suspects=1"), "one suspect: {failover}");
}

#[test]
fn master_against_no_workers_exits_nonzero() {
    let output = Command::new(BIN)
        .args(["master", "--workers", "127.0.0.1:1"])
        .output()
        .expect("run master against a dead address");
    assert!(!output.status.success(), "must fail, nothing listens there");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("127.0.0.1:1"),
        "error names the unreachable worker:\n{stderr}"
    );
}
