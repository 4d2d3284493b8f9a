//! The program's user-facing surfaces, driven from outside: one-shot
//! `qsmt solve` processes and a `qsmt serve` instance over loopback
//! HTTP, plus the OS accounting (CPU time, peak RSS) of those processes.

use crate::check::{parse_cli_output, Answer, Value, Verdict};
use qsmt_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `qsmt solve <file> --seed N [--portfolio] [--report PATH]` to
/// completion and returns its parsed answer and its wall time in
/// microseconds.
pub fn solve_cli(
    qsmt: &Path,
    file: &Path,
    seed: u64,
    portfolio: bool,
    report: Option<&Path>,
) -> (Result<Answer, String>, f64) {
    let mut cmd = Command::new(qsmt);
    cmd.arg("solve")
        .arg(file)
        .arg("--seed")
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if portfolio {
        cmd.arg("--portfolio");
    }
    if let Some(path) = report {
        cmd.arg("--report").arg(path);
    }
    let started = Instant::now();
    let output = cmd.output();
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    let answer = match output {
        Err(e) => Err(format!("cannot run {}: {e}", qsmt.display())),
        Ok(out) if !out.status.success() => Err(format!(
            "qsmt solve exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
        Ok(out) => parse_cli_output(&String::from_utf8_lossy(&out.stdout)),
    };
    (answer, wall_us)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// CPU time (user + sys, µs) and peak RSS (KiB) over every child
/// process this process has waited for.
pub fn children_usage() -> (f64, f64) {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout declared above; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) cannot fail with a valid pointer"
    );
    let us = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    (us(&usage.utime) + us(&usage.stime), usage.maxrss as f64)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel's 1024-bit `cpu_set_t`.
type CpuMask = [u64; 16];

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts this process, and the children it spawns from now on, to
/// `cpus`. Best effort: on failure the affinity stays as it was.
pub fn pin_self(cpus: &[usize]) {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Host-wide CPU time stolen by the hypervisor and total CPU time so
/// far, in clock ticks (`/proc/stat`); (0, 0) where unavailable.
pub fn host_steal_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    let steal = fields.get(7).copied().unwrap_or(0.0);
    (steal, fields.iter().take(8).sum())
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes each
/// connection after its response). Returns the status code and body.
///
/// # Errors
/// Connection, timeout, and malformed-response failures.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = Some(Duration::from_secs(30));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// A running `qsmt serve --workers 1` instance on a loopback port.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

/// What one request through [`Server::solve`] produced.
#[derive(Debug, Clone)]
pub struct Served {
    /// The answer, or why there is none (refusal, failure, timeout).
    pub answer: Result<Answer, String>,
    /// When the status document showing the job in a terminal state
    /// arrived (for a refused or failed request, when that was known).
    pub done: Instant,
    /// Round trip of the POST that submitted the job, µs.
    pub submit_us: f64,
    /// The job's own solve time from its run report, µs.
    pub job_run_us: f64,
    /// The service answered 429 (queue full).
    pub rejected: bool,
    /// The job ended `timed_out`.
    pub timed_out: bool,
    /// Each solve's cache outcome from the run report, in order.
    pub cache: Vec<String>,
}

impl Served {
    fn new() -> Served {
        Served {
            answer: Err(String::new()),
            done: Instant::now(),
            submit_us: 0.0,
            job_run_us: 0.0,
            rejected: false,
            timed_out: false,
            cache: Vec::new(),
        }
    }
}

/// Poll period while waiting for a job to finish.
const POLL: Duration = Duration::from_millis(2);

/// A job not finished after this long counts as timed out.
const JOB_CAP: Duration = Duration::from_secs(60);

impl Server {
    /// Starts `qsmt serve` on a free loopback port with one worker and
    /// the default solution cache, and waits until `/healthz` answers.
    ///
    /// # Errors
    /// The process cannot start, never prints its address, or never
    /// becomes healthy.
    pub fn start(qsmt: &Path, seed: u64) -> Result<Server, String> {
        let mut child = Command::new(qsmt)
            .args(["serve", "--metrics-addr", "127.0.0.1:0", "--workers", "1"])
            .args(["--job-timeout", &JOB_CAP.as_millis().to_string()])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {} serve: {e}", qsmt.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("metrics listening on http://")
                .map(str::to_string),
            _ => None,
        };
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
        };
        server.addr = addr.ok_or_else(|| format!("serve printed {line:?}, not its address"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if matches!(server.get("/healthz"), Ok((200, _))) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// GET `path`.
    ///
    /// # Errors
    /// See [`http`].
    pub fn get(&self, path: &str) -> Result<(u16, String), String> {
        http(&self.addr, "GET", path, "")
    }

    /// Submits `source` with solver seed `seed` and polls the job until
    /// it reaches a terminal state.
    pub fn solve(&self, source: &str, seed: u64) -> Served {
        let mut served = Served::new();
        let accepted = self.submit(source, seed, &mut served);
        served.done = Instant::now();
        served.answer = accepted.and_then(|accepted| self.await_job(&accepted, &mut served));
        served
    }

    /// Submits every `(source, seed)` job before waiting for any, then
    /// waits for each in turn. The single worker runs the jobs in
    /// submission order, as if they came one at a time, while the
    /// client's round trips overlap with the solving.
    pub fn solve_batch(&self, jobs: &[(&str, u64)]) -> Vec<Served> {
        let mut batch: Vec<(Served, Result<String, String>)> = jobs
            .iter()
            .map(|&(source, seed)| {
                let mut served = Served::new();
                let accepted = self.submit(source, seed, &mut served);
                served.done = Instant::now();
                (served, accepted)
            })
            .collect();
        for (served, accepted) in &mut batch {
            served.answer = match accepted {
                Ok(accepted) => self.await_job(accepted, served),
                Err(e) => Err(e.clone()),
            };
        }
        batch.into_iter().map(|(served, _)| served).collect()
    }

    /// POSTs one job; returns the 202 body.
    fn submit(&self, source: &str, seed: u64, served: &mut Served) -> Result<String, String> {
        let sent = Instant::now();
        let posted = http(&self.addr, "POST", &format!("/solve?seed={seed}"), source);
        served.submit_us = sent.elapsed().as_secs_f64() * 1e6;
        match posted {
            Ok((202, body)) => Ok(body),
            Ok((status, body)) => {
                served.rejected = status == 429;
                Err(format!(
                    "submission refused with HTTP {status}: {}",
                    body.trim()
                ))
            }
            Err(e) => Err(e),
        }
    }

    fn await_job(&self, accepted: &str, served: &mut Served) -> Result<Answer, String> {
        let doc = json::parse(accepted).map_err(|e| format!("bad 202 body: {e}"))?;
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or("202 body has no job id")?
            .to_string();
        let started = Instant::now();
        loop {
            let polled = self.get(&format!("/jobs/{id}"));
            // The job is observed when its status document arrives.
            // Parsing it is the client's cost, not the service's: a
            // completed job's document (the whole run report, up to
            // ~100 KB) takes the client's JSON parser milliseconds.
            served.done = Instant::now();
            let (status, body) = polled?;
            if status != 200 {
                return Err(format!("GET /jobs/{id} answered HTTP {status}"));
            }
            let doc = json::parse(&body).map_err(|e| format!("bad status document: {e}"))?;
            match doc.get("status").and_then(Json::as_str) {
                Some("completed") => {
                    let report = doc.get("report").ok_or("completed job without report")?;
                    return report_answer(report, served);
                }
                Some("failed") => {
                    let error = doc.get("error").and_then(Json::as_str).unwrap_or("?");
                    return Err(format!("job {id} failed: {error}"));
                }
                Some("timed_out") => {
                    served.timed_out = true;
                    return Err(format!("job {id} timed out"));
                }
                Some("queued" | "running") => {}
                other => return Err(format!("job {id} has unknown status {other:?}")),
            }
            if started.elapsed() > JOB_CAP * 2 {
                served.timed_out = true;
                return Err(format!("job {id} never finished"));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Total CPU time (user + sys) of the serve process so far, µs.
    ///
    /// # Errors
    /// `/proc` is unreadable.
    pub fn cpu_us(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("cannot read serve CPU time: {e}"))?;
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15, in clock ticks.
        let after = stat.rsplit_once(')').ok_or("bad /proc stat")?.1;
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
            return Err("bad /proc stat".into());
        };
        Ok((utime + stime) * 1e6 / clock_ticks_per_second())
    }

    /// Peak resident set size of the serve process so far, KiB.
    ///
    /// # Errors
    /// `/proc` is unreadable.
    pub fn peak_rss_kb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read serve memory: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Asks the service to drain and waits for the process to exit.
    ///
    /// # Errors
    /// The process does not exit cleanly within 30 s (it is then killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = http(&self.addr, "POST", "/shutdown", "");
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("serve did not drain in 30 s".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // No-ops after a clean shutdown; otherwise never leave it running.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and touches no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Reads the verdict, model, timing and cache outcomes out of a
/// completed job's run report.
fn report_answer(report: &Json, served: &mut Served) -> Result<Answer, String> {
    let status = report.get("status").and_then(Json::as_str).unwrap_or("");
    let verdict = Verdict::parse(status).ok_or_else(|| format!("bad report status {status:?}"))?;
    served.job_run_us = report
        .get("elapsed_us")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let mut model = Vec::new();
    for goal in report.get("goals").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = goal
            .get("name")
            .and_then(Json::as_str)
            .ok_or("goal without name")?;
        let answer = goal
            .get("answer")
            .and_then(Json::as_str)
            .ok_or("goal without answer")?;
        let value = if goal.get("kind").and_then(Json::as_str) == Some("index-query") {
            match answer {
                "(- 1)" => Value::Int(-1),
                n => Value::Int(n.parse().map_err(|_| format!("bad index answer {n:?}"))?),
            }
        } else {
            Value::Str(answer.to_string())
        };
        model.push((name.to_string(), value));
        for solve in goal.get("solves").and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some(outcome) = solve
                .get("cache")
                .and_then(|c| c.get("outcome"))
                .and_then(Json::as_str)
            {
                served.cache.push(outcome.to_string());
            }
        }
    }
    Ok(Answer { verdict, model })
}
