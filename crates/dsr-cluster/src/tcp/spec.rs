//! [`ClusterSpec`]: the workers, the replication factor and the socket
//! policies, from TOML text or written in code, checked by one
//! [`ClusterSpec::validate`]. Placement is not part of a spec: partitions
//! go round-robin over the workers
//! ([`Topology::round_robin`](crate::Topology::round_robin)).

use std::collections::HashMap;
use std::time::Duration;

/// Describes a TCP cluster: the worker addresses and the socket policies.
///
/// Written in code ([`ClusterSpec::new`] plus field assignments, checked
/// with [`ClusterSpec::validate`]) or parsed from TOML text
/// ([`ClusterSpec::from_toml_str`]):
///
/// ```toml
/// # cluster.toml — addresses in partition order; partition p is hosted by
/// # worker p % len(workers).
/// workers = ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
/// connect_timeout_ms = 5000
/// io_timeout_ms = 30000
/// ```
///
/// ```
/// # use dsr_cluster::ClusterSpec;
/// let mut spec = ClusterSpec::new(vec!["a:1".into(), "b:2".into()]);
/// spec.replication = 2;
/// spec.validate().expect("valid spec");
/// ```
///
/// With `replication = 2` every partition is hosted by two workers
/// (round-robin placement), and the master retries a failed collective leg
/// against the next replica instead of failing the query — see the crate's
/// fault-tolerance docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Worker addresses (`host:port`), in worker-id order.
    pub workers: Vec<String>,
    /// How long [`TcpTransport::connect`](crate::TcpTransport::connect)
    /// waits for each worker socket.
    pub connect_timeout: Duration,
    /// Read/write timeout of every cluster socket: an exceeded one is a
    /// [`TransportError::Timeout`](crate::TransportError::Timeout), not a
    /// hang.
    pub io_timeout: Duration,
    /// How many workers host each partition (default 1 = no replication).
    /// Placement is round-robin: partition `p` lives on workers
    /// `p % W, (p+1) % W, …`.
    pub replication: usize,
}

impl ClusterSpec {
    /// A spec for `workers` with the default timeouts (5 s connect,
    /// 30 s I/O) and no replication.
    pub fn new(workers: Vec<String>) -> Self {
        ClusterSpec {
            workers,
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            replication: 1,
        }
    }

    /// Checks the rules every spec obeys, however it was written: at least
    /// one worker and `replication ≥ 1`. The error describes the first rule
    /// the spec breaks.
    pub fn validate(&self) -> Result<(), String> {
        self.broken_rule().map_or(Ok(()), |(_, reason)| Err(reason))
    }

    /// The first rule this spec breaks: the TOML key it concerns, and why.
    fn broken_rule(&self) -> Option<(&'static str, String)> {
        if self.workers.is_empty() {
            return Some(("workers", "`workers` must list at least one address".into()));
        }
        if self.replication == 0 {
            return Some(("replication", "replication must be at least 1".into()));
        }
        None
    }

    /// Parses the TOML subset shown in the type docs: `key = value` lines,
    /// string arrays, integers, `#` comments, and an optional `[cluster]`
    /// section header. Unknown keys are rejected (a typo should fail, not
    /// silently fall back to a default); a spec that breaks a rule of
    /// [`ClusterSpec::validate`] is refused naming the line of its key.
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        let mut spec = ClusterSpec::new(Vec::new());
        let mut line_of: HashMap<&str, usize> = HashMap::new();
        for (number, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(at) => &raw[..at],
                None => raw,
            }
            .trim();
            if line.is_empty() || line == "[cluster]" {
                continue;
            }
            let number = number + 1;
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {number}: expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            let millis = || parse_integer(value, number).map(Duration::from_millis);
            match key {
                "workers" => spec.workers = parse_string_array(value, number)?,
                "connect_timeout_ms" => spec.connect_timeout = millis()?,
                "io_timeout_ms" => spec.io_timeout = millis()?,
                "replication" => spec.replication = parse_integer(value, number)? as usize,
                other => {
                    return Err(format!(
                        "line {number}: unknown key {other:?} (expected workers, \
                         connect_timeout_ms, io_timeout_ms or replication)"
                    ))
                }
            }
            line_of.insert(key, number);
        }
        if !line_of.contains_key("workers") {
            return Err("missing `workers = [...]`".to_string());
        }
        match spec.broken_rule() {
            None => Ok(spec),
            Some((key, reason)) => Err(format!("line {}: {reason}", line_of[key])),
        }
    }
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("line {line}: expected a [\"...\"] array"))?;
    // Split on commas *outside* quotes: a quoted item is taken whole,
    // whatever it contains, and an unterminated quote is refused.
    let mut pieces = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for ch in inner.chars() {
        match ch {
            '"' => {
                in_quotes = !in_quotes;
                current.push(ch);
            }
            ',' if !in_quotes => pieces.push(std::mem::take(&mut current)),
            _ => current.push(ch),
        }
    }
    if in_quotes {
        return Err(format!("line {line}: unterminated string in array"));
    }
    pieces.push(current);
    let mut items = Vec::new();
    for piece in &pieces {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let unquoted = piece
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("line {line}: array items must be double-quoted strings"))?;
        items.push(unquoted.to_string());
    }
    Ok(items)
}

fn parse_integer(value: &str, line: usize) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("line {line}: expected an integer, got {value:?}"))
}
