//! Failover: bringing the mesh to a serving state, the one retry loop of a
//! collective (attribution, suspicion, bounded backoff), fault injection,
//! liveness probes and the rejoin of recovered workers. A worker holds no
//! state, so a rejoin is a reconnect.

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use super::master::{MasterState, TcpTransport};
use crate::error::TransportError;
use crate::fault::{Fault, FaultPhase, FaultPlan};
use crate::topology::Topology;

/// First failover retry delay; doubles per retry up to
/// [`FAILOVER_BACKOFF_MAX`].
const FAILOVER_BACKOFF_START: Duration = Duration::from_millis(25);
const FAILOVER_BACKOFF_MAX: Duration = Duration::from_millis(400);

/// Connect timeout for liveness probes (failure attribution and rejoin
/// attempts): a dead process refuses instantly, so this stays short.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// An armed [`Fault`]: `fired` once the link was severed, `attributed`
/// once a collective failure was blamed on it.
pub(super) struct ArmedFault {
    fault: Fault,
    fired: bool,
    attributed: bool,
}

impl TcpTransport {
    /// Arms `plan` on this transport: each planned fault severs its
    /// worker's master link at the start of the first matching collective,
    /// exactly as if the worker process died at that moment. See
    /// [`FaultPlan`].
    pub fn inject_faults(&self, plan: FaultPlan) {
        let mut armed = dsr_sync::lock(&self.faults);
        armed.extend(plan.faults().iter().map(|&fault| ArmedFault {
            fault,
            fired: false,
            attributed: false,
        }));
    }

    /// Tries to re-adopt every suspect worker with a short-timeout
    /// reconnect. Returns the ids of the workers that came back; each one
    /// clears its suspect flag and counts one
    /// [`resync`](crate::FailoverSnapshot::resyncs). A worker holds no
    /// state, so the reconnect is the whole resync.
    ///
    /// Rejoin never happens implicitly mid-collective — the caller decides
    /// when (typically between query/update batches).
    pub fn rejoin_suspects(&self) -> Vec<usize> {
        let mut state = dsr_sync::lock(&self.state);
        let suspects = state
            .topology
            .as_ref()
            .map_or_else(Vec::new, Topology::suspects);
        if suspects.is_empty() {
            return Vec::new();
        }
        let probe_timeout = state.spec.connect_timeout.min(PROBE_TIMEOUT);
        let mut rejoined = Vec::new();
        for worker in suspects {
            state.epoch += 1;
            let Ok(link) = state.connect(worker, state.epoch, probe_timeout) else {
                continue; // still down; stays suspect
            };
            if let Some(topology) = state.topology.as_mut() {
                topology.mark_live(worker);
            }
            state.links[worker] = Some(link);
            self.failover.record_resync();
            rejoined.push(worker);
        }
        if !rejoined.is_empty() {
            // Reset every session so the next collective reconnects the
            // whole cluster at one shared epoch (mixed epochs would wedge
            // the worker-to-worker lanes), every hello carrying the roster.
            state.drop_all_links();
        }
        rejoined
    }

    /// Opens a `width`-wide collective of `phase`: brings the mesh to a
    /// serving state, then severs the links of every armed, unfired fault
    /// matching `phase`, and advances the collective clock.
    pub(super) fn begin_collective(
        &self,
        state: &mut MasterState,
        width: usize,
        phase: FaultPhase,
    ) -> Result<(), TransportError> {
        self.ensure_ready(state, width)?;
        let collective = state.collectives;
        state.collectives += 1;
        for fault in dsr_sync::lock(&self.faults).iter_mut() {
            if fault.fired || collective < fault.fault.after || !fault.fault.phase.matches(phase) {
                continue;
            }
            fault.fired = true;
            if let Some(link) = state.links.get(fault.fault.worker).and_then(Option::as_ref) {
                let _ = link.stream.shutdown(Shutdown::Both);
            }
        }
        Ok(())
    }

    /// The one retry loop of a collective: runs `attempt` against the
    /// current routing (`route[p]` serves partition `p`) until it reports
    /// no failed worker, or its failures are not what failover can route
    /// around. Between attempts the culprits turn suspect, the loop backs
    /// off (doubling, bounded) and reconnects what the next attempt needs;
    /// `reset_sessions` drops every link first — what an exchange needs,
    /// whose lanes ran through the dead worker's session.
    pub(super) fn with_failover(
        &self,
        state: &mut MasterState,
        width: usize,
        reset_sessions: bool,
        mut attempt: impl FnMut(&mut MasterState, &[usize]) -> Vec<(usize, TransportError)>,
    ) -> Result<(), TransportError> {
        let mut backoff = FAILOVER_BACKOFF_START;
        for attempts in 1.. {
            let topology = state.topology.as_ref().expect("ensured");
            let mut route = Vec::with_capacity(width);
            for partition in 0..width {
                let worker = topology.route(partition);
                route.push(worker.ok_or(TransportError::NoReplica { partition })?);
            }
            let failures = attempt(state, &route);
            if failures.is_empty() {
                break;
            }
            self.absorb_failures(state, failures, attempts, reset_sessions)?;
            dsr_sync::thread::sleep(backoff);
            backoff = (backoff * 2).min(FAILOVER_BACKOFF_MAX);
            self.ensure_ready(state, width)?;
        }
        Ok(())
    }

    /// Brings the mesh to a serving state for a `width`-wide collective:
    /// grows/derives the topology, then (re)connects every non-suspect
    /// worker **in one batch at one epoch** whenever any link is missing.
    /// A worker that refuses the reconnect is marked suspect; the loop then
    /// retries with the shrunken roster until the topology is either
    /// served or unroutable.
    fn ensure_ready(&self, state: &mut MasterState, width: usize) -> Result<(), TransportError> {
        state.ensure_mesh(width)?;
        loop {
            let topology = state.topology.as_ref().expect("ensured");
            let live: Vec<usize> = (0..state.links.len())
                .filter(|&worker| !topology.is_suspect(worker))
                .collect();
            if live.iter().all(|&worker| state.links[worker].is_some()) {
                return Ok(());
            }
            state.drop_all_links();
            state.epoch += 1;
            let mut failed = None;
            for worker in live {
                match state.connect(worker, state.epoch, state.spec.connect_timeout) {
                    Ok(link) => state.links[worker] = Some(link),
                    Err(err) => {
                        failed = Some((worker, err));
                        break;
                    }
                }
            }
            let Some((worker, err)) = failed else {
                return Ok(());
            };
            let topology = state.topology.as_mut().expect("ensured");
            if topology.mark_suspect(worker) {
                self.failover.record_suspect();
            }
            if !topology.fully_routable() {
                // The typed connect error names the worker; the caller can
                // restart it and rejoin.
                return Err(err);
            }
            // Some partition still has a live replica: retry the batch
            // without the dead worker.
        }
    }

    /// Digests the per-worker failures of one collective attempt:
    /// attributes them to culprit workers, marks those suspect, and
    /// decides between *retry against the next replica* (`Ok`) and
    /// *surface the primary error* (`Err`: non-connectivity failure,
    /// unroutable topology, or retry budget exhausted). The collective
    /// ends on an `Err`, possibly with half a reply unread on some link,
    /// so every link is dropped first: the next collective reconnects at a
    /// fresh epoch instead of reading those leftovers as its own replies.
    fn absorb_failures(
        &self,
        state: &mut MasterState,
        mut failures: Vec<(usize, TransportError)>,
        attempts: usize,
        reset_sessions: bool,
    ) -> Result<(), TransportError> {
        failures.sort_by_key(|&(worker, _)| worker);
        // Protocol violations and decode failures are not what failover is
        // for: retrying them against another replica cannot help.
        let fatal = failures
            .iter()
            .position(|(_, err)| !err.is_connectivity_loss());
        if let Some(at) = fatal {
            state.drop_all_links();
            return Err(failures.swap_remove(at).1);
        }
        let failed: Vec<usize> = failures.iter().map(|&(worker, _)| worker).collect();

        // Attribute the loss. A dying worker takes collateral victims (a
        // peer blocked reading its lane also times out / resets), and
        // suspecting a healthy worker wastes a replica — so: (1) armed
        // faults that fired and were not yet blamed, (2) workers whose
        // listener refuses a probe (a dead process refuses instantly),
        // (3) the lowest failed id as a last resort.
        let mut culprits: Vec<usize> = Vec::new();
        for fault in dsr_sync::lock(&self.faults).iter_mut() {
            if fault.fired && !fault.attributed && failed.contains(&fault.fault.worker) {
                fault.attributed = true;
                culprits.push(fault.fault.worker);
            }
        }
        if culprits.is_empty() {
            let roster = &state.spec.workers;
            culprits.extend(
                failed
                    .iter()
                    .filter(|&&w| probe_worker(&roster[w]).is_err()),
            );
        }
        if culprits.is_empty() {
            culprits.push(failed[0]);
        }
        culprits.sort_unstable();
        culprits.dedup();

        let blamed = failures.iter().position(|(w, _)| culprits.contains(w));
        let primary = failures.swap_remove(blamed.unwrap_or(0)).1;
        let topology = state
            .topology
            .as_mut()
            .expect("collective ran, topology exists");
        for &worker in &culprits {
            if topology.mark_suspect(worker) {
                self.failover.record_suspect();
            }
            if let Some(link) = state.links[worker].take() {
                let _ = link.stream.shutdown(Shutdown::Both);
            }
        }
        if !topology.fully_routable() || attempts > state.spec.workers.len() + 1 {
            state.drop_all_links();
            return Err(primary);
        }
        if reset_sessions {
            // An exchange wove worker-to-worker lanes through the dead
            // worker's session; every survivor may hold a wedged or
            // half-consumed lane. Reset all sessions so the retry starts
            // from clean streams at one shared epoch.
            state.drop_all_links();
        }
        self.failover.record_retry();
        Ok(())
    }
}

/// Short-timeout liveness probe: can `addr` still be connected to? A
/// killed worker process refuses instantly; a live one accepts (the
/// connection is immediately shut down without a hello, which its
/// handshake thread treats as noise).
fn probe_worker(addr: &str) -> Result<(), ()> {
    let resolved: SocketAddr = addr.to_socket_addrs().map_err(|_| ())?.next().ok_or(())?;
    let stream = TcpStream::connect_timeout(&resolved, PROBE_TIMEOUT).map_err(|_| ())?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}
