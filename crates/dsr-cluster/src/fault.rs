//! Deterministic fault injection for the TCP cluster.
//!
//! A [`FaultPlan`] describes worker failures to inject at precise points of
//! the protocol: *disconnect worker W before collective N, during phase P*.
//! The plan is armed on a [`TcpTransport`](crate::TcpTransport) with
//! [`inject_faults`](crate::TcpTransport::inject_faults); at the start of
//! every matching collective the transport severs the planned worker's
//! connection exactly as if the process had died, so the failure takes the
//! organic path — a read or write on the dead socket — rather than a
//! simulated shortcut. The unit tests arm plans on loopback clusters
//! in process.
//!
//! A test that needs worker `w` gone before the next collective arms the
//! one-fault plan `FaultPlan::new().disconnect(w)` (`worker=w` in the text
//! form: any phase, no threshold).

/// Which collective a [`Fault`] is allowed to fire in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPhase {
    /// Fire in whichever collective comes first.
    #[default]
    Any,
    /// Only fire at the start of a scatter round.
    Scatter,
    /// Only fire at the start of a gather round.
    Gather,
    /// Only fire at the start of an all-to-all exchange.
    Exchange,
}

impl FaultPhase {
    /// Whether a fault restricted to `self` fires in `observed`.
    pub fn matches(self, observed: FaultPhase) -> bool {
        self == FaultPhase::Any || self == observed
    }
}

/// One planned failure: sever `worker`'s master link before the first
/// collective whose index is `>= after` and whose phase matches `phase`.
/// Collectives are counted from 0 across the transport's lifetime, each
/// scatter / gather / all-to-all incrementing the count once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Worker id to disconnect.
    pub worker: usize,
    /// Fire before the first collective with index `>= after` (0 = the
    /// next collective).
    pub after: u64,
    /// Restrict firing to one collective phase, or [`FaultPhase::Any`].
    pub phase: FaultPhase,
}

/// An ordered set of [`Fault`]s; see the [module docs](self). Built either
/// programmatically ([`FaultPlan::disconnect`] + [`FaultPlan::after`] /
/// [`FaultPlan::during`]) or parsed from its text form
/// ([`FaultPlan::parse`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends a fault disconnecting `worker` before the next collective of
    /// any phase. Refine it with [`FaultPlan::after`] / [`FaultPlan::during`].
    pub fn disconnect(mut self, worker: usize) -> Self {
        self.faults.push(Fault {
            worker,
            after: 0,
            phase: FaultPhase::Any,
        });
        self
    }

    /// Sets the collective threshold of the most recently added fault.
    ///
    /// # Panics
    /// Panics when the plan is empty.
    pub fn after(mut self, collective: u64) -> Self {
        self.faults
            .last_mut()
            .expect("after() needs a preceding disconnect()")
            .after = collective;
        self
    }

    /// Restricts the most recently added fault to one phase.
    ///
    /// # Panics
    /// Panics when the plan is empty.
    pub fn during(mut self, phase: FaultPhase) -> Self {
        self.faults
            .last_mut()
            .expect("during() needs a preceding disconnect()")
            .phase = phase;
        self
    }

    /// Parses the text form: semicolon-separated faults, each a
    /// comma-separated list of `worker=N` (required), `after=N`, and
    /// `phase=scatter|gather|exchange|any`.
    ///
    /// ```text
    /// worker=1,after=2,phase=exchange;worker=0,after=5
    /// ```
    ///
    /// # Errors
    /// Returns a description naming the offending clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut worker: Option<usize> = None;
            let mut after = 0u64;
            let mut phase = FaultPhase::Any;
            for part in clause.split(',') {
                let (key, value) = part
                    .split_once('=')
                    .ok_or_else(|| format!("fault clause {part:?}: expected key=value"))?;
                match (key.trim(), value.trim()) {
                    ("worker", v) => {
                        worker = Some(v.parse().map_err(|_| {
                            format!("fault clause {clause:?}: worker must be an integer")
                        })?)
                    }
                    ("after", v) => {
                        after = v.parse().map_err(|_| {
                            format!("fault clause {clause:?}: after must be an integer")
                        })?
                    }
                    ("phase", v) => {
                        phase = match v.to_ascii_lowercase().as_str() {
                            "any" => FaultPhase::Any,
                            "scatter" => FaultPhase::Scatter,
                            "gather" => FaultPhase::Gather,
                            "exchange" => FaultPhase::Exchange,
                            other => {
                                return Err(format!(
                                    "fault clause {clause:?}: unknown phase {other:?} \
                                     (expected any, scatter, gather or exchange)"
                                ))
                            }
                        }
                    }
                    (other, _) => {
                        return Err(format!(
                            "fault clause {clause:?}: unknown key {other:?} \
                             (expected worker, after or phase)"
                        ))
                    }
                }
            }
            let worker =
                worker.ok_or_else(|| format!("fault clause {clause:?}: missing worker=N"))?;
            plan.faults.push(Fault {
                worker,
                after,
                phase,
            });
        }
        Ok(plan)
    }

    /// The planned faults, in arming order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_faults() {
        let plan = FaultPlan::new()
            .disconnect(1)
            .after(2)
            .during(FaultPhase::Exchange)
            .disconnect(0);
        assert_eq!(
            plan.faults(),
            &[
                Fault {
                    worker: 1,
                    after: 2,
                    phase: FaultPhase::Exchange
                },
                Fault {
                    worker: 0,
                    after: 0,
                    phase: FaultPhase::Any
                },
            ]
        );
    }

    #[test]
    fn parses_the_chaos_form() {
        let plan = FaultPlan::parse("worker=1,after=2,phase=exchange; worker=0").expect("parses");
        assert_eq!(plan.faults().len(), 2);
        assert_eq!(plan.faults()[0].worker, 1);
        assert_eq!(plan.faults()[0].after, 2);
        assert_eq!(plan.faults()[0].phase, FaultPhase::Exchange);
        assert_eq!(
            plan.faults()[1],
            Fault {
                worker: 0,
                after: 0,
                phase: FaultPhase::Any
            }
        );
        assert!(FaultPlan::parse("").expect("empty is fine").is_empty());
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "worker",
            "after=2",
            "worker=x",
            "worker=1,phase=udp",
            "worker=1,bogus=2",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?} must be rejected");
        }
    }
}
