//! Deterministic occupancy sampling: periodic read-only probes over a
//! running cluster.
//!
//! The sampler is driven *between* calendar events: a sampled
//! [`Cluster::run`] peeks at the next event time
//! ([`apenet_sim::Sim::peek_next_at`]) and
//! fires every sample tick that falls strictly before it, then dispatches
//! the event. A tick at simulated time `T` therefore observes the state
//! left by every event with time ≤ `T` — and because nothing is ever
//! scheduled, no sequence number is consumed and no event is reordered,
//! the sampled run is *bit-identical* to an unsampled one. The golden
//! two-pass test holds this to the digest level.
//!
//! What gets recorded, per node rank `r`, into [`TimeSeries`] metrics:
//!
//! * `card{r}.*` — TX FIFO bytes/packets, header-FIFO elasticity
//!   (`push_wait`), staged and outstanding byte credits, open TX jobs,
//!   partially reassembled RX messages, RX event-ring fill and held-back
//!   completions;
//! * `card{r}.link.{dir}.*` — per-port go-back-N occupancy (replay and
//!   pending queues, in-flight window) and the cumulative wire-byte
//!   counter the congestion heatmap differentiates;
//! * `nios{r}.*` — cumulative firmware busy time and task count;
//! * `pcie{r}.*` — cumulative wire bytes on the card's PCIe uplink,
//!   both directions;
//! * `cluster.calendar` — pending-event count of the engine itself.

use crate::cluster::Cluster;
use apenet_core::coord::LinkDir;
use apenet_obs::Registry;
use apenet_pcie::link::Dir;
use apenet_sim::{SimDuration, SimTime};

/// Short stable labels for the six torus directions plus loop-back,
/// in port-index order.
pub const PORT_LABELS: [&str; 7] = ["x+", "x-", "y+", "y-", "z+", "z-", "lb"];

/// Label for the port of `dir`.
pub fn dir_label(dir: LinkDir) -> &'static str {
    PORT_LABELS[dir.index()]
}

/// The periodic occupancy probe. Owns a private [`Registry`] so sampled
/// series never leak into the global metrics namespace; consumers read
/// it back (or discard it, as the golden tests do) after the run.
pub struct OccupancySampler {
    period: SimDuration,
    next: SimTime,
    last: Option<SimTime>,
    samples: u64,
    reg: Registry,
}

impl OccupancySampler {
    /// A sampler with the given period, first tick at one period.
    pub fn new(period: SimDuration) -> Self {
        OccupancySampler {
            period,
            next: SimTime::ZERO + period,
            last: None,
            samples: 0,
            reg: Registry::new(),
        }
    }

    /// The sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Ticks taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The registry holding every recorded [`apenet_obs::TimeSeries`].
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Every recorded series as `(id, points)`, sorted by id — the
    /// shape [`apenet_obs::perfetto::counter_events`] consumes.
    pub fn series(&self) -> Vec<(String, Vec<(u64, u64)>)> {
        self.reg
            .series_ids()
            .into_iter()
            .map(|id| {
                let pts = self.reg.series(&id).points();
                (id, pts)
            })
            .collect()
    }

    /// Take one sample of `cluster` at simulated time `at`. Read-only:
    /// walks actor state and shared handles, pushes into the private
    /// registry, schedules nothing.
    pub fn sample(&mut self, at: SimTime, cluster: &Cluster) {
        for rank in 0..cluster.dims.nodes() {
            let card = cluster.card(rank).card();
            let occ = card.occupancy();
            let s = |suffix: &str| self.reg.series(&format!("card{rank}.{suffix}"));
            s("tx_fifo_bytes").push(at, occ.tx_fifo_bytes);
            s("tx_fifo_packets").push(at, occ.tx_fifo_packets as u64);
            s("push_wait").push(at, occ.push_wait as u64);
            s("staged_pending").push(at, occ.staged_pending);
            s("outstanding").push(at, occ.outstanding_total);
            s("tx_jobs").push(at, occ.tx_jobs as u64);
            s("rx_partial").push(at, occ.rx_partial_msgs as u64);
            s("rx_ring_used").push(at, occ.rx_ring_used as u64);
            s("rx_ring_held").push(at, occ.rx_ring_held as u64);
            for (pi, label) in PORT_LABELS.iter().enumerate() {
                let p = occ.ports[pi];
                let l = |suffix: &str| {
                    self.reg
                        .series(&format!("card{rank}.link.{label}.{suffix}"))
                };
                l("wire_bytes").push(at, p.wire_bytes);
                // Go-back-N state only exists on the torus directions.
                if pi < 6 {
                    l("replay").push(at, p.replay as u64);
                    l("pending").push(at, p.pending as u64);
                    l("in_flight").push(at, p.in_flight);
                }
            }
            self.reg
                .series(&format!("nios{rank}.busy_ps"))
                .push(at, card.nios.busy_total().as_ps());
            self.reg
                .series(&format!("nios{rank}.tasks"))
                .push(at, card.nios.tasks_run());
            let shared = &cluster.nodes[rank].shared;
            let fabric = shared.fabric.borrow();
            self.reg
                .series(&format!("pcie{rank}.up_bytes"))
                .push(at, fabric.uplink_carried(shared.nic_dev, Dir::Up));
            self.reg
                .series(&format!("pcie{rank}.down_bytes"))
                .push(at, fabric.uplink_carried(shared.nic_dev, Dir::Down));
        }
        self.reg
            .series("cluster.calendar")
            .push(at, cluster.sim.pending() as u64);
        self.last = Some(at);
        self.samples += 1;
    }
}

impl Cluster {
    /// Run to quiescence, taking a sample every period of simulated
    /// time (plus one final sample at the end so cumulative counters
    /// cover the whole run). The final simulated time — and every
    /// scheduled event — is identical to an unsampled run.
    pub(crate) fn run_sampled(&mut self, sampler: &mut OccupancySampler) -> SimTime {
        while let Some(at) = self.sim.peek_next_at() {
            while sampler.next < at {
                let tick = sampler.next;
                sampler.next = tick + sampler.period;
                sampler.sample(tick, self);
            }
            self.sim.step();
        }
        let end = self.sim.now();
        if sampler.last != Some(end) {
            sampler.sample(end, self);
        }
        end
    }
}
