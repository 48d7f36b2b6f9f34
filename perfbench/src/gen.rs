//! Seeded input generator.
//!
//! Everything the simulated fleet is fed comes from here, as a pure
//! function of the workload and the `--seed`: the per-VM demand of every
//! 1 s tick, which VMs carry the recurrent fault, and the chaos plan of
//! the durable workload. Nothing here reads the cluster or the
//! controller, so the inputs are the same whatever the controller
//! decides; [`Generator::digest`] folds every generated value so two runs
//! can show they were fed byte-identical inputs.

use prepare_cloudsim::{ChaosKind, ChaosPlan, Demand};
use prepare_metrics::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds between two monitoring (and control) rounds.
pub const SAMPLING_SECS: u64 = 5;

/// Start of the first fault injection. Early enough that the first
/// recurrence lands in the warm-up and trains the models.
const FIRST_INJECTION_SECS: u64 = 50;

/// Spacing of the recurrent injections (the paper's 150 s → 800 s).
const INJECTION_PERIOD_SECS: u64 = 650;

/// Length of one injection (the paper's ~300 s), drawn per seed from
/// this range.
const INJECTION_SECS: std::ops::RangeInclusive<u64> = 295..=305;

/// Period of the diurnal demand swing: five cycles per injection
/// period, so warm-up covers whole cycles and every recurrence meets the
/// same phase.
const DIURNAL_SECS: u64 = INJECTION_PERIOD_SECS / 5;

/// Nominal per-VM CPU cap (percent of one core).
pub const NOMINAL_CPU: f64 = 100.0;

/// Nominal per-VM memory (MB).
pub const NOMINAL_MEM_MB: f64 = 1024.0;

/// CPU a hog process adds during an injection (as the paper's CPU hog).
const HOG_CPU: f64 = 85.0;

/// Memory a leak adds per second of injection (MB/s).
const LEAK_MB_PER_SEC: f64 = 2.0;

/// Salt separating the chaos-plan stream from the demand stream.
const CHAOS_SALT: u64 = 0x00C4_A05E_ED0F_D15C;

/// The recurrent application fault a workload injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A CPU-bound competitor: a step the predictors see only late.
    CpuHog,
    /// A memory leak: a ramp the predictors see coming.
    MemLeak,
}

/// The infrastructure chaos of the durable workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chaos {
    /// Rounds per controller crash; one crash falls at a seeded round in
    /// every block of this many rounds.
    pub crash_block: u64,
    /// Per-round sample drop probability, every VM.
    pub drop: f64,
    /// Per-round sample delay probability, every VM.
    pub delay: f64,
    /// Per-tick hypervisor-busy probability.
    pub busy: f64,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Fleet size.
    pub vms: usize,
    /// The injected recurrent fault.
    pub fault: Fault,
    /// One VM in this many carries the fault (`vms` = a single VM).
    pub faulty_every: usize,
    /// The fleet SLO holds while at most this many VMs miss their
    /// service target (the tenant tolerates a few degraded instances).
    pub slo_tolerance: usize,
    /// Drive the controller through the write-ahead journal and
    /// checkpoints, under `chaos`.
    pub chaos: Option<Chaos>,
    /// Checkpoint seal interval, in rounds (durable workloads).
    pub checkpoint_every: u64,
    /// Timed control rounds of one repetition: a fixed stretch of
    /// simulated time, so every repetition and every run of a seed makes
    /// the same decisions.
    pub rounds_per_rep: u64,
}

/// The benchmark's workloads. The SLO tolerances make the violation an
/// aggregate over the hogged VMs (a quarter of 64, half of 16) rather
/// than the worst of them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fleet-predict",
        vms: 1024,
        fault: Fault::CpuHog,
        faulty_every: 16,
        slo_tolerance: 15,
        chaos: None,
        checkpoint_every: 0,
        // Ends before the first periodic retrain can fall due: with 64
        // predictors an episode is open almost every round, so when that
        // retrain runs (and what it adds to memory) depends on the seed.
        rounds_per_rep: 110,
    },
    Workload {
        name: "fleet-ingest",
        vms: 2048,
        fault: Fault::MemLeak,
        faulty_every: 2048,
        slo_tolerance: 0,
        chaos: None,
        checkpoint_every: 0,
        rounds_per_rep: 200,
    },
    Workload {
        name: "durable-crash",
        vms: 256,
        fault: Fault::CpuHog,
        faulty_every: 16,
        slo_tolerance: 7,
        chaos: Some(Chaos {
            // Seven crashes per repetition: at least twenty recoveries
            // over three repetitions, so their median has ten beyond it.
            crash_block: 17,
            drop: 0.02,
            delay: 0.02,
            busy: 0.25,
        }),
        checkpoint_every: 8,
        // Fifteen seals per repetition: the round tail (ten samples
        // beyond it) sits inside the seal class, not on its edge.
        rounds_per_rep: 120,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// An order-sensitive 64-bit digest over words (FNV-1a on whole words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    // xtask: taint-sink nondet
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds one float by its exact bits.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Folds a string's bytes, length-prefixed.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf.iter_mut().zip(chunk).for_each(|(b, c)| *b = *c);
            self.word(u64::from_le_bytes(buf));
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One VM's demand profile.
#[derive(Debug, Clone, Copy)]
struct Profile {
    cpu: f64,
    mem: f64,
    net: f64,
    disk: f64,
    phase: f64,
}

/// The seeded input stream of one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    rng: StdRng,
    profiles: Vec<Profile>,
    faulty: Vec<bool>,
    injection_secs: u64,
    digest: Digest,
}

impl Generator {
    /// Draws the fleet's demand profiles and faulty VMs from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut digest = Digest::default();
        digest.word(seed);
        digest.text(workload.name);
        let profiles: Vec<Profile> = (0..workload.vms)
            .map(|_| Profile {
                cpu: rng.gen_range(25.0..45.0),
                mem: rng.gen_range(590.0..610.0),
                net: rng.gen_range(200.0..600.0),
                disk: rng.gen_range(50.0..250.0),
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
            })
            .collect();
        for p in &profiles {
            for v in [p.cpu, p.mem, p.net, p.disk, p.phase] {
                digest.float(v);
            }
        }
        let every = workload.faulty_every.clamp(1, workload.vms.max(1));
        let offset = rng.gen_range(0..every);
        let faulty: Vec<bool> = (0..workload.vms).map(|i| i % every == offset).collect();
        let injection_secs = rng.gen_range(INJECTION_SECS);
        digest.word(offset as u64);
        digest.word(injection_secs);
        Generator {
            workload,
            seed,
            rng,
            profiles,
            faulty,
            injection_secs,
            digest,
        }
    }

    /// Seconds into the current injection at tick `t`, if one is active.
    pub fn injection_elapsed(&self, t: u64) -> Option<u64> {
        let since = t.checked_sub(FIRST_INJECTION_SECS)?;
        let phase = since % INJECTION_PERIOD_SECS;
        (phase < self.injection_secs).then_some(phase)
    }

    /// Whether tick `t` lies in the operator's right-sizing window: from
    /// the end of an injection until the next one starts, the fleet
    /// operator returns scaled VMs to their nominal size, so every
    /// recurrence meets the same fleet.
    pub fn rightsizing(&self, t: u64) -> bool {
        t.checked_sub(FIRST_INJECTION_SECS)
            .is_some_and(|since| since % INJECTION_PERIOD_SECS >= self.injection_secs)
    }

    /// Indices of the VMs carrying the recurrent fault.
    #[cfg(test)]
    pub fn faulty_vms(&self) -> Vec<usize> {
        (0..self.faulty.len())
            .filter(|&i| self.faulty.get(i) == Some(&true))
            .collect()
    }

    /// Fills `out` with every VM's demand for tick `t` (VM order).
    pub fn demands(&mut self, t: u64, out: &mut Vec<Demand>) {
        out.clear();
        let injection = self.injection_elapsed(t);
        let day = std::f64::consts::TAU * (t % DIURNAL_SECS) as f64 / DIURNAL_SECS as f64;
        for (p, &faulty) in self.profiles.iter().zip(&self.faulty) {
            let diurnal = 1.0 + 0.12 * (day + p.phase).sin();
            let mut cpu = p.cpu * diurnal + self.rng.gen_range(-2.0..2.0);
            let mut mem = p.mem + self.rng.gen_range(-4.0..4.0);
            let net = p.net * diurnal * (1.0 + self.rng.gen_range(-0.03..0.03));
            let disk = p.disk * (1.0 + self.rng.gen_range(-0.05..0.05));
            if let (true, Some(elapsed)) = (faulty, injection) {
                match self.workload.fault {
                    Fault::CpuHog => cpu += HOG_CPU,
                    Fault::MemLeak => {
                        mem += LEAK_MB_PER_SEC * elapsed as f64;
                        cpu += 2.0;
                    }
                }
            }
            let d = Demand {
                cpu: cpu.max(0.0),
                mem_mb: mem.max(0.0),
                net_in_kbps: net,
                net_out_kbps: 0.7 * net,
                disk_read_kbps: disk,
                disk_write_kbps: 0.5 * disk,
            };
            for v in [d.cpu, d.mem_mb, d.net_in_kbps, d.disk_read_kbps] {
                self.digest.float(v);
            }
            out.push(d);
        }
    }

    /// The durable workload's chaos plan over the `rounds` control rounds
    /// starting at round `first`: sample drops and delays and a busy
    /// hypervisor over the whole span, and one controller crash at a
    /// seeded round of every `crash_block` rounds (never the first).
    /// `None` for workloads without chaos.
    pub fn chaos_plan(&mut self, first: u64, rounds: u64) -> Option<ChaosPlan> {
        let chaos = self.workload.chaos?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ CHAOS_SALT);
        let at = |round: u64| Timestamp::from_secs(round * SAMPLING_SECS);
        let (from, until) = (at(first), at(first + rounds));
        let mut plan = ChaosPlan::new(rng.gen::<u64>())
            .with_fault(
                from,
                until,
                ChaosKind::DropSamples {
                    vm: None,
                    probability: chaos.drop,
                },
            )
            .with_fault(
                from,
                until,
                ChaosKind::DelaySamples {
                    vm: None,
                    probability: chaos.delay,
                },
            )
            .with_fault(
                from,
                until,
                ChaosKind::HypervisorBusy {
                    probability: chaos.busy,
                },
            );
        let block = chaos.crash_block.max(2);
        for start in (first..first + rounds).step_by(block as usize) {
            let round = start + rng.gen_range(1..block);
            if round < first + rounds {
                let t = at(round);
                plan = plan.with_fault(
                    t,
                    Timestamp::from_secs(t.as_secs() + 1),
                    ChaosKind::ControllerCrash { probability: 1.0 },
                );
            }
        }
        self.digest.word(plan.seed);
        for f in &plan.faults {
            self.digest.word(f.from.as_secs());
            self.digest.word(f.until.as_secs());
            self.digest.text(&format!("{:?}", f.kind));
        }
        Some(plan)
    }

    /// Digest of every input generated so far.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generates `ticks` ticks of input plus the chaos plan and returns
    /// the input digest.
    fn digest_of(workload: Workload, seed: u64, ticks: u64) -> u64 {
        let mut g = Generator::new(workload, seed);
        let mut out = Vec::new();
        for t in 0..ticks {
            g.demands(t, &mut out);
        }
        g.chaos_plan(ticks / SAMPLING_SECS, 40);
        g.digest()
    }

    fn small(name: &str) -> Workload {
        Workload {
            vms: 64,
            ..workload(name).unwrap()
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in WORKLOADS {
            let w = Workload { vms: 64, ..w };
            assert_eq!(digest_of(w, 7, 400), digest_of(w, 7, 400), "{}", w.name);
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in WORKLOADS {
            let w = Workload { vms: 64, ..w };
            assert_ne!(digest_of(w, 7, 400), digest_of(w, 8, 400), "{}", w.name);
        }
    }

    #[test]
    fn demands_are_identical_value_for_value() {
        let (mut a, mut b) = (
            Generator::new(small("fleet-ingest"), 3),
            Generator::new(small("fleet-ingest"), 3),
        );
        let (mut da, mut db) = (Vec::new(), Vec::new());
        for t in 0..200 {
            a.demands(t, &mut da);
            b.demands(t, &mut db);
            assert_eq!(da, db, "tick {t}");
            assert!(da.iter().all(Demand::is_valid), "tick {t}");
        }
    }

    #[test]
    fn faulty_share_matches_the_workload() {
        assert_eq!(
            Generator::new(small("fleet-predict"), 1).faulty_vms().len(),
            4
        );
        assert_eq!(
            Generator::new(small("fleet-ingest"), 1).faulty_vms().len(),
            1
        );
    }

    #[test]
    fn crash_plan_has_one_crash_per_block() {
        let w = small("durable-crash");
        let block = w.chaos.unwrap().crash_block;
        let mut g = Generator::new(w, 5);
        let plan = g.chaos_plan(100, 4 * block).unwrap();
        let crashes: Vec<u64> = plan
            .faults
            .iter()
            .filter(|f| matches!(f.kind, ChaosKind::ControllerCrash { .. }))
            .map(|f| f.from.as_secs() / SAMPLING_SECS)
            .collect();
        assert_eq!(crashes.len(), 4);
        assert!(crashes.iter().all(|&r| (101..100 + 4 * block).contains(&r)));
        assert!(Generator::new(small("fleet-predict"), 5)
            .chaos_plan(100, 50)
            .is_none());
    }

    #[test]
    fn schedule_matches_the_paper() {
        let g = Generator::new(small("fleet-predict"), 9);
        let len = g.injection_secs;
        assert!(INJECTION_SECS.contains(&len));
        assert_eq!(g.injection_elapsed(49), None);
        assert_eq!(g.injection_elapsed(50), Some(0));
        assert_eq!(g.injection_elapsed(49 + len), Some(len - 1));
        assert_eq!(g.injection_elapsed(50 + len), None);
        assert_eq!(g.injection_elapsed(700), Some(0));
        assert!(!g.rightsizing(49 + len));
        assert!(g.rightsizing(50 + len));
        assert!(g.rightsizing(699));
        assert!(!g.rightsizing(700));
    }
}
