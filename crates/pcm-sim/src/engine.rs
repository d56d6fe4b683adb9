//! The timing/energy engine: an in-order core with bounded memory-level
//! parallelism in front of a banked PCM memory with posted writes, the
//! four-write-window bandwidth limiter, and (optionally) periodic
//! per-bank refresh.
//!
//! The mechanisms are exactly §7's: reads occupy their bank for the array
//! latency plus pay an ECC adder; writes and refreshes each consume one
//! write token (four per 6.4 µs window → 40 MB/s) and hold their bank for
//! 1 µs; refresh ops arrive at the device-wide rate `blocks / interval`
//! and, in the 4LC-REF configuration, steal the bank from demand reads.

use crate::config::{DesignPoint, EnergyModel, SimParams};
use crate::workload::{TraceGenerator, WorkloadProfile};
use pcm_device::{DeviceMetrics, TelemetryRecorder};
use pcm_trace::{round_ns, OpKind, Recorder, NO_BLOCK};
use std::collections::VecDeque;

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Design point simulated.
    pub design: DesignPoint,
    /// Workload name. Owned, so user-defined trace files can label their
    /// results (not just the built-in `&'static` profile names).
    pub workload: String,
    /// Instructions retired.
    pub instructions: u64,
    /// Demand reads serviced.
    pub reads: u64,
    /// Demand writes serviced.
    pub writes: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// End-to-end execution time, ns.
    pub exec_time_ns: f64,
    /// Energy consumed by demand reads, nJ.
    pub read_energy_nj: f64,
    /// Energy consumed by demand writes, nJ.
    pub write_energy_nj: f64,
    /// Energy consumed by refresh, nJ.
    pub refresh_energy_nj: f64,
    /// Background energy over the run, nJ.
    pub static_energy_nj: f64,
    /// Mean demand-read latency (issue → data back, including queueing
    /// and the ECC adder), ns.
    pub avg_read_latency_ns: f64,
    /// Worst observed demand-read latency, ns.
    pub max_read_latency_ns: f64,
    /// Fraction of the device's write-token bandwidth consumed by
    /// refresh over this run (`refreshes × token_period / exec_time`) —
    /// the §4.1 bandwidth tax, ≈ 0.42 for the default 4LC-REF geometry
    /// and exactly 0 for refresh-free designs.
    pub scrub_bandwidth_tax: f64,
    /// Per-bank busy fraction over the run (demand reads and writes plus
    /// bank-blocking refresh), from the [`DeviceMetrics`] registry the
    /// engine records into. One entry per bank, each in `[0, 1]`.
    pub bank_utilization: Vec<f64>,
}

impl SimResult {
    /// Total energy, nJ.
    pub fn total_energy_nj(&self) -> f64 {
        self.read_energy_nj + self.write_energy_nj + self.refresh_energy_nj + self.static_energy_nj
    }

    /// Average power, W.
    pub fn avg_power_w(&self) -> f64 {
        self.total_energy_nj() / self.exec_time_ns
    }

    /// Instructions per core cycle.
    pub fn ipc(&self, params: &SimParams) -> f64 {
        self.instructions as f64 / (self.exec_time_ns * params.cpu_freq_ghz)
    }
}

/// Run one (design, workload) simulation for `instructions` instructions
/// using the synthetic trace generator.
pub fn simulate(
    params: &SimParams,
    energy: &EnergyModel,
    design: DesignPoint,
    profile: WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> SimResult {
    let trace = TraceGenerator::new(profile, params.blocks, seed);
    simulate_ops(
        params,
        energy,
        design,
        trace,
        profile.name,
        instructions,
        profile.mlp,
        &Recorder::disabled(),
        None,
    )
}

/// Poll the telemetry recorder at engine time `now_ns` (monotone within
/// a run). Gated on `due_before` so the counter gather only happens
/// when a sample tick will actually be claimed.
fn poll_telemetry(
    telemetry: Option<&TelemetryRecorder>,
    now_ns: f64,
    metrics: &DeviceMetrics,
    recorder: &Recorder,
) {
    let Some(tel) = telemetry else {
        return;
    };
    let t = round_ns(now_ns);
    if tel.due_before(t) {
        tel.sample_up_to(t, &metrics.snapshot().per_bank, recorder);
    }
}

/// Run the simulation over an arbitrary operation stream (a
/// [`TraceGenerator`] or a [`crate::trace_file::FileTrace`]). `mlp` is
/// the core's outstanding-read window for this workload.
///
/// Every demand read/write and every refresh emits its modeled timing
/// window into `recorder` (bank-blocking refreshes as spans, REF-OPT
/// refreshes as instants), stamped in engine nanoseconds; end-of-run
/// drain refreshes (counted only for energy accounting, with no timing
/// model) are not traced. `telemetry`, when given, claims its due sample
/// ticks as engine core time advances (and once more at the end of the
/// run), turning the engine's per-bank counters into the same
/// ring-buffered series the functional device exports; risk transitions
/// emit into `recorder`. Neither observer alters the returned
/// [`SimResult`]: with `Recorder::disabled()` and `None` this is the
/// plain simulation.
#[allow(clippy::too_many_arguments)]
pub fn simulate_ops(
    params: &SimParams,
    energy: &EnergyModel,
    design: DesignPoint,
    trace: impl IntoIterator<Item = crate::workload::MemOp>,
    label: impl Into<String>,
    instructions: u64,
    mlp: usize,
    recorder: &Recorder,
    telemetry: Option<&TelemetryRecorder>,
) -> SimResult {
    let mut trace = trace.into_iter();
    let token_period_ns = params.write_window_ns / params.writes_per_window as f64;
    let refresh_period_ns = if design.refreshes() {
        params.refresh_interval_s * 1e9 / params.blocks as f64
    } else {
        f64::INFINITY
    };

    let metrics = DeviceMetrics::new(params.banks);
    let mut bank_free = vec![0.0f64; params.banks];
    let mut token_time = 0.0f64; // next write token grant time
    let mut core_time = 0.0f64;
    let mut last_instr = 0u64;
    let mut next_refresh = refresh_period_ns;
    let mut refresh_bank = 0usize;

    let mut outstanding_reads: VecDeque<f64> = VecDeque::new();
    let mut write_queue: VecDeque<f64> = VecDeque::new();
    let mut latest_finish = 0.0f64;

    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut refreshes = 0u64;

    let ns_per_instr = 1.0 / params.cpu_freq_ghz;
    let ecc_ns = design.ecc_read_adder_ns();
    // Per-workload MLP, capped by the core's outstanding-read limit.
    let read_window = mlp.clamp(1, params.max_outstanding_reads);
    let mut read_latency_sum = 0.0f64;
    let mut read_latency_max = 0.0f64;

    for op in &mut trace {
        if op.at_instruction > instructions {
            break;
        }
        // Core progresses through compute instructions.
        core_time += (op.at_instruction - last_instr) as f64 * ns_per_instr;
        last_instr = op.at_instruction;

        // Apply refresh ops that came due before this op issues.
        while next_refresh <= core_time {
            let grant = token_time.max(next_refresh);
            token_time = grant + token_period_ns;
            if design.refresh_blocks_bank() {
                let start = grant.max(bank_free[refresh_bank]);
                bank_free[refresh_bank] = start + params.block_refresh_ns;
                metrics
                    .bank(refresh_bank)
                    .record_scrub(0, params.block_refresh_ns as u64);
                if recorder.is_enabled() {
                    recorder.span(
                        OpKind::Refresh,
                        refresh_bank as u32,
                        NO_BLOCK,
                        (round_ns(start), round_ns(start + params.block_refresh_ns)),
                        (0, 0),
                    );
                }
            } else if recorder.is_enabled() {
                // REF-OPT: the refresh consumes a write token but never
                // occupies a bank — an instant, not a span.
                recorder.instant(
                    OpKind::Refresh,
                    refresh_bank as u32,
                    NO_BLOCK,
                    round_ns(grant),
                    0,
                );
            }
            refresh_bank = (refresh_bank + 1) % params.banks;
            refreshes += 1;
            next_refresh += refresh_period_ns;
        }

        // Claim telemetry samples that came due as core time advanced
        // (after the refresh catch-up, so boundary scrubs land in the
        // sample that covers them).
        poll_telemetry(telemetry, core_time, &metrics, recorder);

        // Retire completed outstanding operations.
        while outstanding_reads.front().is_some_and(|&f| f <= core_time) {
            outstanding_reads.pop_front();
        }
        while write_queue.front().is_some_and(|&f| f <= core_time) {
            write_queue.pop_front();
        }

        let bank = (op.block as usize) % params.banks;
        if op.is_write {
            // Posted write: token, then bank.
            let grant = token_time.max(core_time);
            token_time = grant + token_period_ns;
            let start = grant.max(bank_free[bank]);
            let finish = start + params.write_latency_ns;
            bank_free[bank] = finish;
            latest_finish = latest_finish.max(finish);
            write_queue.push_back(finish);
            metrics
                .bank(bank)
                .record_write(0, params.write_latency_ns as u64);
            if recorder.is_enabled() {
                recorder.span(
                    OpKind::Write,
                    bank as u32,
                    op.block as u32,
                    (round_ns(start), round_ns(finish)),
                    (0, 0),
                );
            }
            writes += 1;
            if write_queue.len() > params.write_queue_depth {
                // pcm-lint: allow(no-panic-lib) — infallible: guarded by the queue-depth check above
                let oldest = write_queue.pop_front().expect("non-empty");
                core_time = core_time.max(oldest);
            }
        } else {
            let start = core_time.max(bank_free[bank]);
            let finish = start + params.read_latency_ns + ecc_ns;
            bank_free[bank] = start + params.read_latency_ns;
            latest_finish = latest_finish.max(finish);
            let latency = finish - core_time;
            read_latency_sum += latency;
            read_latency_max = read_latency_max.max(latency);
            outstanding_reads.push_back(finish);
            metrics
                .bank(bank)
                .record_read(0, params.read_latency_ns as u64);
            if recorder.is_enabled() {
                let array_done = start + params.read_latency_ns;
                recorder.span(
                    OpKind::Read,
                    bank as u32,
                    op.block as u32,
                    (round_ns(start), round_ns(array_done)),
                    (0, 0),
                );
                if ecc_ns > 0.0 {
                    recorder.span(
                        OpKind::EccDecode,
                        bank as u32,
                        op.block as u32,
                        (round_ns(array_done), round_ns(finish)),
                        (0, 0),
                    );
                }
            }
            reads += 1;
            if outstanding_reads.len() > read_window {
                // pcm-lint: allow(no-panic-lib) — infallible: guarded by the window-length check above
                let oldest = outstanding_reads.pop_front().expect("non-empty");
                core_time = core_time.max(oldest);
            }
        }
    }

    // Drain: the run ends when the core retires its last instruction and
    // every outstanding memory operation completes.
    let mut exec = core_time.max(latest_finish);
    // Refreshes keep firing until the end of the run (energy accounting).
    while next_refresh <= exec {
        refreshes += 1;
        next_refresh += refresh_period_ns;
    }
    exec = exec.max(core_time);
    // Final poll: series cover the whole run through the drain point.
    poll_telemetry(telemetry, exec, &metrics, recorder);

    SimResult {
        design,
        workload: label.into(),
        instructions,
        reads,
        writes,
        refreshes,
        exec_time_ns: exec,
        read_energy_nj: reads as f64 * energy.read_nj,
        write_energy_nj: writes as f64 * energy.write_nj,
        refresh_energy_nj: refreshes as f64 * energy.refresh_nj,
        static_energy_nj: energy.static_w * exec,
        avg_read_latency_ns: if reads > 0 {
            read_latency_sum / reads as f64
        } else {
            0.0
        },
        max_read_latency_ns: read_latency_max,
        scrub_bandwidth_tax: if exec > 0.0 {
            refreshes as f64 * token_period_ns / exec
        } else {
            0.0
        },
        bank_utilization: metrics.snapshot().utilization(exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(design: DesignPoint, workload: &str) -> SimResult {
        let params = SimParams::default();
        let energy = EnergyModel::default();
        let profile = WorkloadProfile::by_name(workload).expect("known workload");
        simulate(&params, &energy, design, profile, 2_000_000, 42)
    }

    #[test]
    fn deterministic() {
        let a = run(DesignPoint::FourLcRef, "mcf");
        let b = run(DesignPoint::FourLcRef, "mcf");
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_observes_without_perturbing() {
        use pcm_device::TelemetryConfig;
        let params = SimParams::default();
        let energy = EnergyModel::default();
        let profile = WorkloadProfile::by_name("mcf").expect("known workload");
        let plain = simulate(
            &params,
            &energy,
            DesignPoint::FourLcRef,
            profile,
            500_000,
            7,
        );
        // Sample every 10 µs of engine time.
        let tel = TelemetryRecorder::new(params.banks, TelemetryConfig::new(10_000));
        let observed = simulate_ops(
            &params,
            &energy,
            DesignPoint::FourLcRef,
            TraceGenerator::new(profile, params.blocks, 7),
            profile.name,
            500_000,
            profile.mlp,
            &Recorder::disabled(),
            Some(&tel),
        );
        assert_eq!(observed, plain, "telemetry must not alter the run");
        let snap = tel.snapshot();
        assert_eq!(snap.per_bank.len(), params.banks);
        assert!(
            snap.per_bank.iter().any(|b| !b.points.is_empty()),
            "no samples claimed"
        );
        // Refresh traffic shows up as scrub counts in some bank's series.
        let scrubs: u64 = snap
            .per_bank
            .iter()
            .flat_map(|b| b.points.iter().map(|p| p.scrubs))
            .sum();
        assert!(scrubs > 0, "refresh ops never reached the series");
    }

    #[test]
    fn refresh_slows_memory_bound_workloads() {
        // The core §7 result: REF ≥ REF-OPT ≫ NO-REF in execution time.
        // In the write-token-bound regime the REF/REF-OPT gap is small
        // (both pay the refresh bandwidth tax; only bank-blocking of
        // reads differs), exactly as in Figure 16's closely-spaced first
        // two bars.
        for w in ["STREAM", "lbm", "mcf"] {
            let r = run(DesignPoint::FourLcRef, w).exec_time_ns;
            let o = run(DesignPoint::FourLcRefOpt, w).exec_time_ns;
            let n = run(DesignPoint::FourLcNoRef, w).exec_time_ns;
            assert!(r >= o, "{w}: REF {r} vs REF-OPT {o}");
            assert!(o > n * 1.10, "{w}: REF-OPT {o} vs NO-REF {n}");
        }
    }

    #[test]
    fn three_lc_at_least_matches_no_refresh() {
        // 3LC = no refresh + faster ECC: it must be at least as fast as
        // the impossible NO-REF 4LC.
        for w in ["STREAM", "mcf", "libquantum"] {
            let n = run(DesignPoint::FourLcNoRef, w).exec_time_ns;
            let t = run(DesignPoint::ThreeLc, w).exec_time_ns;
            assert!(t <= n * 1.001, "{w}: 3LC {t} vs NO-REF {n}");
        }
    }

    #[test]
    fn namd_is_insensitive() {
        // The compute-bound workload must see < 2% spread across designs.
        let base = run(DesignPoint::FourLcRef, "namd").exec_time_ns;
        for d in DesignPoint::ALL {
            let t = run(d, "namd").exec_time_ns;
            assert!(
                (t - base).abs() / base < 0.02,
                "namd spread: {} vs {base} on {:?}",
                t,
                d
            );
        }
    }

    #[test]
    fn three_lc_saves_energy_on_memory_bound() {
        for w in ["STREAM", "lbm"] {
            let r = run(DesignPoint::FourLcRef, w);
            let t = run(DesignPoint::ThreeLc, w);
            assert!(
                t.total_energy_nj() < 0.9 * r.total_energy_nj(),
                "{w}: 3LC {} vs REF {}",
                t.total_energy_nj(),
                r.total_energy_nj()
            );
            // The savings come from eliminating refresh energy and
            // shortening the run (static energy).
            assert_eq!(t.refresh_energy_nj, 0.0);
        }
    }

    #[test]
    fn refresh_count_matches_rate() {
        let r = run(DesignPoint::FourLcRef, "bzip2");
        let params = SimParams::default();
        let expected = r.exec_time_ns * 1e-9 * params.refresh_ops_per_sec();
        let ratio = r.refreshes as f64 / expected;
        assert!(
            (0.95..1.05).contains(&ratio),
            "refreshes {} vs {expected}",
            r.refreshes
        );
    }

    #[test]
    fn write_bandwidth_is_respected() {
        // Sustained write throughput can never exceed 40 MB/s.
        let r = run(DesignPoint::FourLcNoRef, "STREAM");
        let bytes = r.writes as f64 * 64.0;
        let bw = bytes / (r.exec_time_ns * 1e-9);
        assert!(bw <= 40e6 * 1.01, "write bandwidth {bw}");
    }

    #[test]
    fn power_increases_but_less_than_speedup() {
        // §7: "3LC's performance improvements also imply higher activity
        // factors hence higher power, but the increase ... is much lower
        // compared to the speedup."
        let r = run(DesignPoint::FourLcRef, "STREAM");
        let t = run(DesignPoint::ThreeLc, "STREAM");
        let speedup = r.exec_time_ns / t.exec_time_ns;
        let power_ratio = t.avg_power_w() / r.avg_power_w();
        assert!(speedup > 1.2, "speedup {speedup}");
        assert!(
            power_ratio < speedup,
            "power {power_ratio} vs speedup {speedup}"
        );
    }

    #[test]
    fn file_traces_drive_the_engine() {
        use crate::trace_file::FileTrace;
        let params = SimParams::default();
        let energy = EnergyModel::default();
        // A small hand-written trace: 3 reads, 2 writes over 10k instrs.
        let text = "\
1000 R 0x1000
2000 W 0x2000
4000 R 0x8040
8000 W 0x2000
10000 R 0x1000
";
        let trace = FileTrace::parse(text, params.blocks).unwrap();
        let r = simulate_ops(
            &params,
            &energy,
            DesignPoint::ThreeLc,
            trace.iter(),
            "hand-trace",
            10_000,
            2,
            &Recorder::disabled(),
            None,
        );
        assert_eq!(r.reads, 3);
        assert_eq!(r.writes, 2);
        assert_eq!(r.workload, "hand-trace");
        // 10k instructions at 3.2 GHz is 3125 ns; plus memory time.
        assert!(r.exec_time_ns >= 3125.0);
        assert!(r.avg_read_latency_ns >= 205.0, "{}", r.avg_read_latency_ns);
        assert!(r.max_read_latency_ns >= r.avg_read_latency_ns);
    }

    #[test]
    fn scrub_tax_matches_analytic_share() {
        // §4.1: refresh eats ~42% of write tokens at the default
        // geometry. The measured tax is refreshes × token period over
        // the run, so it converges on `refresh_write_share`.
        let share = SimParams::default().refresh_write_share();
        for d in [DesignPoint::FourLcRef, DesignPoint::FourLcRefOpt] {
            let tax = run(d, "mcf").scrub_bandwidth_tax;
            assert!((tax / share - 1.0).abs() < 0.05, "{d:?}: {tax} vs {share}");
        }
        assert_eq!(
            run(DesignPoint::FourLcNoRef, "mcf").scrub_bandwidth_tax,
            0.0
        );
        assert_eq!(run(DesignPoint::ThreeLc, "mcf").scrub_bandwidth_tax, 0.0);
    }

    #[test]
    fn bank_utilization_is_per_bank_and_bounded() {
        let r = run(DesignPoint::FourLcRef, "STREAM");
        assert_eq!(r.bank_utilization.len(), SimParams::default().banks);
        assert!(r.bank_utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
        assert!(r.bank_utilization.iter().any(|&u| u > 0.0));
        // Bank-blocking refresh shows up in busy time; the OPT
        // idealization's scrubs never occupy a bank.
        let o = run(DesignPoint::FourLcRefOpt, "STREAM");
        let sum_r: f64 = r.bank_utilization.iter().sum();
        let sum_o: f64 = o.bank_utilization.iter().sum();
        assert!(sum_r > sum_o, "REF {sum_r} vs REF-OPT {sum_o}");
    }

    #[test]
    fn read_latency_reflects_ecc_adder() {
        // Compare the two refresh-free designs on the uncontended
        // workload: the only difference is the ECC adder, 36.25 − 5 =
        // 31.25 ns. (4LC-REF would also show refresh bank-blocking in its
        // read latency — measured separately below.)
        let four = run(DesignPoint::FourLcNoRef, "namd");
        let three = run(DesignPoint::ThreeLc, "namd");
        let delta = four.avg_read_latency_ns - three.avg_read_latency_ns;
        assert!((delta - 31.25).abs() < 5.0, "delta {delta}");
        // And with refresh blocking banks, 4LC-REF's reads wait longer
        // than 4LC-NO-REF's.
        let refreshed = run(DesignPoint::FourLcRef, "namd");
        assert!(
            refreshed.avg_read_latency_ns > four.avg_read_latency_ns + 5.0,
            "refresh bank-blocking must show in read latency: {} vs {}",
            refreshed.avg_read_latency_ns,
            four.avg_read_latency_ns
        );
    }
}
