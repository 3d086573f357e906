//! Partial-failure recovery suite: epoch-fenced per-flow retry, QP
//! reconnect with backoff, and graceful algorithm degradation.
//!
//! The contract under test extends the chaos suite's: under a Queue
//! Pair failure the recovery orchestrator must (a) keep the rows
//! delivered before the failure instead of redoing them — strictly
//! fewer redone bytes than the full-restart baseline under the same
//! fault plan, (b) still deliver every generated row exactly once
//! across epoch bumps, (c) stay same-seed byte-identical, (d) keep the
//! protocol auditor clean across rebuilds, and (e) when the fabric
//! never heals, either step down the degradation ladder mid-query or
//! surface a typed [`ShuffleError::RetryBudgetExhausted`] — never a
//! hang. Scheduled queries ([`run_workload`]) run through the same
//! ladder, each rebuild admitted and released by the scheduler.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_repro::audit::ShuffleAuditor;
use rshuffle_repro::engine::{
    run_shuffle_with_recovery, run_workload, Generator, QuerySpec, QueryTiming, RecoveryPolicy,
    RecoveryReport,
};
use rshuffle_repro::rshuffle::{ExchangeConfig, Operator, ShuffleAlgorithm, ShuffleError};
use rshuffle_repro::sched::{Scheduler, SchedulerConfig};
use rshuffle_repro::simnet::FlowId;
use rshuffle_repro::simnet::{DeviceProfile, SimDuration};
use rshuffle_repro::verbs::{FaultConfig, FaultPlan, QpScope, VerbsRuntime};

const NODES: usize = 3;
const THREADS: usize = 2;
// Larger than the chaos suite's workload: healthy queries finish in
// 13–32 µs of virtual time at 1000 rows/thread, which a fault window
// opening at 20 µs would miss entirely for the fast SR designs. At
// 4000 rows every algorithm is mid-flight when the outage lands.
const ROWS_PER_THREAD: usize = 4000;
const ROW: usize = 16;

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

fn recovery_config(algorithm: ShuffleAlgorithm, plan: FaultPlan) -> ExchangeConfig {
    let mut config = ExchangeConfig::repartition(algorithm, NODES, THREADS);
    config.message_size = 4096;
    config.stall_timeout = SimDuration::from_millis(2);
    config.depleted_timeout = us(500);
    config.faults = FaultConfig {
        seed: 42,
        plan,
        ..FaultConfig::default()
    };
    // Tag the query's memory so the coordinator's per-attempt release
    // is observable: after the run, every node's registered bytes must
    // be back to zero however many rebuilds recovery took. (A scheduled
    // run overwrites the tag with its query id, also 1.)
    config.flow = FlowId(1);
    config
}

/// Policy that prefers the partial-retry rung.
fn partial_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_partial_retries: 6,
        reconnect_budget: 10,
        max_full_restarts: 6,
        ..RecoveryPolicy::default()
    }
}

/// Policy with the partial rung disabled: every failure takes the
/// full-restart path, the baseline the containment matrix compares
/// against.
fn full_only_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_partial_retries: 0,
        max_full_restarts: 6,
        ..RecoveryPolicy::default()
    }
}

struct RecoveryRun {
    report: RecoveryReport,
    /// Rows delivered to any sink, keyed by generation.
    delivered: HashMap<u32, Vec<[u8; ROW]>>,
    snapshot: String,
    trace: String,
    violations: usize,
}

type Delivered = Arc<Mutex<HashMap<u32, Vec<[u8; ROW]>>>>;

fn source(node: usize) -> Arc<dyn Operator> {
    Arc::new(Generator::new(ROWS_PER_THREAD, THREADS, node as u64))
}

/// A sink collecting every delivered row by generation.
fn collect(delivered: &Delivered) -> impl Fn(u32, &rshuffle_repro::rshuffle::RowBatch) {
    let delivered = delivered.clone();
    move |generation, batch| {
        let mut map = delivered.lock();
        let rows = map.entry(generation).or_default();
        for row in batch.iter() {
            rows.push(row.try_into().expect("16-byte row"));
        }
    }
}

fn run_recovery(
    algorithm: ShuffleAlgorithm,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> RecoveryRun {
    let config = recovery_config(algorithm, plan);
    let runtime = config.build_runtime(DeviceProfile::edr());
    let auditor = runtime.enable_audit();
    let delivered = Delivered::default();
    let push = collect(&delivered);
    let report = run_shuffle_with_recovery(
        &runtime,
        &config,
        policy,
        ROW,
        |_, node| source(node),
        move |generation, _, _, batch| push(generation, batch),
    );
    runtime.cluster().run();
    let report = report.lock().clone();
    finish(&runtime, &auditor, report, delivered)
}

/// Runs the same query as [`run_recovery`], but as query 1 of a
/// [`run_workload`] under a [`Scheduler`] with `mem_budget_per_node`.
/// Asserts the scheduler drained: nothing running or queued, nothing
/// reserved.
fn run_scheduled(
    algorithm: ShuffleAlgorithm,
    plan: FaultPlan,
    policy: RecoveryPolicy,
    mem_budget_per_node: Option<usize>,
) -> (RecoveryRun, QueryTiming) {
    let config = recovery_config(algorithm, plan);
    let runtime = config.build_runtime(DeviceProfile::edr());
    let auditor = runtime.enable_audit();
    let scheduler = Scheduler::new(
        &runtime,
        SchedulerConfig {
            mem_budget_per_node,
            ..SchedulerConfig::default()
        },
    );
    let delivered = Delivered::default();
    let push = collect(&delivered);
    let mut spec = QuerySpec::new(1, config, ROW);
    spec.policy = policy;
    let handles = run_workload(
        &runtime,
        &scheduler,
        vec![spec],
        |_, _, node| source(node),
        move |_, generation, _, _, batch| push(generation, batch),
    );
    runtime.cluster().run();
    assert_eq!(scheduler.running(), 0, "scheduler must drain");
    assert_eq!(scheduler.queued(), 0, "scheduler must drain");
    for node in 0..NODES {
        assert_eq!(
            scheduler.reserved_bytes(node),
            0,
            "node {node}: reservation leaked"
        );
    }
    let report = handles[0].report.lock().clone();
    let timing = handles[0].timing.lock().clone();
    (finish(&runtime, &auditor, report, delivered), timing)
}

/// Collects a finished run's artifacts, asserting no memory stayed
/// registered on any node.
fn finish(
    runtime: &VerbsRuntime,
    auditor: &ShuffleAuditor,
    report: RecoveryReport,
    delivered: Delivered,
) -> RecoveryRun {
    let obs = runtime.obs();
    let violations = auditor.finalize(report.succeeded()).len();
    // Memory-budget hygiene across rebuilds: every exchange generation
    // and every reconnect probe must deregister what it pinned.
    for node in 0..NODES {
        assert_eq!(
            runtime.registered_bytes(node),
            0,
            "node {node}: registered memory leaked across recovery rebuilds"
        );
    }
    RecoveryRun {
        report,
        delivered: std::mem::take(&mut *delivered.lock()),
        snapshot: obs.snapshot_json(),
        trace: obs.chrome_trace_json(),
        violations,
    }
}

/// Every row each node's generator will emit, cluster-wide.
fn expected_rows() -> Vec<[u8; ROW]> {
    let mut rows = Vec::with_capacity(NODES * THREADS * ROWS_PER_THREAD);
    for node in 0..NODES {
        for tid in 0..THREADS {
            for seq in 0..ROWS_PER_THREAD {
                rows.push(Generator::row(node as u64, tid, seq));
            }
        }
    }
    rows.sort_unstable();
    rows
}

/// A transient QP outage on node 1 killing every Queue Pair built while
/// the window is open — the canonical partial-failure the recovery
/// layer exists for.
fn qp_outage() -> FaultPlan {
    FaultPlan::new().qp_failure_window(1, us(20), us(150), QpScope::All)
}

fn assert_exactly_once(run: &RecoveryRun, label: &str) {
    let expected = expected_rows();
    let mut got = run
        .delivered
        .get(&run.report.generation)
        .cloned()
        .unwrap_or_default();
    got.sort_unstable();
    assert_eq!(
        got.len(),
        expected.len(),
        "{label}: delivered {} of {} rows (partial retries: {}, full restarts: {})",
        got.len(),
        expected.len(),
        run.report.partial_retries,
        run.report.restarts
    );
    assert_eq!(
        got, expected,
        "{label}: delivered rows diverge from the source"
    );
    assert_eq!(run.report.rows, expected.len() as u64, "{label}");
}

/// The containment matrix: under the same single-node QP outage, the
/// partial-retry path must redo strictly fewer sink-visible bytes than
/// the full-restart baseline, for every one of the six designs, while
/// both deliver exactly once with a clean auditor.
#[test]
fn partial_recovery_redoes_strictly_fewer_bytes_than_full_restart() {
    for algorithm in ShuffleAlgorithm::ALL {
        let partial = run_recovery(algorithm, qp_outage(), partial_policy());
        let full = run_recovery(algorithm, qp_outage(), full_only_policy());
        assert!(
            partial.report.succeeded(),
            "{algorithm}: partial recovery failed: {:?}",
            partial.report.failure
        );
        assert!(
            full.report.succeeded(),
            "{algorithm}: full-restart baseline failed: {:?}",
            full.report.failure
        );
        assert_exactly_once(&partial, &format!("{algorithm} partial"));
        assert_exactly_once(&full, &format!("{algorithm} full"));
        assert!(
            partial.report.partial_retries >= 1,
            "{algorithm}: the outage must exercise the partial rung"
        );
        assert_eq!(
            partial.report.restarts, 0,
            "{algorithm}: partial recovery must contain the failure without a full restart"
        );
        assert!(
            full.report.restarts >= 1,
            "{algorithm}: baseline must take the full-restart path"
        );
        assert!(
            full.report.redone_bytes > 0,
            "{algorithm}: baseline discarded no work — the fault landed too early to compare"
        );
        assert!(
            partial.report.redone_bytes < full.report.redone_bytes,
            "{algorithm}: containment violated — partial redid {} bytes, full restart {}",
            partial.report.redone_bytes,
            full.report.redone_bytes
        );
        assert!(
            partial.report.kept_bytes > 0,
            "{algorithm}: a partial retry must carry watermarked bytes forward"
        );
        assert!(
            partial.report.qp_reconnects >= 1,
            "{algorithm}: the resume must be probe-gated"
        );
        assert_eq!(
            partial.violations, 0,
            "{algorithm}: auditor must stay clean across epoch bumps"
        );
        assert_eq!(full.violations, 0, "{algorithm}: baseline auditor clean");
        assert!(
            partial.snapshot.contains("endpoint.stale_epoch_drops"),
            "{algorithm}: the epoch fence must be observable in the snapshot"
        );
    }
}

/// Same-seed recovery runs — including the reconnect probes, backoff
/// schedule and epoch bumps — must be byte-identical down to the
/// metrics snapshot and Chrome trace.
#[test]
fn same_seed_recovery_runs_are_byte_identical() {
    for algorithm in [ShuffleAlgorithm::MEMQ_RD, ShuffleAlgorithm::SESQ_SR] {
        let a = run_recovery(algorithm, qp_outage(), partial_policy());
        let b = run_recovery(algorithm, qp_outage(), partial_policy());
        assert_eq!(
            a.report.partial_retries, b.report.partial_retries,
            "{algorithm}: same-seed runs took different retry counts"
        );
        assert_eq!(
            a.snapshot, b.snapshot,
            "{algorithm}: same-seed recovery runs must produce byte-identical snapshots"
        );
        assert_eq!(
            a.trace, b.trace,
            "{algorithm}: same-seed recovery runs must produce byte-identical traces"
        );
    }
}

/// A persistent RC-only outage: the fixed MEMQ/RD design exhausts its
/// reconnect budget twice and must complete mid-query via the ladder
/// (MEMQ/RD → MEMQ/SR → MESQ/SR), without ever bumping the generation —
/// every row delivered before each descent is kept.
#[test]
fn persistent_rc_outage_degrades_to_ud_and_completes() {
    let (plan, policy) = persistent_rc_outage();
    let run = run_recovery(ShuffleAlgorithm::MEMQ_RD, plan, policy);
    assert!(
        run.report.succeeded(),
        "degradation must complete the query: {:?}",
        run.report.failure
    );
    assert_eq!(
        run.report.degradations,
        vec![ShuffleAlgorithm::MEMQ_SR, ShuffleAlgorithm::MESQ_SR],
        "expected the two-rung descent to the UD design"
    );
    assert_eq!(run.report.final_algorithm, ShuffleAlgorithm::MESQ_SR);
    assert_eq!(run.report.restarts, 0);
    assert_eq!(run.report.generation, 0, "degradation keeps the generation");
    assert_exactly_once(&run, "degraded MEMQ_RD");
    assert_eq!(run.violations, 0, "auditor clean across the descent");
    assert!(
        run.snapshot.contains("engine.degraded"),
        "degradation must be observable in the metrics snapshot"
    );
}

/// A permanent all-transport outage: the reconnect budget runs out,
/// the UD design the ladder steps down to fails too (every Queue Pair
/// on node 1 is down), no full restart is allowed — the query must give
/// up with the typed budget error, not hang.
#[test]
fn exhausted_budgets_surface_typed_error_not_a_hang() {
    let plan =
        FaultPlan::new().qp_failure_window(1, us(20), SimDuration::from_millis(500), QpScope::All);
    let policy = RecoveryPolicy {
        max_partial_retries: 4,
        reconnect_budget: 3,
        max_full_restarts: 0,
        ..RecoveryPolicy::default()
    };
    let run = run_recovery(ShuffleAlgorithm::MEMQ_SR, plan, policy);
    let failure = run
        .report
        .failure
        .clone()
        .unwrap_or_else(|| panic!("a permanent outage cannot succeed without restarts"));
    assert!(
        matches!(failure, ShuffleError::RetryBudgetExhausted { node: 1, .. }),
        "expected the typed budget error, got {failure:?}"
    );
    assert!(
        run.report.qp_reconnects >= 3,
        "the budget must actually be spent"
    );
}

/// Healthy runs pay nothing: no retries, no reconnects, no redone
/// bytes, and the wire format (epoch 0 everywhere) leaves the metrics
/// snapshot identical across repeated runs.
#[test]
fn healthy_recovery_runs_are_free_and_deterministic() {
    let a = run_recovery(ShuffleAlgorithm::MESQ_SR, FaultPlan::new(), partial_policy());
    let b = run_recovery(ShuffleAlgorithm::MESQ_SR, FaultPlan::new(), partial_policy());
    assert!(a.report.succeeded());
    assert_eq!(a.report.partial_retries, 0);
    assert_eq!(a.report.qp_reconnects, 0);
    assert_eq!(a.report.restarts, 0);
    assert_eq!(a.report.redone_bytes, 0);
    assert_eq!(a.report.recovery, None);
    assert_exactly_once(&a, "healthy MESQ_SR");
    assert_eq!(a.snapshot, b.snapshot, "healthy runs must be byte-identical");
    assert_eq!(a.violations, 0);
}

/// A persistent RC-only outage: the ladder's fixture, shared by the
/// direct and scheduled degradation tests.
fn persistent_rc_outage() -> (FaultPlan, RecoveryPolicy) {
    let plan =
        FaultPlan::new().qp_failure_window(1, us(20), SimDuration::from_millis(500), QpScope::Rc);
    let policy = RecoveryPolicy {
        max_partial_retries: 8,
        reconnect_budget: 3,
        max_full_restarts: 0, // the ladder alone must save the query
        ..RecoveryPolicy::default()
    };
    (plan, policy)
}

/// A scheduled query under a transient RC QP-failure window takes the
/// partial rung, not a full restart: every rebuild is admitted again
/// (one admission per attempt) and released, and delivery stays
/// exactly-once.
#[test]
fn scheduled_query_retries_partially_through_a_transient_outage() {
    let plan = FaultPlan::new().qp_failure_window(1, us(20), us(300), QpScope::Rc);
    let (run, timing) = run_scheduled(ShuffleAlgorithm::MEMQ_SR, plan, partial_policy(), None);
    assert!(
        run.report.succeeded(),
        "scheduled partial retry failed: {:?}",
        run.report.failure
    );
    assert!(
        run.report.partial_retries >= 1,
        "the outage must exercise the partial rung"
    );
    assert_eq!(run.report.restarts, 0, "contained without a full restart");
    assert_exactly_once(&run, "scheduled MEMQ_SR");
    assert_eq!(
        timing.admissions,
        1 + run.report.partial_retries,
        "every rebuild re-enters admission"
    );
    assert!(timing.completed.is_some());
    assert_eq!(run.violations, 0, "auditor clean across the epoch bump");
}

/// A scheduled MEMQ/RD query under a persistent RC outage descends the
/// ladder to the UD design, as the unscheduled one does.
#[test]
fn scheduled_query_degrades_through_a_persistent_rc_outage() {
    let (plan, policy) = persistent_rc_outage();
    let (run, timing) = run_scheduled(ShuffleAlgorithm::MEMQ_RD, plan, policy, None);
    assert!(
        run.report.succeeded(),
        "degradation must complete the scheduled query: {:?}",
        run.report.failure
    );
    assert_eq!(
        run.report.degradations,
        vec![ShuffleAlgorithm::MEMQ_SR, ShuffleAlgorithm::MESQ_SR]
    );
    assert_eq!(run.report.final_algorithm, ShuffleAlgorithm::MESQ_SR);
    assert_eq!(run.report.restarts, 0);
    assert_exactly_once(&run, "scheduled degraded MEMQ_RD");
    assert_eq!(timing.admissions, 1 + run.report.partial_retries);
    assert_eq!(run.violations, 0, "auditor clean across the descent");
}

/// Each rebuild is admitted at its own design's footprint. With a
/// per-node budget that fits MEMQ/RD but not MEMQ/SR, the degraded
/// attempt can never be admitted: the query must fail with the typed
/// budget error, not hang and not pin memory past its reservation.
#[test]
fn degraded_attempt_over_budget_fails_typed() {
    let estimate = |algorithm| {
        let config = recovery_config(algorithm, FaultPlan::new());
        (0..NODES)
            .map(|node| config.registered_bytes_estimate(&DeviceProfile::edr(), node))
            .collect::<Vec<_>>()
    };
    let rd = estimate(ShuffleAlgorithm::MEMQ_RD).into_iter().max().unwrap_or(0);
    let sr = estimate(ShuffleAlgorithm::MEMQ_SR).into_iter().min().unwrap_or(0);
    assert!(rd < sr, "MEMQ/RD must register less than MEMQ/SR ({rd} vs {sr})");
    let budget = (rd + sr) / 2;
    let (plan, policy) = persistent_rc_outage();
    let (run, timing) = run_scheduled(ShuffleAlgorithm::MEMQ_RD, plan, policy, Some(budget));
    assert!(
        matches!(run.report.failure, Some(ShuffleError::BudgetImpossible { .. })),
        "expected the typed budget error, got {:?}",
        run.report.failure
    );
    assert_eq!(run.report.degradations, vec![ShuffleAlgorithm::MEMQ_SR]);
    assert_eq!(timing.admissions, 1, "the degraded attempt is never admitted");
    assert_eq!(timing.completed, None);
}
