//! The benchmark's workloads. Each call to [`Workload::batch`] sets the
//! workload up from its seed, runs its fixed batch as a closed loop (the
//! benchmark submits everything and waits for it to finish), and checks the
//! outputs. Only the middle part is timed as the measured section.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rshuffle::{
    default_partition_hash, CostModel, Exchange, ExchangeConfig, Operator, PhaseSchedule,
    ReceiveOperator, RowBatch, ShuffleAlgorithm, ShuffleOperator, TransmissionGroups,
};
use rshuffle_bench::skew::zipf_partition_rows;
use rshuffle_engine::{drive_to_sink, run_workload, FragmentStats, Generator, QuerySpec};
use rshuffle_obs::names;
use rshuffle_sched::{Scheduler, SchedulerConfig};
use rshuffle_simnet::{Cluster, DeviceProfile, IncastModel, Topology};
use rshuffle_tpch::{queries, run_query, Dataset, GenConfig, Placement, QueryId, QueryTransport};
use rshuffle_verbs::{FaultConfig, VerbsRuntime};

use crate::host::HostTimer;
use crate::trace::{self, Layer, TracedOp, TracedRecv, TracedSend, Tracer};

/// Bytes per row of the synthetic table R(a, b).
const ROW_BYTES: usize = 16;
/// Rows per receive-operator output batch (32 KiB of rows).
const BATCH_ROWS: usize = 2048;
const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// `shuffle-*`: nodes, mean table bytes per node, and the spread of the
/// per-node fragment sizes around that mean. The spread makes the
/// slowest node — and so the virtual response time — depend on the seed;
/// with equal fragments the uniform keys leave the RC designs' timeline
/// identical for every seed.
const SHUFFLE_NODES: usize = 8;
const SHUFFLE_BYTES_PER_NODE: f64 = 4.0 * MIB;
const SHUFFLE_SIZE_SPREAD: f64 = 0.02;
/// `tpch-8`: nodes and TPC-H scale factor per node.
const TPCH_NODES: usize = 8;
const TPCH_SF_PER_NODE: f64 = 0.04;
/// `fattree-64`: nodes, threads per node, hosts per leaf switch,
/// oversubscription, incast knee, Zipf exponent, concurrent queries and
/// mean table bytes per node.
const FAT_NODES: usize = 64;
const FAT_THREADS: usize = 4;
const FAT_HOSTS_PER_LEAF: usize = 16;
const FAT_OVERSUB: f64 = 4.0;
const FAT_INCAST_KNEE: usize = 4;
const FAT_ZIPF_THETA: f64 = 0.5;
const FAT_QUERIES: u32 = 2;
const FAT_BYTES_PER_NODE: f64 = 0.5 * MIB;

/// Seed-derivation tags: one independent stream per input the
/// benchmark builds.
const TAG_GEN: u64 = 1;
const TAG_FAULT: u64 = 2;
const TAG_TPCH: u64 = 3;
const TAG_ZIPF: u64 = 4;
const TAG_SIZE: u64 = 5;

/// The workloads, by command-line name.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// §5.1 repartition over MESQ/SR (UD Send/Receive, one endpoint per
    /// thread) on 8 nodes.
    ShuffleSr,
    /// The same repartition over MEMQ/RD (RC one-sided Read).
    ShuffleRd,
    /// TPC-H Q3, Q4 and Q10 over MESQ/SR on 8 nodes.
    Tpch,
    /// Two advised, scheduled queries sharing a 64-node 4:1 fat tree.
    FatTree,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::ShuffleSr, Kind::ShuffleRd, Kind::Tpch, Kind::FatTree];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ShuffleSr => "shuffle-sr8",
            Kind::ShuffleRd => "shuffle-rd8",
            Kind::Tpch => "tpch-8",
            Kind::FatTree => "fattree-64",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The outcome of one batch.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// Virtual response time of the whole batch (ms).
    pub virt_response_ms: f64,
    /// RDMA memory one exchange of the batch registers per node (MiB).
    pub registered_mib_per_node: f64,
    /// Exact virtual-time figures (ns, counts) of every shuffle or query,
    /// compared across batches and between traced and untraced runs.
    pub fingerprint: BTreeMap<String, u64>,
    /// Host wall time of set-up (s).
    pub setup_s: f64,
    /// Host wall time of the measured section (s).
    pub host_s: f64,
    /// Host CPU time, all threads, over the measured section (s).
    pub host_cpu_s: f64,
    /// Peak resident memory of the batch's process at the end of the
    /// measured section, before the output check allocates (MiB).
    pub peak_rss_mib: f64,
    /// Per-layer metrics; complete on traced batches only.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of a traced batch.
    pub spans: Vec<trace::Span>,
    /// Shuffles or queries run.
    pub attempted: u64,
    /// One line per failed shuffle or query.
    pub failures: Vec<String>,
}

/// Knobs of one benchmark run that shape the inputs.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Drop one delivered batch (or result group) before checking, to
    /// prove the check catches it.
    pub drop_batch: bool,
}

/// A workload over its inputs.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Its inputs.
    pub inputs: Inputs,
}

impl Workload {
    /// Sets up, runs and checks one batch; `tracer` turns on the span
    /// wrappers and the per-layer metrics.
    pub fn batch(&self, tracer: Option<&Arc<Tracer>>) -> Batch {
        let mut out = match self.kind {
            Kind::ShuffleSr => self.shuffle(ShuffleAlgorithm::MESQ_SR, tracer),
            Kind::ShuffleRd => self.shuffle(ShuffleAlgorithm::MEMQ_RD, tracer),
            Kind::Tpch => self.tpch(tracer),
            Kind::FatTree => self.fat_tree(tracer),
        };
        if tracer.is_some() {
            for layer in Layer::ALL {
                out.layers
                    .insert(layer.self_metric(), trace::self_seconds(&out.spans, layer));
            }
            // The first span is the measured section; the ledger charges
            // every nanosecond of it to exactly one span.
            let section = out
                .spans
                .first()
                .map_or(0, |s| s.host_end_ns - s.host_start_ns);
            let charged: u64 = out.spans.iter().map(|s| s.self_ns).sum();
            out.layers
                .insert("self.traced_host_s", section as f64 / 1e9);
            out.layers.insert("self.sum_host_s", charged as f64 / 1e9);
            out.layers.insert("trace.spans", out.spans.len() as f64);
        }
        out
    }

    fn derive(&self, tag: u64, salt: u64) -> u64 {
        splitmix64(splitmix64(self.inputs.seed ^ tag.rotate_left(56)) ^ salt)
    }

    fn faults(&self) -> FaultConfig {
        FaultConfig {
            ud_reorder_probability: 0.05,
            seed: self.derive(TAG_FAULT, 0),
            ..FaultConfig::default()
        }
    }

    fn shuffle(&self, algorithm: ShuffleAlgorithm, tracer: Option<&Arc<Tracer>>) -> Batch {
        let mut out = Batch {
            attempted: 1,
            ..Batch::default()
        };
        let profile = DeviceProfile::edr();
        let threads = profile.threads_per_node;
        let seeds: Vec<u64> = (0..SHUFFLE_NODES as u64)
            .map(|n| self.derive(TAG_GEN, n))
            .collect();
        let rows_per_thread: Vec<usize> = (0..SHUFFLE_NODES as u64)
            .map(|n| {
                let u = self.derive(TAG_SIZE, n) as f64 / u64::MAX as f64;
                let bytes = SHUFFLE_BYTES_PER_NODE * (1.0 + SHUFFLE_SIZE_SPREAD * (2.0 * u - 1.0));
                bytes as usize / ROW_BYTES / threads
            })
            .collect();

        let setup = Instant::now();
        let cluster = Cluster::with_topology(SHUFFLE_NODES, profile, Topology::SingleSwitch);
        let runtime = VerbsRuntime::with_faults(cluster, self.faults());
        let config = ExchangeConfig::repartition(algorithm, SHUFFLE_NODES, threads);
        let build = Instant::now();
        let exchange = Exchange::build(&runtime, &config);
        let build_s = build.elapsed().as_secs_f64();
        out.setup_s = setup.elapsed().as_secs_f64();
        let exchange = match exchange {
            Ok(e) => e,
            Err(e) => {
                out.failures
                    .push(format!("{algorithm}: Exchange::build: {e}"));
                return out;
            }
        };

        let timer = HostTimer::start();
        let root = tracer.map(|t| t.enter(Layer::Client, "measure", 0, 0));
        let cost = CostModel::from_profile(runtime.profile());
        // Reliable designs stage tuples in registered memory in place
        // (the repository's default for RC), so the sender pays no copy.
        let send_cost = if algorithm.reliable_transport() {
            CostModel {
                memcpy_bandwidth: 1e18,
                ..cost.clone()
            }
        } else {
            cost.clone()
        };
        let tallies: Vec<Arc<Mutex<Tally>>> = (0..SHUFFLE_NODES).map(|_| Arc::default()).collect();
        let dropped = Arc::new(AtomicBool::new(!self.inputs.drop_batch));
        let mut fragments = Vec::new();
        for node in 0..SHUFFLE_NODES {
            let source: Arc<dyn Operator> =
                Arc::new(Generator::new(rows_per_thread[node], threads, seeds[node]));
            let sends = exchange.send[node]
                .iter()
                .map(|e| match tracer {
                    Some(t) => TracedSend::wrap(e.clone(), t, 0),
                    None => e.clone(),
                })
                .collect();
            let recvs = exchange.recv[node]
                .iter()
                .map(|e| match tracer {
                    Some(t) => TracedRecv::wrap(e.clone(), t, 0),
                    None => e.clone(),
                })
                .collect();
            let shuffle: Arc<dyn Operator> = Arc::new(ShuffleOperator::with_lanes(
                source,
                sends,
                exchange.groups[node].clone(),
                threads,
                send_cost.clone(),
            ));
            let receive: Arc<dyn Operator> = Arc::new(ReceiveOperator::with_lanes(
                recvs,
                ROW_BYTES,
                BATCH_ROWS,
                threads,
                cost.clone(),
            ));
            let (shuffle, receive) = match tracer {
                Some(t) => (
                    TracedOp::wrap(shuffle, t, "operator.shuffle", 0),
                    TracedOp::wrap(receive, t, "operator.receive", 0),
                ),
                None => (shuffle, receive),
            };
            let c = runtime.cluster();
            fragments.push(drive_to_sink(
                c,
                node,
                "shuffle",
                shuffle,
                threads,
                |_, _| {},
            ));
            let tally = tallies[node].clone();
            let dropped = dropped.clone();
            fragments.push(drive_to_sink(
                c,
                node,
                "receive",
                receive,
                threads,
                move |_, b| {
                    if !dropped.swap(true, Ordering::Relaxed) {
                        return;
                    }
                    tally.lock().add(b);
                },
            ));
        }
        let (run_host_s, response_ns) = run_cluster(&runtime, tracer, root);
        (out.host_s, out.host_cpu_s) = timer.stop();
        out.peak_rss_mib = crate::host::peak_rss_mib();

        // Check, outside the measured section.
        let expected = expected_tallies(&exchange.groups, &seeds, &rows_per_thread, threads);
        check_fragments(&fragments, &format!("{algorithm}"), &mut out.failures);
        check_tallies(
            &tallies,
            &expected,
            &format!("{algorithm}"),
            &mut out.failures,
        );

        let received: u64 = tallies.iter().map(|t| t.lock().bytes).sum();
        out.virt_response_ms = response_ns as f64 / 1e6;
        out.registered_mib_per_node = (0..SHUFFLE_NODES)
            .map(|n| exchange.registered_bytes(n) as f64)
            .sum::<f64>()
            / SHUFFLE_NODES as f64
            / MIB;
        out.fingerprint.insert("response_ns".into(), response_ns);
        out.fingerprint.insert("received_bytes".into(), received);
        if let Some(t) = tracer {
            out.spans = t.spans();
            let l = &mut out.layers;
            runtime_layers(&runtime, run_host_s, l);
            endpoint_span_layers(&out.spans, l);
            l.insert(
                "operator.shuffle_next_host_s",
                span_self_s(&out.spans, "operator.shuffle"),
            );
            l.insert(
                "operator.receive_next_host_s",
                span_self_s(&out.spans, "operator.receive"),
            );
            l.insert("exchange.build_host_s", build_s);
            l.insert(
                "exchange.registered_bytes",
                out.registered_mib_per_node * MIB,
            );
            let per_node = received as f64 / SHUFFLE_NODES as f64;
            l.insert(
                "shuffle.gibps_per_node",
                per_node / GIB / (response_ns as f64 / 1e9),
            );
        }
        out
    }

    fn tpch(&self, tracer: Option<&Arc<Tracer>>) -> Batch {
        // Query, fingerprint key, and its per-layer host and virtual metrics.
        const QUERIES: [(QueryId, &str, &str, &str); 3] = [
            (QueryId::Q3, "q3", "tpch.q3_host_s", "tpch.q3_virt_ms"),
            (QueryId::Q4, "q4", "tpch.q4_host_s", "tpch.q4_virt_ms"),
            (QueryId::Q10, "q10", "tpch.q10_host_s", "tpch.q10_virt_ms"),
        ];
        let mut out = Batch {
            attempted: QUERIES.len() as u64,
            ..Batch::default()
        };
        let profile = DeviceProfile::edr();
        let threads = profile.threads_per_node;
        let transport = QueryTransport::Rdma(ShuffleAlgorithm::MESQ_SR);

        let setup = Instant::now();
        let dataset = Dataset::generate(&GenConfig {
            scale: TPCH_SF_PER_NODE * TPCH_NODES as f64,
            nodes: TPCH_NODES,
            placement: Placement::Random,
            seed: self.derive(TAG_TPCH, 0),
        });
        out.setup_s = setup.elapsed().as_secs_f64();

        let timer = HostTimer::start();
        let root = tracer.map(|t| t.enter(Layer::Client, "measure", 0, 0));
        let mut results = Vec::new();
        for (qid, (query, ..)) in QUERIES.iter().enumerate() {
            let started = Instant::now();
            let span = tracer.map(|t| t.enter(Layer::Tpch, "tpch.run_query", qid as u32, 0));
            let r = run_query(profile.clone(), &dataset, *query, transport, threads);
            let virt_ns = r.response_time.as_nanos();
            if let (Some(t), Some(span)) = (tracer, span) {
                t.exit(span, virt_ns);
            }
            results.push((r, started.elapsed().as_secs_f64()));
        }
        if let (Some(t), Some(root)) = (tracer, root) {
            t.exit(root, 0);
        }
        (out.host_s, out.host_cpu_s) = timer.stop();
        out.peak_rss_mib = crate::host::peak_rss_mib();

        let check = Instant::now();
        for (i, ((query, name, ..), (r, _))) in QUERIES.iter().zip(&mut results).enumerate() {
            let expected = queries::reference(&dataset, *query);
            if self.inputs.drop_batch && i == 0 {
                let victim = r.groups.keys().next().copied();
                if let Some(k) = victim {
                    r.groups.remove(&k);
                }
            }
            if r.groups != expected {
                out.failures.push(format!(
                    "TPC-H {name}: {} groups, reference has {} (or values differ)",
                    r.groups.len(),
                    expected.len()
                ));
            }
        }
        let check_s = check.elapsed().as_secs_f64();

        let total_ns: u64 = results
            .iter()
            .map(|(r, _)| r.response_time.as_nanos())
            .sum();
        out.virt_response_ms = total_ns as f64 / 1e6;
        let stage = ExchangeConfig::with_groups(
            ShuffleAlgorithm::MESQ_SR,
            threads,
            (0..TPCH_NODES)
                .map(|_| TransmissionGroups::partition(TPCH_NODES))
                .collect(),
        );
        out.registered_mib_per_node = (0..TPCH_NODES)
            .map(|n| stage.registered_bytes_estimate(&profile, n) as f64)
            .sum::<f64>()
            / TPCH_NODES as f64
            / MIB;
        for ((_, name, ..), (r, _)) in QUERIES.iter().zip(&results) {
            out.fingerprint
                .insert(format!("{name}.response_ns"), r.response_time.as_nanos());
            out.fingerprint
                .insert(format!("{name}.groups"), r.groups.len() as u64);
        }
        if let Some(t) = tracer {
            out.spans = t.spans();
            let l = &mut out.layers;
            l.insert("tpch.gen_host_s", out.setup_s);
            l.insert("tpch.check_host_s", check_s);
            for ((_, _, host_key, virt_key), (r, host_s)) in QUERIES.iter().zip(&results) {
                l.insert(host_key, *host_s);
                l.insert(virt_key, r.response_time.as_nanos() as f64 / 1e6);
            }
            l.insert(
                "exchange.registered_bytes",
                out.registered_mib_per_node * MIB,
            );
        }
        out
    }

    fn fat_tree(&self, tracer: Option<&Arc<Tracer>>) -> Batch {
        let mut out = Batch {
            attempted: FAT_QUERIES as u64,
            ..Batch::default()
        };
        let profile = DeviceProfile::edr();
        let topology = Topology::fat_tree(FAT_HOSTS_PER_LEAF, FAT_OVERSUB)
            .with_incast(IncastModel::new(FAT_INCAST_KNEE));
        let total_rows = FAT_BYTES_PER_NODE as u64 / ROW_BYTES as u64 * FAT_NODES as u64;
        let node_rows = zipf_partition_rows(
            total_rows,
            FAT_NODES,
            FAT_ZIPF_THETA,
            self.derive(TAG_ZIPF, 0),
        );
        let rows_per_thread: Vec<usize> = node_rows
            .iter()
            .map(|&r| r as usize / FAT_THREADS)
            .collect();
        let seeds: Vec<Vec<u64>> = (0..FAT_QUERIES as u64)
            .map(|q| {
                (0..FAT_NODES as u64)
                    .map(|n| self.derive(TAG_GEN, q << 32 | n))
                    .collect()
            })
            .collect();

        let setup = Instant::now();
        let cluster = Cluster::with_topology(FAT_NODES, profile.clone(), topology.clone());
        let runtime = VerbsRuntime::with_faults(cluster, self.faults());
        let scheduler = Scheduler::new(&runtime, SchedulerConfig::default());
        let mut base =
            ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, FAT_NODES, FAT_THREADS);
        base.topology = topology;
        // The planner's statistics: per-source byte totals of the split.
        let totals: Vec<u64> = node_rows.iter().map(|&r| r * ROW_BYTES as u64).collect();
        base.phase_bytes = Some(Arc::new(PhaseSchedule::estimate_from_source_totals(
            &totals,
        )));
        let mut specs = Vec::new();
        let mut picks = Vec::new();
        for q in 0..FAT_QUERIES {
            let (spec, advice) =
                QuerySpec::advised(q, base.clone(), ROW_BYTES, &runtime, Some(&scheduler));
            picks.push(advice.pick());
            specs.push(spec);
        }
        out.setup_s = setup.elapsed().as_secs_f64();
        out.registered_mib_per_node = specs
            .iter()
            .map(|s| {
                (0..FAT_NODES)
                    .map(|n| s.config.registered_bytes_estimate(&profile, n) as f64)
                    .sum::<f64>()
                    / FAT_NODES as f64
                    / MIB
            })
            .fold(0.0, f64::max);

        let timer = HostTimer::start();
        let root = tracer.map(|t| t.enter(Layer::Client, "measure", 0, 0));
        let tallies: Vec<Vec<Arc<Mutex<Tally>>>> = (0..FAT_QUERIES)
            .map(|_| (0..FAT_NODES).map(|_| Arc::default()).collect())
            .collect();
        let source_tracer = tracer.cloned();
        let source_rows = rows_per_thread.clone();
        let source_seeds = seeds.clone();
        let sink_tallies = tallies.clone();
        let dropped = AtomicBool::new(!self.inputs.drop_batch);
        let handles = run_workload(
            &runtime,
            &scheduler,
            specs,
            move |query, _attempt, node| {
                let q = query as usize;
                let source: Arc<dyn Operator> = Arc::new(Generator::new(
                    source_rows[node],
                    FAT_THREADS,
                    source_seeds[q][node],
                ));
                match &source_tracer {
                    Some(t) => TracedOp::wrap(source, t, "operator.source", query),
                    None => source,
                }
            },
            move |query, _attempt, node, _tid, batch| {
                if !dropped.swap(true, Ordering::Relaxed) {
                    return;
                }
                sink_tallies[query as usize][node].lock().add(batch);
            },
        );
        let (run_host_s, end_ns) = run_cluster(&runtime, tracer, root);
        (out.host_s, out.host_cpu_s) = timer.stop();
        out.peak_rss_mib = crate::host::peak_rss_mib();

        let mut makespan_ns = 0;
        let mut restarts = 0;
        for h in &handles {
            let report = h.report.lock();
            let timing = h.timing.lock();
            let label = format!("fat-tree query {}", h.query);
            restarts += report.restarts as u64;
            if let Some(e) = &report.failure {
                out.failures.push(format!("{label}: {e}"));
            }
            if report.restarts > 0 {
                out.failures
                    .push(format!("{label}: {} restarts", report.restarts));
            }
            let latency = timing.latency().map_or(0, |d| d.as_nanos());
            makespan_ns = makespan_ns.max(timing.completed.map_or(end_ns, |t| t.as_nanos()));
            out.fingerprint
                .insert(format!("q{}.latency_ns", h.query), latency);
            out.fingerprint
                .insert(format!("q{}.rows", h.query), report.rows);
            let q = h.query as usize;
            let expected = expected_tallies(&base.groups, &seeds[q], &rows_per_thread, FAT_THREADS);
            check_tallies(&tallies[q], &expected, &label, &mut out.failures);
        }
        out.virt_response_ms = makespan_ns as f64 / 1e6;
        out.fingerprint.insert("makespan_ns".into(), makespan_ns);

        if let Some(t) = tracer {
            out.spans = t.spans();
            let m = &runtime.obs().metrics;
            let l = &mut out.layers;
            runtime_layers(&runtime, run_host_s, l);
            let barrier = m.histogram_merged(names::EXCHANGE_PHASE_BARRIER_WAIT_NS);
            l.insert("phase.barrier_wait_ns", barrier.sum as f64);
            l.insert(
                "phase.phases_run",
                m.counter_total(names::EXCHANGE_PHASES_RUN) as f64,
            );
            // Informational: the design code `mode * 8 + imp` of the
            // first query's pick, as the advisor's trace instants encode it.
            let pick = picks[0];
            l.insert(
                "advisor.pick",
                ((pick.mode as u64) * 8 + pick.imp as u64) as f64,
            );
            l.insert(
                "sched.queue_wait_ns",
                m.counter_total(names::SCHED_QUEUE_WAIT_NS) as f64,
            );
            l.insert(
                "sched.admitted",
                m.counter_total(names::SCHED_ADMITTED) as f64,
            );
            l.insert(
                "engine.query_latency_p50_ns",
                m.histogram_merged(names::ENGINE_QUERY_LATENCY_NS).p50() as f64,
            );
            l.insert("engine.restarts", restarts as f64);
            l.insert(
                "exchange.registered_bytes",
                out.registered_mib_per_node * MIB,
            );
            let received = m.counter_total(names::EP_BYTES_RECEIVED) as f64;
            l.insert(
                "shuffle.gibps_per_node",
                received / FAT_NODES as f64 / GIB / (makespan_ns as f64 / 1e9),
            );
        }
        out
    }
}

/// Runs the cluster to completion inside a `simnet.run` span, then closes
/// the measured section's `root` span. Returns the host seconds of
/// `Cluster::run` and the virtual time at its end.
fn run_cluster(
    runtime: &Arc<VerbsRuntime>,
    tracer: Option<&Arc<Tracer>>,
    root: Option<trace::SpanId>,
) -> (f64, u64) {
    let run = tracer.map(|t| t.enter(Layer::Simnet, "simnet.run", 0, 0));
    let started = Instant::now();
    runtime.cluster().run();
    let host_s = started.elapsed().as_secs_f64();
    let end_ns = runtime.kernel().now().as_nanos();
    if let Some(t) = tracer {
        for span in [run, root].into_iter().flatten() {
            t.exit(span, end_ns);
        }
    }
    (host_s, end_ns)
}

/// Rows and an order-independent digest of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    rows: u64,
    bytes: u64,
    digest: u64,
}

impl Tally {
    fn add_row(&mut self, row: &[u8]) {
        let word = |at: usize| u64::from_le_bytes(row[at..at + 8].try_into().expect("16-byte row"));
        self.rows += 1;
        self.bytes += row.len() as u64;
        self.digest = self
            .digest
            .wrapping_add(splitmix64(word(0) ^ splitmix64(word(8))));
    }

    fn add(&mut self, batch: &RowBatch) {
        for row in batch.iter() {
            self.add_row(row);
        }
    }
}

/// What each node must receive: every row every source generates,
/// routed by the shuffle's partition hash over the source's groups.
/// Row counts are the per-thread counts after rounding, times threads.
fn expected_tallies(
    groups: &[TransmissionGroups],
    seeds: &[u64],
    rows_per_thread: &[usize],
    threads: usize,
) -> Vec<Tally> {
    let mut out = vec![Tally::default(); groups.len()];
    for (src, g) in groups.iter().enumerate() {
        for tid in 0..threads {
            for seq in 0..rows_per_thread[src] {
                let row = Generator::row(seeds[src], tid, seq);
                let dest = g.group((default_partition_hash(&row) % g.len() as u64) as usize)[0];
                out[dest].add_row(&row);
            }
        }
    }
    out
}

fn check_tallies(
    got: &[Arc<Mutex<Tally>>],
    expected: &[Tally],
    label: &str,
    failures: &mut Vec<String>,
) {
    for (node, (g, e)) in got.iter().zip(expected).enumerate() {
        let g = *g.lock();
        if g != *e {
            failures.push(format!(
                "{label}: node {node} received {} rows (digest {:#x}), expected {} (digest {:#x})",
                g.rows, g.digest, e.rows, e.digest
            ));
            return;
        }
    }
}

fn check_fragments(
    fragments: &[Arc<Mutex<FragmentStats>>],
    label: &str,
    failures: &mut Vec<String>,
) {
    if let Some(e) = fragments
        .iter()
        .find_map(|f| f.lock().errors.first().cloned())
    {
        failures.push(format!("{label}: ShuffleError: {e}"));
    }
}

/// Per-layer metrics read from a finished runtime: kernel, fabric, NIC,
/// verbs and the endpoint counters the program keeps itself.
fn runtime_layers(
    runtime: &Arc<VerbsRuntime>,
    run_host_s: f64,
    l: &mut BTreeMap<&'static str, f64>,
) {
    let cluster = runtime.cluster();
    let nodes = cluster.nodes();
    let now = runtime.kernel().now();
    let m = &runtime.obs().metrics;

    let threads = runtime.kernel().stats();
    let busy: u64 = threads.iter().map(|t| t.busy.as_nanos()).sum();
    let idle: u64 = threads.iter().map(|t| t.idle.as_nanos()).sum();
    let messages = m.counter_total(names::EP_MESSAGES_RECEIVED) as f64;
    l.insert("simnet.run_host_s", run_host_s);
    l.insert("simnet.threads", threads.len() as f64);
    l.insert("simnet.host_us_per_msg", ratio(run_host_s * 1e6, messages));
    l.insert(
        "simnet.virt_busy_share",
        ratio(busy as f64, (busy + idle) as f64),
    );

    let ingress: Vec<f64> = (0..nodes)
        .map(|n| cluster.fabric().ingress_utilization(n, now))
        .collect();
    let egress: Vec<f64> = (0..nodes)
        .map(|n| cluster.fabric().egress_utilization(n, now))
        .collect();
    l.insert(
        "net.ingress_util_mean",
        ingress.iter().sum::<f64>() / nodes as f64,
    );
    l.insert(
        "net.ingress_util_max",
        ingress.iter().copied().fold(0.0, f64::max),
    );
    l.insert(
        "net.egress_util_mean",
        egress.iter().sum::<f64>() / nodes as f64,
    );

    let nic = (0..nodes).map(|n| cluster.nic(n).stats());
    let (wrs, hits, misses) = nic.fold((0, 0, 0), |(w, h, m), s| {
        (
            w + s.work_requests,
            h + s.qp_cache_hits,
            m + s.qp_cache_misses,
        )
    });
    l.insert("nic.work_requests", wrs as f64);
    l.insert(
        "nic.qp_cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );

    let p2c = m.histogram_merged(names::STAGE_POST_TO_COMPLETION_NS);
    l.insert("verbs.post_to_completion_p50_ns", p2c.p50() as f64);
    l.insert("verbs.post_to_completion_p99_ns", p2c.p99() as f64);
    l.insert(
        "verbs.cq_wait_p50_ns",
        m.histogram_merged(names::STAGE_CQ_WAIT_NS).p50() as f64,
    );
    l.insert(
        "verbs.wr_batch_p50_ns",
        m.histogram_merged(names::STAGE_WR_BATCH_NS).p50() as f64,
    );
    l.insert(
        "verbs.ud_reordered",
        m.counter_total(names::VERBS_UD_REORDERED) as f64,
    );
    l.insert(
        "verbs.rnr_retries",
        m.counter_total(names::VERBS_RNR_RETRIES) as f64,
    );

    let polls =
        m.counter_total(names::EP_FREEARR_POLLS) + m.counter_total(names::EP_VALIDARR_POLLS);
    l.insert(
        "endpoint.credit_stall_ns",
        m.counter_total(names::EP_CREDIT_STALL_NS) as f64,
    );
    l.insert(
        "endpoint.payload_bytes_per_msg",
        ratio(m.counter_total(names::EP_BYTES_RECEIVED) as f64, messages),
    );
    l.insert("endpoint.polls_per_msg", ratio(polls as f64, messages));
}

/// Endpoint metrics only the span wrappers can see.
fn endpoint_span_layers(spans: &[trace::Span], l: &mut BTreeMap<&'static str, f64>) {
    let calls = spans.iter().filter(|s| s.layer == Layer::Endpoint).count() as f64;
    let virt = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.virt_end_ns - s.virt_start_ns) as f64)
            .sum()
    };
    l.insert("endpoint.calls", calls);
    l.insert(
        "endpoint.host_ns_per_call",
        ratio(trace::self_seconds(spans, Layer::Endpoint) * 1e9, calls),
    );
    l.insert("endpoint.get_free_wait_virt_ns", virt("endpoint.get_free"));
    l.insert("endpoint.get_data_wait_virt_ns", virt("endpoint.get_data"));
}

fn span_self_s(spans: &[trace::Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.self_ns)
        .sum::<u64>() as f64
        / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
