//! The repository benchmark.
//!
//! One run executes one workload (see [`workloads::Kind`]) as a closed
//! loop of fixed batches for a given number of seconds, checks every
//! batch's outputs, and reports metrics on two clocks: *virtual* time (the
//! modelled cluster; exact for a given seed) and *host* time (what the
//! simulator costs to run; medians over the batches of the run). A traced
//! run alternates untraced and traced batches and reports the per-layer
//! metrics instead. See `README.md` next to this crate for the metric and
//! layer map.

pub mod host;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use workloads::{Batch, Inputs, Kind};

/// End-to-end metrics: name and unit. Printed by untraced runs.
///
/// Wall time of the measured section is not among them: on a shared
/// 2-vCPU virtual machine it follows how long the hypervisor takes to wake
/// an idle vCPU at each kernel hand-off. The median of one `shuffle-rd8`
/// run moved by 2.3 times between runs minutes apart, while its CPU time
/// moved by 29 %. Wall time is the per-layer `host_s`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("virt_response_ms", "ms"),
    ("host_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("registered_mib_per_node", "MiB"),
];

/// Per-layer metrics: name and unit. Printed by traced runs; a layer a
/// workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("simnet.run_host_s", "s"),
    ("simnet.threads", "count"),
    ("simnet.host_us_per_msg", "us"),
    ("simnet.virt_busy_share", "ratio"),
    ("net.ingress_util_mean", "ratio"),
    ("net.ingress_util_max", "ratio"),
    ("net.egress_util_mean", "ratio"),
    ("nic.work_requests", "count"),
    ("nic.qp_cache_hit_ratio", "ratio"),
    ("verbs.post_to_completion_p50_ns", "ns"),
    ("verbs.post_to_completion_p99_ns", "ns"),
    ("verbs.cq_wait_p50_ns", "ns"),
    ("verbs.wr_batch_p50_ns", "ns"),
    ("verbs.ud_reordered", "count"),
    ("verbs.rnr_retries", "count"),
    ("endpoint.calls", "count"),
    ("endpoint.host_ns_per_call", "ns"),
    ("endpoint.get_free_wait_virt_ns", "ns"),
    ("endpoint.get_data_wait_virt_ns", "ns"),
    ("endpoint.credit_stall_ns", "ns"),
    ("endpoint.payload_bytes_per_msg", "B"),
    ("endpoint.polls_per_msg", "ratio"),
    ("operator.shuffle_next_host_s", "s"),
    ("operator.receive_next_host_s", "s"),
    ("exchange.build_host_s", "s"),
    ("exchange.registered_bytes", "B"),
    ("phase.barrier_wait_ns", "ns"),
    ("phase.phases_run", "count"),
    ("advisor.pick", "code"),
    ("sched.queue_wait_ns", "ns"),
    ("sched.admitted", "count"),
    ("engine.query_latency_p50_ns", "ns"),
    ("engine.restarts", "count"),
    ("tpch.gen_host_s", "s"),
    ("tpch.q3_host_s", "s"),
    ("tpch.q4_host_s", "s"),
    ("tpch.q10_host_s", "s"),
    ("tpch.check_host_s", "s"),
    ("tpch.q3_virt_ms", "ms"),
    ("tpch.q4_virt_ms", "ms"),
    ("tpch.q10_virt_ms", "ms"),
    ("shuffle.gibps_per_node", "GiB/s"),
    ("self.client_host_s", "s"),
    ("self.simnet_host_s", "s"),
    ("self.operator_host_s", "s"),
    ("self.endpoint_host_s", "s"),
    ("self.tpch_host_s", "s"),
    ("self.sum_host_s", "s"),
    ("self.traced_host_s", "s"),
    ("host_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.batches", "count"),
];

/// Everything one benchmark run needs.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload to run.
    pub kind: Kind,
    /// Input generation knobs (seed, sabotage).
    pub inputs: Inputs,
    /// How long to keep submitting batches.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Metric name → (value, unit), in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Shuffles/queries run.
    pub attempted: u64,
    /// Shuffles/queries whose output check failed.
    pub failed: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// Batches run, untraced and traced.
    pub batches: (usize, usize),
    /// The virtual fingerprint of the first batch.
    pub fingerprint: BTreeMap<String, u64>,
    /// `host_s` of every untraced batch, in run order.
    pub host_samples: Vec<f64>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be formed reads 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs batches from `batch` (called with `true` for a traced batch)
/// for `opts.seconds` and collects the metrics.
pub fn run(opts: &Options, batch: &mut dyn FnMut(bool) -> Batch) -> Outcome {
    let started = Instant::now();
    let mut plain: Vec<Batch> = Vec::new();
    let mut traced: Vec<Batch> = Vec::new();
    loop {
        plain.push(batch(false));
        if opts.trace {
            traced.push(batch(true));
        }
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    // Virtual time must not depend on the batch or on tracing.
    let reference = plain[0].fingerprint.clone();
    let mut attempted = 0;
    let mut failures = Vec::new();
    for (i, b) in plain.iter().chain(&traced).enumerate() {
        attempted += b.attempted;
        let mut batch_failures = b.failures.clone();
        if b.fingerprint != reference {
            batch_failures.push(format!(
                "batch {i}: virtual figures differ from batch 0: {:?} vs {:?}",
                b.fingerprint, reference
            ));
        }
        failures.extend(batch_failures.into_iter().take(b.attempted as usize));
    }
    let failed = (failures.len() as u64).min(attempted);

    let med = |batches: &[Batch], f: &dyn Fn(&Batch) -> f64| {
        host::median(&batches.iter().map(f).collect::<Vec<_>>())
    };
    let metrics = if opts.trace {
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            values.insert(
                name,
                med(&traced, &|b| b.layers.get(name).copied().unwrap_or(0.0)),
            );
        }
        let host_s = med(&plain, &|b| b.host_s);
        values.insert("host_s", host_s);
        values.insert("trace.overhead_ratio", med(&traced, &|b| b.host_s) / host_s);
        values.insert("trace.batches", traced.len() as f64);
        PER_LAYER.iter().map(|&(n, u)| (n, values[n], u)).collect()
    } else {
        let values = [
            plain[0].virt_response_ms,
            med(&plain, &|b| b.host_cpu_s),
            med(&plain, &|b| b.setup_s),
            med(&plain, &|b| b.peak_rss_mib),
            plain[0].registered_mib_per_node,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };

    Outcome {
        metrics,
        attempted,
        failed,
        failures,
        batches: (plain.len(), traced.len()),
        fingerprint: reference,
        host_samples: plain.iter().map(|b| b.host_s).collect(),
    }
}

/// Serialises a batch as `key value` lines for the parent process.
pub fn batch_record(b: &Batch) -> String {
    let mut out = String::new();
    for (key, value) in [
        ("virt_response_ms", b.virt_response_ms),
        ("registered_mib_per_node", b.registered_mib_per_node),
        ("setup_s", b.setup_s),
        ("host_s", b.host_s),
        ("host_cpu_s", b.host_cpu_s),
        ("peak_rss_mib", b.peak_rss_mib),
        ("attempted", b.attempted as f64),
    ] {
        out.push_str(&format!("batch {key} {value}\n"));
    }
    for (key, value) in &b.fingerprint {
        out.push_str(&format!("fingerprint {key} {value}\n"));
    }
    for (key, value) in &b.layers {
        out.push_str(&format!("layer {key} {value}\n"));
    }
    for f in &b.failures {
        out.push_str(&format!("failure {}\n", f.replace('\n', " ")));
    }
    out
}

/// Parses [`batch_record`] output.
pub fn parse_batch_record(text: &str) -> Result<Batch, String> {
    let mut b = Batch::default();
    let num = |v: &str| {
        v.parse::<f64>()
            .map_err(|e| format!("bad number {v:?}: {e}"))
    };
    for line in text.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        if kind == "failure" {
            b.failures.push(rest.to_string());
            continue;
        }
        let Some((key, value)) = rest.split_once(' ') else {
            continue;
        };
        match kind {
            "batch" => {
                let v = num(value)?;
                match key {
                    "virt_response_ms" => b.virt_response_ms = v,
                    "registered_mib_per_node" => b.registered_mib_per_node = v,
                    "setup_s" => b.setup_s = v,
                    "host_s" => b.host_s = v,
                    "host_cpu_s" => b.host_cpu_s = v,
                    "peak_rss_mib" => b.peak_rss_mib = v,
                    "attempted" => b.attempted = v as u64,
                    _ => return Err(format!("unknown batch field {key}")),
                }
            }
            "fingerprint" => {
                let v = value
                    .parse()
                    .map_err(|e| format!("bad count {value:?}: {e}"))?;
                b.fingerprint.insert(key.to_string(), v);
            }
            "layer" => {
                let name = PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == key)
                    .ok_or(format!("unknown layer metric {key}"))?
                    .0;
                b.layers.insert(name, num(value)?);
            }
            _ => {}
        }
    }
    if b.attempted == 0 {
        return Err("no batch record".into());
    }
    Ok(b)
}
