//! Rendering of the JSON documents the bench binaries emit (schema v11):
//! the `sweep` binary's `--json` kernel sweep and the `serve-load`
//! binary's saturation document, factored out of `src/bin/` so the
//! layouts can be round-trip tested without running the binaries.

use vecsparse_gpu_sim::{Backend, KernelProfile, MemoStats};
use vecsparse_precision::Certificate;
use vecsparse_serve::SaturationPoint;

/// Version of the JSON document layouts. Bump when fields change
/// meaning or move; additions are allowed within a version.
///
/// v11: both kinds carry `schema_version`, `kind` (`"sweep"` or
/// `"serve_saturation"`), `backend` and `gpu_config_hash`. The sweep
/// document adds `threads`, `wall_ms`, `shape`, `repeat`, the optional
/// `memo` block and `auto` pick, the `rows` (each with an `out_digest`
/// of its functional output and, for scheme-compiled kernels, its
/// `tiling_scheme`), and the precision `certificates`; the serve
/// document adds the `serve` block. `wall_ms` is the sum of the rows'
/// plan-and-profile times, never their functional runs. It is the one
/// machine-dependent field: determinism checks diff documents with it,
/// and the knob under test (`threads`, `memo`, `backend`), stripped.
pub const JSON_SCHEMA_VERSION: u32 = 11;

/// One profiled kernel row of the sweep.
pub struct SweepRow {
    /// Display label (`"spmm-octet"`, or `"auto -> spmm-octet"`).
    pub label: String,
    /// The tuner's choice, for the `auto` row only.
    pub tuned: Option<String>,
    /// Effective tiling-scheme label for scheme-compiled kernels
    /// (`None` for plans without a scheme notion).
    pub scheme: Option<String>,
    /// FNV-1a digest over the functional output's raw fp16 bits. This is
    /// what makes the CI backend gate's native-vs-simulated document
    /// diff load-bearing: the profile columns come from the performance
    /// model (backend-independent by design), but the digest comes from
    /// a functional run under the selected backend.
    pub out_digest: u64,
    /// The performance-model profile.
    pub profile: KernelProfile,
}

/// Everything in the document besides the rows and certificates.
pub struct SweepMeta {
    /// Hash of the simulated GPU config the rows were produced on.
    pub gpu_config_hash: u64,
    /// Problem shape: output rows.
    pub m: usize,
    /// Problem shape: inner dimension.
    pub k: usize,
    /// Problem shape: RHS columns.
    pub n: usize,
    /// Column-vector length of the sparse operand.
    pub v: usize,
    /// Zero fraction of the sparse operand.
    pub sparsity: f64,
    /// The tuner's pick when the sweep included an `auto` row.
    pub auto: Option<String>,
    /// Worker threads the engine's parallel regions used.
    pub threads: usize,
    /// Wall-clock milliseconds the rows' plan-and-profile loops took,
    /// summed (machine-dependent; strip before diffing documents for
    /// determinism).
    pub wall_ms: f64,
    /// Profiles taken per kernel row (the `--repeat` knob; ≥ 1).
    pub repeat: usize,
    /// Wave-memoizer counters, present only under `--memoize` (strip
    /// before diffing a memoized document against a baseline one).
    pub memo: Option<MemoStats>,
    /// Functional execution backend the sweep's functional runs used.
    /// Changing it must not change any field other than `wall_ms` (and
    /// `backend` itself) — the CI backend gate enforces it.
    pub backend: Backend,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render the full `--json` document. The output is valid JSON (the
/// sweep binary round-trips it through a parser before writing) and
/// field order is fixed, so byte-level diffs are meaningful.
pub fn render(meta: &SweepMeta, rows: &[SweepRow], certs: &[Certificate]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"kind\": \"sweep\",\n  \
         \"backend\": \"{}\",\n  \"gpu_config_hash\": \"{:016x}\",\n",
        meta.backend.label(),
        meta.gpu_config_hash
    ));
    out.push_str(&format!(
        "  \"threads\": {},\n  \"wall_ms\": {:.3},\n",
        meta.threads, meta.wall_ms
    ));
    out.push_str(&format!(
        "  \"shape\": {{\"m\": {}, \"k\": {}, \"n\": {}, \"v\": {}, \"sparsity\": {}}},\n",
        meta.m, meta.k, meta.n, meta.v, meta.sparsity
    ));
    out.push_str(&format!("  \"repeat\": {},\n", meta.repeat));
    if let Some(ms) = &meta.memo {
        out.push_str(&format!(
            "  \"memo\": {{\"wave_hits\": {}, \"wave_misses\": {}, \"launch_hits\": {}, \
             \"launch_misses\": {}, \"audits\": {}, \"wave_entries\": {}, \"hit_rate\": {:.4}}},\n",
            ms.wave_hits,
            ms.wave_misses,
            ms.launch_hits,
            ms.launch_misses,
            ms.audits,
            ms.wave_entries,
            ms.hit_rate()
        ));
    }
    if let Some(choice) = &meta.auto {
        out.push_str(&format!("  \"auto\": \"{}\",\n", json_escape(choice)));
    }
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let p = &row.profile;
        let roof = p.roofline();
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"cycles\": {:.1}, \"grid\": {}, \"l2_to_l1_bytes\": {}, \
             \"flops\": {}, \"dram_bytes\": {}, \"intensity\": {:.4}, \
             \"out_digest\": \"{:016x}\"{}{}}}{}\n",
            json_escape(&row.label),
            p.cycles,
            p.grid,
            p.bytes_l2_to_l1(),
            roof.flops,
            roof.bytes,
            roof.intensity(),
            row.out_digest,
            row.tuned
                .as_ref()
                .map(|t| format!(", \"tuned\": \"{}\"", json_escape(t)))
                .unwrap_or_default(),
            row.scheme
                .as_ref()
                .map(|s| format!(", \"tiling_scheme\": \"{}\"", json_escape(s)))
                .unwrap_or_default(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"certificates\": [\n");
    for (i, c) in certs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"max_abs_output\": {:e}, \"abs_error_bound\": {:e}, \
             \"rel_error_bound\": {:e}, \"reduction_len\": {}, \"stores_f16\": {}}}{}\n",
            json_escape(&c.kernel),
            c.max_abs_output,
            c.abs_error_bound,
            c.rel_error_bound,
            c.reduction_len,
            c.stores_f16,
            if i + 1 == certs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Everything the serve-load saturation document carries besides the
/// curve itself: serving topology, the tenant roster, and the live
/// smoke-run counters.
pub struct ServeMeta {
    /// Hash of the simulated GPU config the service times came from.
    pub gpu_config_hash: u64,
    /// Worker threads of the modeled pool.
    pub workers: usize,
    /// Plan/memo cache shards.
    pub shards: usize,
    /// Maximum jobs coalesced per dispatch.
    pub max_batch: usize,
    /// Requests simulated per curve point.
    pub requests_per_point: usize,
    /// Registered tenants as `(name, weight)`.
    pub tenants: Vec<(String, u32)>,
    /// Jobs the live smoke run served.
    pub served: u64,
    /// Batches the live smoke run dispatched.
    pub batches: u64,
    /// Free-rider jobs coalesced beyond batch anchors in the live run.
    pub coalesced: u64,
    /// Deepest any shard queue got in the live run.
    pub max_queue_depth: usize,
    /// Worst tenant p99 of the live run, milliseconds.
    pub p99_ms: f64,
    /// Plan-cache hit ratio of the live run, 0..1.
    pub cache_hit_ratio: f64,
    /// Wave-memo hit rate of the live run (absent when memoization was
    /// off).
    pub memo_hit_rate: Option<f64>,
    /// Functional execution backend the worker contexts ran with.
    pub backend: Backend,
}

/// Render the serve-load saturation document (`kind:
/// "serve_saturation"`). Valid JSON with fixed field order, like
/// [`render`].
pub fn render_serve(meta: &ServeMeta, curve: &[SaturationPoint]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"kind\": \"serve_saturation\",\n  \
         \"backend\": \"{}\",\n  \"gpu_config_hash\": \"{:016x}\",\n",
        meta.backend.label(),
        meta.gpu_config_hash
    ));
    out.push_str("  \"serve\": {\n");
    out.push_str(&format!(
        "    \"workers\": {}, \"shards\": {}, \"max_batch\": {}, \"requests_per_point\": {},\n",
        meta.workers, meta.shards, meta.max_batch, meta.requests_per_point
    ));
    out.push_str("    \"tenants\": [");
    for (i, (name, weight)) in meta.tenants.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"weight\": {}}}{}",
            json_escape(name),
            weight,
            if i + 1 == meta.tenants.len() {
                ""
            } else {
                ", "
            }
        ));
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "    \"live\": {{\"served\": {}, \"batches\": {}, \"coalesced\": {}, \
         \"max_queue_depth\": {}, \"p99_ms\": {:.3}, \"cache_hit_ratio\": {:.4}{}}},\n",
        meta.served,
        meta.batches,
        meta.coalesced,
        meta.max_queue_depth,
        meta.p99_ms,
        meta.cache_hit_ratio,
        meta.memo_hit_rate
            .map(|r| format!(", \"memo_hit_rate\": {r:.4}"))
            .unwrap_or_default()
    ));
    out.push_str("    \"curve\": [\n");
    for (i, p) in curve.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"offered_rps\": {:.1}, \"served\": {}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \"utilization\": {:.4}}}{}\n",
            p.offered_rps,
            p.served,
            p.p50_ms,
            p.p99_ms,
            p.mean_ms,
            p.utilization,
            if i + 1 == curve.len() { "" } else { "," }
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_profile(label: &str, cycles: f64) -> KernelProfile {
        KernelProfile {
            name: label.to_string(),
            grid: 64,
            ctas_per_sm: 4,
            warps_per_scheduler: 2.0,
            regs_per_thread: 64,
            static_instrs: 40,
            cycles,
            issue_cycles: cycles,
            dram_cycles: 100.0,
            l2_cycles: 200.0,
            instrs: Default::default(),
            stalls: Default::default(),
            l1: Default::default(),
            l2: Default::default(),
            pipes: Vec::new(),
            hot_pcs: Vec::new(),
        }
    }

    #[test]
    fn serve_document_round_trips_with_v6_fields() {
        let meta = ServeMeta {
            gpu_config_hash: 0xfeed,
            workers: 4,
            shards: 2,
            max_batch: 8,
            requests_per_point: 200,
            tenants: vec![("interactive".into(), 4), ("bulk".into(), 1)],
            served: 64,
            batches: 20,
            coalesced: 44,
            max_queue_depth: 17,
            p99_ms: 12.5,
            cache_hit_ratio: 0.875,
            memo_hit_rate: Some(0.5),
            backend: Backend::Native,
        };
        let curve = vec![
            SaturationPoint {
                offered_rps: 100.0,
                served: 200,
                p50_ms: 1.0,
                p99_ms: 2.0,
                mean_ms: 1.1,
                utilization: 0.12,
            },
            SaturationPoint {
                offered_rps: 800.0,
                served: 200,
                p50_ms: 4.0,
                p99_ms: 20.0,
                mean_ms: 6.0,
                utilization: 0.97,
            },
        ];
        let doc = render_serve(&meta, &curve);
        let parsed = serde_json::from_str(&doc).expect("serve document is valid JSON");
        assert_eq!(
            parsed["schema_version"].as_u64(),
            Some(JSON_SCHEMA_VERSION as u64)
        );
        assert_eq!(parsed["kind"].as_str(), Some("serve_saturation"));
        assert_eq!(parsed["backend"].as_str(), Some("native"));
        let serve = &parsed["serve"];
        assert_eq!(serve["workers"].as_u64(), Some(4));
        assert_eq!(serve["tenants"].as_array().unwrap().len(), 2);
        assert_eq!(serve["tenants"][0]["name"].as_str(), Some("interactive"));
        assert_eq!(serve["live"]["served"].as_u64(), Some(64));
        assert_eq!(serve["live"]["memo_hit_rate"].as_f64(), Some(0.5));
        let curve_j = serve["curve"].as_array().expect("curve array");
        assert_eq!(curve_j.len(), 2);
        assert_eq!(curve_j[1]["p99_ms"].as_f64(), Some(20.0));
        // Without memoization the key is absent, not null.
        let no_memo = ServeMeta {
            memo_hit_rate: None,
            ..meta
        };
        let parsed = serde_json::from_str(&render_serve(&no_memo, &curve)).unwrap();
        assert!(parsed["serve"]["live"].get("memo_hit_rate").is_none());
    }

    #[test]
    fn sweep_document_round_trips() {
        let meta = SweepMeta {
            gpu_config_hash: 0xdead_beef,
            m: 128,
            k: 64,
            n: 32,
            v: 4,
            sparsity: 0.9,
            auto: Some("spmm-octet".to_string()),
            threads: 4,
            wall_ms: 17.25,
            repeat: 10,
            memo: Some(MemoStats {
                wave_hits: 0,
                wave_misses: 5,
                audits: 0,
                launch_hits: 36,
                launch_misses: 4,
                wave_entries: 5,
            }),
            backend: Backend::Simulated,
        };
        let rows = vec![
            SweepRow {
                label: "spmm-dense".to_string(),
                tuned: None,
                scheme: None,
                out_digest: 0xcbf29ce484222325,
                profile: fake_profile("spmm-dense", 1000.0),
            },
            SweepRow {
                label: "auto -> spmm-octet".to_string(),
                tuned: Some("spmm-octet".to_string()),
                scheme: Some("k32n64-large-ordered".to_string()),
                out_digest: 0x00000000deadbeef,
                profile: fake_profile("spmm-octet", 250.0),
            },
        ];
        let certs = vec![Certificate {
            kernel: "spmm-octet".to_string(),
            max_abs_output: 256.0,
            abs_error_bound: 0.126,
            rel_error_bound: 0.126 / 256.0,
            reduction_len: 64,
            stores_f16: true,
        }];
        let doc = render(&meta, &rows, &certs);
        let parsed = serde_json::from_str(&doc).expect("rendered document is valid JSON");
        assert_eq!(
            parsed["schema_version"].as_u64(),
            Some(JSON_SCHEMA_VERSION as u64)
        );
        assert_eq!(parsed["kind"].as_str(), Some("sweep"));
        assert_eq!(parsed["threads"].as_u64(), Some(4));
        assert_eq!(parsed["wall_ms"].as_f64(), Some(17.25));
        assert_eq!(parsed["repeat"].as_u64(), Some(10));
        assert_eq!(parsed["memo"]["launch_hits"].as_u64(), Some(36));
        assert_eq!(parsed["memo"]["hit_rate"].as_f64(), Some(0.8));
        assert_eq!(parsed["gpu_config_hash"].as_str(), Some("00000000deadbeef"));
        assert_eq!(parsed["auto"].as_str(), Some("spmm-octet"));
        assert_eq!(parsed["shape"]["m"].as_u64(), Some(128));
        let rows_j = parsed["rows"].as_array().expect("rows array");
        assert_eq!(rows_j.len(), 2);
        assert_eq!(rows_j[0]["kernel"].as_str(), Some("spmm-dense"));
        assert!(rows_j[0].get("tuned").is_none());
        assert!(rows_j[0].get("tiling_scheme").is_none());
        assert_eq!(rows_j[1]["tuned"].as_str(), Some("spmm-octet"));
        assert_eq!(
            rows_j[1]["tiling_scheme"].as_str(),
            Some("k32n64-large-ordered")
        );
        assert_eq!(rows_j[0]["out_digest"].as_str(), Some("cbf29ce484222325"));
        assert_eq!(rows_j[1]["out_digest"].as_str(), Some("00000000deadbeef"));
        assert_eq!(parsed["backend"].as_str(), Some("simulated"));
        let certs_j = parsed["certificates"].as_array().expect("certificates");
        assert_eq!(certs_j[0]["reduction_len"].as_u64(), Some(64));
    }

    #[test]
    fn stripping_wall_ms_makes_documents_comparable() {
        // The CI determinism gate diffs two sweeps at different thread
        // counts (and memoize settings) after deleting the machine- and
        // mode-dependent fields.
        let mk = |threads, wall_ms, memo, backend| {
            let meta = SweepMeta {
                gpu_config_hash: 1,
                m: 8,
                k: 8,
                n: 8,
                v: 4,
                sparsity: 0.5,
                auto: None,
                threads,
                wall_ms,
                repeat: 1,
                memo,
                backend,
            };
            render(&meta, &[], &[])
        };
        let a = mk(4, 10.0, None, Backend::Simulated);
        let b = mk(4, 99.0, Some(MemoStats::default()), Backend::Native);
        let strip = |doc: &str| match serde_json::from_str(doc).unwrap() {
            serde_json::Value::Object(mut map) => {
                map.remove("wall_ms");
                map.remove("memo");
                map.remove("backend");
                serde_json::Value::Object(map)
            }
            _ => panic!("top level is an object"),
        };
        assert_ne!(a, b);
        assert_eq!(strip(&a), strip(&b));
    }
}
