//! Checkpointing for the design-space exploration driver.
//!
//! A [`DseCheckpoint`] captures the complete generational-loop state at a
//! generation boundary — RNG words, archive, history, telemetry
//! carry-overs, audit counters, and the trace high-water mark — such that
//! a resumed run reproduces the uninterrupted run **bit-identically**
//! (same Pareto front, same canonical trace).
//!
//! ## On-disk format
//!
//! The payload is a single JSON object wrapped in the `mcmap-resilience`
//! envelope (version tag + length + FNV-1a checksum), written atomically
//! with rotation: the previous good checkpoint survives as `<path>.bak`,
//! so a crash mid-write (or a corrupted primary) falls back one
//! generation instead of losing the run.
//!
//! All `f64` values are serialized as their IEEE-754 bit patterns
//! (`u64`), not as decimal text — decimal round-trips are approximate and
//! would break the bit-identical resume contract.

use std::path::Path;

use mcmap_ga::{DriverState, Evaluation, GenerationStats, Individual};
use mcmap_obs::{parse_json, push_json_str, Json};
use mcmap_resilience::{
    atomic_write, atomic_write_rotating, backup_path, seal, unseal, ResilienceError,
};

use crate::dse::AuditSnapshot;
use crate::genome::{GeneHardening, Genome, TaskGene};
use mcmap_model::ProcId;

/// Envelope kind tag for DSE checkpoints.
const KIND: &str = "dse-checkpoint";

/// The complete state of an interrupted exploration at a generation
/// boundary, sufficient for a bit-identical resume.
#[derive(Debug, Clone)]
pub struct DseCheckpoint {
    /// Fingerprint of the problem context and GA parameters the run was
    /// started with. Resume refuses a checkpoint whose fingerprint does
    /// not match the current configuration.
    pub fingerprint: u64,
    /// Index of the last completed generation.
    pub generation: usize,
    /// Trace high-water mark: the highest event `seq` emitted (and
    /// flushed) before this checkpoint was written. On resume, the
    /// salvaged trace prefix keeps events up to this mark and the
    /// re-emitted preamble below it is suppressed.
    pub trace_seq: u64,
    /// The generational-loop state to hand back to the GA driver.
    pub state: DriverState<Genome>,
    /// Audit counters at the boundary, restored into the problem so the
    /// final [`AuditSnapshot`] matches the uninterrupted run.
    pub audit: AuditSnapshot,
    /// Labeled summary of the fingerprinted configuration fields (see
    /// `config_summary` in the DSE module), so a fingerprint mismatch on
    /// resume can report *which* fields diverged. Empty for checkpoints
    /// written before this field existed; purely diagnostic — the
    /// fingerprint remains the gate.
    pub config: Vec<(String, String)>,
}

impl DseCheckpoint {
    /// Serializes to the sealed envelope byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(KIND, encode(self).as_bytes())
    }

    /// Deserializes from sealed envelope bytes. `path` is used only for
    /// error reporting.
    ///
    /// # Errors
    ///
    /// Returns a corruption-class [`ResilienceError`] (truncated payload,
    /// checksum mismatch, version mismatch, malformed JSON).
    pub fn from_bytes(path: &Path, bytes: &[u8]) -> Result<Self, ResilienceError> {
        let payload = unseal(KIND, path, bytes)?;
        let text = std::str::from_utf8(&payload).map_err(|_| ResilienceError::Malformed {
            path: path.to_path_buf(),
            detail: "payload is not valid UTF-8".into(),
        })?;
        decode(path, text)
    }
}

/// Writes `ckpt` to `path` atomically, rotating any existing checkpoint
/// to `<path>.bak` first.
///
/// # Errors
///
/// Returns [`ResilienceError::Io`] when staging, renaming, or syncing
/// fails.
pub fn write_checkpoint(path: &Path, ckpt: &DseCheckpoint) -> Result<(), ResilienceError> {
    atomic_write_rotating(path, &ckpt.to_bytes())
}

/// Reads and validates the checkpoint at `path`.
///
/// # Errors
///
/// Returns [`ResilienceError::Io`] when the file cannot be read, or a
/// corruption-class error when it fails envelope or schema validation.
pub fn read_checkpoint(path: &Path) -> Result<DseCheckpoint, ResilienceError> {
    let bytes = std::fs::read(path).map_err(|e| ResilienceError::io(path, "read", e))?;
    DseCheckpoint::from_bytes(path, &bytes)
}

/// Reads the checkpoint at `path`, falling back to `<path>.bak` when the
/// primary is corrupt (truncated write, bad checksum, wrong version).
///
/// Returns the checkpoint and whether the backup was used. A missing or
/// unreadable primary is an I/O error, not corruption, and does not
/// trigger the fallback.
///
/// # Errors
///
/// Propagates the primary's error when there is no usable backup.
pub fn read_checkpoint_with_fallback(
    path: &Path,
) -> Result<(DseCheckpoint, bool), ResilienceError> {
    match read_checkpoint(path) {
        Ok(ckpt) => Ok((ckpt, false)),
        Err(primary) if primary.is_corruption() => {
            match read_checkpoint(&backup_path(path)) {
                Ok(ckpt) => Ok((ckpt, true)),
                // The primary's diagnosis is the interesting one.
                Err(_) => Err(primary),
            }
        }
        Err(e) => Err(e),
    }
}

/// What [`salvage_trace`] kept and cut from a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSalvage {
    /// Events kept: the valid prefix with `seq <= trace_seq`.
    pub kept: usize,
    /// Valid events dropped because they lie past the checkpoint.
    pub dropped: usize,
    /// Bytes of the torn tail dropped (a malformed line and everything
    /// after it).
    pub torn_bytes: usize,
}

/// Rewrites the trace file at `path` down to its valid prefix of events
/// with `seq <= trace_seq` — the part the checkpoint being resumed from
/// vouches for. A crash can leave a torn final line and events past the
/// checkpoint boundary (the interrupted process kept running); both must
/// go before the resumed run appends, or the stitched stream would differ
/// from an uninterrupted run's. The rewrite is atomic (write-temp, fsync,
/// rename) so a crash *here* cannot make things worse. A missing trace
/// leaves nothing to salvage.
///
/// # Errors
///
/// Returns the rewrite's I/O error; the trace is then left as it was and
/// must not be appended to.
pub fn salvage_trace(path: &Path, trace_seq: u64) -> Result<TraceSalvage, ResilienceError> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(TraceSalvage::default());
    };
    let (events, recovery) = mcmap_obs::events_from_jsonl_lossy(&text);
    let mut out = String::with_capacity(text.len());
    let mut kept = 0usize;
    for event in events.iter().filter(|e| e.seq <= trace_seq) {
        event.write_jsonl(&mut out);
        out.push('\n');
        kept += 1;
    }
    if out != text {
        atomic_write(path, out.as_bytes())?;
    }
    Ok(TraceSalvage {
        kept,
        dropped: events.len() - kept,
        torn_bytes: recovery.dropped_bytes,
    })
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn push_u64s(out: &mut String, values: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn push_bits(out: &mut String, values: &[f64]) {
    push_u64s(out, values.iter().map(|v| v.to_bits()));
}

fn push_eval(out: &mut String, eval: &Evaluation) {
    out.push_str("{\"objectives\":");
    push_bits(out, &eval.objectives);
    out.push_str(",\"feasible\":");
    out.push_str(if eval.feasible { "true" } else { "false" });
    out.push_str(",\"penalty\":");
    out.push_str(&eval.penalty.to_bits().to_string());
    out.push('}');
}

pub(crate) fn push_genome(out: &mut String, genome: &Genome) {
    out.push_str("{\"alloc\":");
    push_u64s(out, genome.alloc.iter().map(|&b| u64::from(b)));
    out.push_str(",\"keep\":");
    push_u64s(out, genome.keep.iter().map(|&b| u64::from(b)));
    out.push_str(",\"genes\":[");
    for (i, gene) in genome.genes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        out.push_str(&gene.binding.index().to_string());
        out.push(',');
        match &gene.hardening {
            GeneHardening::None => out.push_str("[\"n\"]"),
            GeneHardening::Reexec(k) => {
                out.push_str("[\"r\",");
                out.push_str(&k.to_string());
                out.push(']');
            }
            GeneHardening::Active { replicas, voter } => {
                out.push_str("[\"a\",");
                push_u64s(out, replicas.iter().map(|p| p.index() as u64));
                out.push(',');
                out.push_str(&voter.index().to_string());
                out.push(']');
            }
            GeneHardening::Passive {
                actives,
                standbys,
                voter,
            } => {
                out.push_str("[\"p\",");
                push_u64s(out, actives.iter().map(|p| p.index() as u64));
                out.push(',');
                push_u64s(out, standbys.iter().map(|p| p.index() as u64));
                out.push(',');
                out.push_str(&voter.index().to_string());
                out.push(']');
            }
        }
        out.push(']');
    }
    out.push_str("]}");
}

fn encode(ckpt: &DseCheckpoint) -> String {
    let st = &ckpt.state;
    let mut out = String::with_capacity(4096);
    out.push_str("{\"fingerprint\":");
    out.push_str(&ckpt.fingerprint.to_string());
    out.push_str(",\"generation\":");
    out.push_str(&ckpt.generation.to_string());
    out.push_str(",\"trace_seq\":");
    out.push_str(&ckpt.trace_seq.to_string());
    out.push_str(",\"evaluations\":");
    out.push_str(&st.evaluations.to_string());
    out.push_str(",\"rng\":");
    push_u64s(&mut out, st.rng_state);
    out.push_str(",\"reference\":");
    match st.hv_reference {
        Some((a, b)) => push_u64s(&mut out, [a.to_bits(), b.to_bits()]),
        None => out.push_str("null"),
    }
    out.push_str(",\"archive\":[");
    for (i, ind) in st.archive.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"genome\":");
        push_genome(&mut out, &ind.genotype);
        out.push_str(",\"eval\":");
        push_eval(&mut out, &ind.eval);
        out.push('}');
    }
    out.push_str("],\"prev_evals\":[");
    for (i, eval) in st.prev_evals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_eval(&mut out, eval);
    }
    out.push_str("],\"history\":[");
    for (i, row) in st.history.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"generation\":");
        out.push_str(&row.generation.to_string());
        out.push_str(",\"best\":");
        push_bits(&mut out, &row.best);
        out.push_str(",\"feasible\":");
        out.push_str(&row.feasible.to_string());
        out.push_str(",\"front_size\":");
        out.push_str(&row.front_size.to_string());
        out.push('}');
    }
    out.push_str("],\"audit\":[");
    let a = &ckpt.audit;
    push_audit_fields(&mut out, a);
    out.push(']');
    // Written only when present so pre-summary checkpoints (empty vec)
    // keep their exact byte stream through a decode/encode round trip.
    if !ckpt.config.is_empty() {
        out.push_str(",\"config\":{");
        for (i, (k, v)) in ckpt.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            push_json_str(&mut out, v);
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn push_audit_fields(out: &mut String, a: &AuditSnapshot) {
    let fields = [
        a.evaluated,
        a.feasible,
        a.audited,
        a.rescued_by_dropping,
        a.reexecutions,
        a.active_replications,
        a.passive_replications,
    ];
    for (i, v) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

pub(crate) fn malformed(path: &Path, detail: impl Into<String>) -> ResilienceError {
    ResilienceError::Malformed {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

pub(crate) fn get<'a>(path: &Path, obj: &'a Json, key: &str) -> Result<&'a Json, ResilienceError> {
    obj.get(key)
        .ok_or_else(|| malformed(path, format!("missing key `{key}`")))
}

pub(crate) fn as_u64(path: &Path, v: &Json, what: &str) -> Result<u64, ResilienceError> {
    v.as_u64()
        .ok_or_else(|| malformed(path, format!("{what}: expected unsigned integer")))
}

pub(crate) fn as_usize(path: &Path, v: &Json, what: &str) -> Result<usize, ResilienceError> {
    Ok(as_u64(path, v, what)? as usize)
}

pub(crate) fn as_arr<'a>(
    path: &Path,
    v: &'a Json,
    what: &str,
) -> Result<&'a [Json], ResilienceError> {
    match v {
        Json::Arr(items) => Ok(items),
        _ => Err(malformed(path, format!("{what}: expected array"))),
    }
}

pub(crate) fn u64_list(path: &Path, v: &Json, what: &str) -> Result<Vec<u64>, ResilienceError> {
    as_arr(path, v, what)?
        .iter()
        .map(|item| as_u64(path, item, what))
        .collect()
}

fn bits_list(path: &Path, v: &Json, what: &str) -> Result<Vec<f64>, ResilienceError> {
    Ok(u64_list(path, v, what)?
        .into_iter()
        .map(f64::from_bits)
        .collect())
}

fn decode_eval(path: &Path, v: &Json) -> Result<Evaluation, ResilienceError> {
    let objectives = bits_list(path, get(path, v, "objectives")?, "objectives")?;
    let feasible = match get(path, v, "feasible")? {
        Json::Bool(b) => *b,
        _ => return Err(malformed(path, "feasible: expected bool")),
    };
    let penalty = f64::from_bits(as_u64(path, get(path, v, "penalty")?, "penalty")?);
    Ok(Evaluation {
        objectives,
        feasible,
        penalty,
    })
}

fn proc_list(path: &Path, v: &Json, what: &str) -> Result<Vec<ProcId>, ResilienceError> {
    Ok(u64_list(path, v, what)?
        .into_iter()
        .map(|p| ProcId::new(p as usize))
        .collect())
}

pub(crate) fn decode_genome(path: &Path, v: &Json) -> Result<Genome, ResilienceError> {
    let alloc = u64_list(path, get(path, v, "alloc")?, "alloc")?
        .into_iter()
        .map(|b| b != 0)
        .collect();
    let keep = u64_list(path, get(path, v, "keep")?, "keep")?
        .into_iter()
        .map(|b| b != 0)
        .collect();
    let mut genes = Vec::new();
    for gene in as_arr(path, get(path, v, "genes")?, "genes")? {
        let parts = as_arr(path, gene, "gene")?;
        if parts.len() != 2 {
            return Err(malformed(path, "gene: expected [binding, hardening]"));
        }
        let binding = ProcId::new(as_usize(path, &parts[0], "binding")?);
        let hard = as_arr(path, &parts[1], "hardening")?;
        let tag = match hard.first() {
            Some(Json::Str(s)) => s.as_str(),
            _ => return Err(malformed(path, "hardening: missing tag")),
        };
        let hardening = match (tag, hard.len()) {
            ("n", 1) => GeneHardening::None,
            ("r", 2) => GeneHardening::Reexec(as_u64(path, &hard[1], "reexec k")? as u8),
            ("a", 3) => GeneHardening::Active {
                replicas: proc_list(path, &hard[1], "replicas")?,
                voter: ProcId::new(as_usize(path, &hard[2], "voter")?),
            },
            ("p", 4) => GeneHardening::Passive {
                actives: proc_list(path, &hard[1], "actives")?,
                standbys: proc_list(path, &hard[2], "standbys")?,
                voter: ProcId::new(as_usize(path, &hard[3], "voter")?),
            },
            _ => return Err(malformed(path, format!("hardening: unknown tag `{tag}`"))),
        };
        genes.push(TaskGene { binding, hardening });
    }
    Ok(Genome { alloc, keep, genes })
}

fn decode(path: &Path, text: &str) -> Result<DseCheckpoint, ResilienceError> {
    let root = parse_json(text).map_err(|e| malformed(path, format!("invalid JSON: {e}")))?;

    let rng_words = u64_list(path, get(path, &root, "rng")?, "rng")?;
    let rng_state: [u64; 4] = rng_words
        .try_into()
        .map_err(|_| malformed(path, "rng: expected 4 words"))?;

    let hv_reference = match get(path, &root, "reference")? {
        Json::Null => None,
        v => {
            let pair = u64_list(path, v, "reference")?;
            if pair.len() != 2 {
                return Err(malformed(path, "reference: expected 2 values"));
            }
            Some((f64::from_bits(pair[0]), f64::from_bits(pair[1])))
        }
    };

    let mut archive = Vec::new();
    for ind in as_arr(path, get(path, &root, "archive")?, "archive")? {
        archive.push(Individual {
            genotype: decode_genome(path, get(path, ind, "genome")?)?,
            eval: decode_eval(path, get(path, ind, "eval")?)?,
        });
    }

    let mut prev_evals = Vec::new();
    for eval in as_arr(path, get(path, &root, "prev_evals")?, "prev_evals")? {
        prev_evals.push(decode_eval(path, eval)?);
    }

    let mut history = Vec::new();
    for row in as_arr(path, get(path, &root, "history")?, "history")? {
        history.push(GenerationStats {
            generation: as_usize(path, get(path, row, "generation")?, "history generation")?,
            best: bits_list(path, get(path, row, "best")?, "history best")?,
            feasible: as_usize(path, get(path, row, "feasible")?, "history feasible")?,
            front_size: as_usize(path, get(path, row, "front_size")?, "history front_size")?,
        });
    }

    let audit_fields = u64_list(path, get(path, &root, "audit")?, "audit")?;
    if audit_fields.len() != 7 {
        return Err(malformed(path, "audit: expected 7 counters"));
    }
    let audit = AuditSnapshot {
        evaluated: audit_fields[0] as usize,
        feasible: audit_fields[1] as usize,
        audited: audit_fields[2] as usize,
        rescued_by_dropping: audit_fields[3] as usize,
        reexecutions: audit_fields[4] as usize,
        active_replications: audit_fields[5] as usize,
        passive_replications: audit_fields[6] as usize,
    };

    // Optional: absent in checkpoints written before the summary existed.
    let mut config = Vec::new();
    if let Some(obj) = root.get("config") {
        match obj {
            Json::Obj(members) => {
                for (k, v) in members {
                    match v {
                        Json::Str(s) => config.push((k.clone(), s.clone())),
                        _ => return Err(malformed(path, "config: expected string values")),
                    }
                }
            }
            _ => return Err(malformed(path, "config: expected object")),
        }
    }

    let generation = as_usize(path, get(path, &root, "generation")?, "generation")?;
    Ok(DseCheckpoint {
        fingerprint: as_u64(path, get(path, &root, "fingerprint")?, "fingerprint")?,
        generation,
        trace_seq: as_u64(path, get(path, &root, "trace_seq")?, "trace_seq")?,
        state: DriverState {
            generation,
            rng_state,
            evaluations: as_usize(path, get(path, &root, "evaluations")?, "evaluations")?,
            archive,
            history,
            hv_reference,
            prev_evals,
        },
        audit,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DseCheckpoint {
        let genome = Genome {
            alloc: vec![true, false, true],
            keep: vec![true],
            genes: vec![
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: GeneHardening::None,
                },
                TaskGene {
                    binding: ProcId::new(2),
                    hardening: GeneHardening::Reexec(2),
                },
                TaskGene {
                    binding: ProcId::new(1),
                    hardening: GeneHardening::Active {
                        replicas: vec![ProcId::new(0), ProcId::new(2)],
                        voter: ProcId::new(1),
                    },
                },
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: GeneHardening::Passive {
                        actives: vec![ProcId::new(1)],
                        standbys: vec![ProcId::new(2), ProcId::new(0)],
                        voter: ProcId::new(2),
                    },
                },
            ],
        };
        let eval = Evaluation {
            objectives: vec![0.1 + 0.2, f64::INFINITY, -0.0],
            feasible: true,
            penalty: 1e-300,
        };
        DseCheckpoint {
            fingerprint: 0xdead_beef_cafe_f00d,
            generation: 7,
            trace_seq: 4242,
            state: DriverState {
                generation: 7,
                rng_state: [u64::MAX, 1, 0, 0x1234_5678_9abc_def0],
                evaluations: 96,
                archive: vec![Individual {
                    genotype: genome,
                    eval: eval.clone(),
                }],
                history: vec![GenerationStats {
                    generation: 0,
                    best: vec![3.25, f64::NAN],
                    feasible: 4,
                    front_size: 2,
                }],
                hv_reference: Some((1.5, 2.5)),
                prev_evals: vec![eval],
            },
            audit: AuditSnapshot {
                evaluated: 96,
                feasible: 60,
                audited: 10,
                rescued_by_dropping: 1,
                reexecutions: 30,
                active_replications: 12,
                passive_replications: 3,
            },
            config: vec![
                ("ga.seed".into(), "8".into()),
                ("ga.selector".into(), "Spea2 \"quoted\\path\"\n".into()),
            ],
        }
    }

    fn assert_round_trips(ckpt: &DseCheckpoint) {
        let bytes = ckpt.to_bytes();
        let back = DseCheckpoint::from_bytes(Path::new("test.ckpt"), &bytes).unwrap();
        assert_eq!(back.fingerprint, ckpt.fingerprint);
        assert_eq!(back.generation, ckpt.generation);
        assert_eq!(back.trace_seq, ckpt.trace_seq);
        assert_eq!(back.state.rng_state, ckpt.state.rng_state);
        assert_eq!(back.state.evaluations, ckpt.state.evaluations);
        assert_eq!(back.audit, ckpt.audit);
        assert_eq!(back.state.archive.len(), ckpt.state.archive.len());
        for (a, b) in back.state.archive.iter().zip(&ckpt.state.archive) {
            assert_eq!(a.genotype, b.genotype);
            assert_eq!(bits_of(&a.eval), bits_of(&b.eval));
        }
        assert_eq!(back.state.history.len(), ckpt.state.history.len());
        for (a, b) in back.state.history.iter().zip(&ckpt.state.history) {
            assert_eq!(a.generation, b.generation);
            assert_eq!(a.feasible, b.feasible);
            assert_eq!(a.front_size, b.front_size);
            let a_bits: Vec<u64> = a.best.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.best.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
        assert_eq!(
            back.state.hv_reference.map(pair_bits),
            ckpt.state.hv_reference.map(pair_bits)
        );
        assert_eq!(back.state.prev_evals.len(), ckpt.state.prev_evals.len());
        for (a, b) in back.state.prev_evals.iter().zip(&ckpt.state.prev_evals) {
            assert_eq!(bits_of(a), bits_of(b));
        }
        assert_eq!(back.config, ckpt.config);
    }

    fn bits_of(eval: &Evaluation) -> (Vec<u64>, bool, u64) {
        (
            eval.objectives.iter().map(|v| v.to_bits()).collect(),
            eval.feasible,
            eval.penalty.to_bits(),
        )
    }

    fn pair_bits((a, b): (f64, f64)) -> (u64, u64) {
        (a.to_bits(), b.to_bits())
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        assert_round_trips(&sample());
    }

    #[test]
    fn nan_and_infinity_survive_the_round_trip() {
        let back = DseCheckpoint::from_bytes(Path::new("test.ckpt"), &sample().to_bytes()).unwrap();
        assert!(back.state.history[0].best[1].is_nan());
        assert!(back.state.archive[0].eval.objectives[1].is_infinite());
        assert_eq!(
            back.state.archive[0].eval.objectives[2].to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn truncated_bytes_are_detected_as_corruption() {
        let bytes = sample().to_bytes();
        let cut = &bytes[..bytes.len() / 2];
        let err = DseCheckpoint::from_bytes(Path::new("test.ckpt"), cut).unwrap_err();
        assert!(err.is_corruption(), "unexpected error: {err}");
    }

    #[test]
    fn bit_flips_are_detected_as_corruption() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 10;
        bytes[last] ^= 0x40;
        let err = DseCheckpoint::from_bytes(Path::new("test.ckpt"), &bytes).unwrap_err();
        assert!(err.is_corruption(), "unexpected error: {err}");
    }

    #[test]
    fn fallback_recovers_from_a_torn_primary_write() {
        let dir = std::env::temp_dir().join("mcmap_core_ckpt_fallback_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let mut first = sample();
        first.generation = 3;
        first.state.generation = 3;
        write_checkpoint(&path, &first).unwrap();
        let second = sample();
        write_checkpoint(&path, &second).unwrap();
        // Simulate a torn write of the newest checkpoint.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let (restored, from_backup) = read_checkpoint_with_fallback(&path).unwrap();
        assert!(from_backup);
        assert_eq!(restored.generation, 3);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(backup_path(&path)).ok();
    }

    #[test]
    fn salvage_cuts_the_trace_back_to_the_checkpoint() {
        let dir = std::env::temp_dir().join(format!("mcmap_core_salvage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let line = |seq: u64| format!("{{\"seq\":{seq},\"kind\":\"mark\",\"name\":\"m\"}}\n");
        let torn = "{\"seq\":4,\"ki";
        std::fs::write(&path, format!("{}{}{}{torn}", line(1), line(2), line(3))).unwrap();
        let salvage = salvage_trace(&path, 2).unwrap();
        assert_eq!(
            salvage,
            TraceSalvage {
                kept: 2,
                dropped: 1,
                torn_bytes: torn.len(),
            }
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), line(1) + &line(2));
        // An intact trace within the boundary, and a missing one, are left alone.
        assert_eq!(salvage_trace(&path, 2).unwrap().kept, 2);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(salvage_trace(&path, 2).unwrap(), TraceSalvage::default());
    }

    #[test]
    fn empty_archive_and_missing_reference_round_trip() {
        let mut ckpt = sample();
        ckpt.state.archive.clear();
        ckpt.state.prev_evals.clear();
        ckpt.state.history.clear();
        ckpt.state.hv_reference = None;
        ckpt.config.clear();
        assert_round_trips(&ckpt);
    }

    #[test]
    fn pre_summary_checkpoints_decode_with_empty_config() {
        // A checkpoint without a `config` member (the format before the
        // summary existed) must still load — diagnostics degrade, the
        // fingerprint gate does not.
        let mut ckpt = sample();
        ckpt.config.clear();
        let bytes = ckpt.to_bytes();
        let back = DseCheckpoint::from_bytes(Path::new("test.ckpt"), &bytes).unwrap();
        assert!(back.config.is_empty());
        // And a decode → encode round trip reproduces the exact bytes.
        assert_eq!(back.to_bytes(), bytes);
    }
}
