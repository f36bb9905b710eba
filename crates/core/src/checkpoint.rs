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
//! The payload is a single JSON object persisted through
//! [`write_sealed`] / [`read_sealed`] (the `mcmap-resilience` sealed
//! document path, with its `.bak` fallback); this module owns only the
//! encoder and decoder. All `f64` values are serialized as their IEEE-754
//! bit patterns (`u64`), not as decimal text — decimal round-trips are
//! approximate and would break the bit-identical resume contract.
//!
//! [`attach_trace`] prepares a run's JSONL trace for a fresh or resumed
//! run from the same checkpoint; a [`Resume`] reads that checkpoint once
//! for the trace and the run alike.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mcmap_ga::{DriverState, Evaluation, GenerationStats, Individual};
use mcmap_obs::{parse_json, push_json_str, push_json_u64s, Json, RecorderBuilder};
use mcmap_resilience::{
    atomic_write, read_sealed, seal, unseal_with, write_sealed, ResilienceError,
};

use crate::dse::AuditSnapshot;
use crate::genome::{Genome, TaskGene, TaskHardening};
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
    /// Returns a corruption-class [`ResilienceError`] (see [`unseal_with`]).
    pub fn from_bytes(path: &Path, bytes: &[u8]) -> Result<Self, ResilienceError> {
        unseal_with(KIND, path, bytes, decode)
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
    write_sealed(path, KIND, &encode(ckpt))
}

/// Reads the checkpoint at `path` with [`read_sealed`]'s `.bak` fallback.
/// Returns the checkpoint and whether the backup was used.
///
/// # Errors
///
/// See [`read_sealed`].
pub fn read_checkpoint_with_fallback(
    path: &Path,
) -> Result<(DseCheckpoint, bool), ResilienceError> {
    read_sealed(path, KIND, decode)
}

/// The checkpoint a run resumes from.
#[derive(Debug, Clone)]
pub enum Resume {
    /// Read, unseal and decode the checkpoint at this path (with the `.bak`
    /// fallback of [`read_checkpoint_with_fallback`]) when it is first
    /// needed.
    Path(PathBuf),
    /// A checkpoint already read by [`Resume::read`].
    Read {
        /// Where it was read from.
        path: PathBuf,
        /// The decoded checkpoint.
        checkpoint: Arc<DseCheckpoint>,
        /// Whether the primary was unreadable and its `.bak` was used.
        from_backup: bool,
    },
}

impl Resume {
    /// Reads the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// See [`read_checkpoint_with_fallback`].
    pub fn read(path: PathBuf) -> Result<Self, ResilienceError> {
        let (checkpoint, from_backup) = read_checkpoint_with_fallback(&path)?;
        Ok(Resume::Read {
            path,
            checkpoint: Arc::new(checkpoint),
            from_backup,
        })
    }

    /// The checkpoint's path.
    pub fn path(&self) -> &Path {
        match self {
            Resume::Path(path) | Resume::Read { path, .. } => path,
        }
    }

    /// The checkpoint, read in place the first time.
    ///
    /// # Errors
    ///
    /// See [`read_checkpoint_with_fallback`].
    pub fn load(&mut self) -> Result<&DseCheckpoint, ResilienceError> {
        if let Resume::Path(path) = self {
            *self = Resume::read(std::mem::take(path))?;
        }
        match self {
            Resume::Read { checkpoint, .. } => Ok(checkpoint),
            Resume::Path(_) => unreachable!("read above"),
        }
    }

    /// The checkpoint and whether its `.bak` was used, read now unless it
    /// was read before.
    ///
    /// # Errors
    ///
    /// See [`read_checkpoint_with_fallback`].
    pub fn into_checkpoint(self) -> Result<(DseCheckpoint, bool), ResilienceError> {
        match self {
            Resume::Path(path) => read_checkpoint_with_fallback(&path),
            Resume::Read {
                checkpoint,
                from_backup,
                ..
            } => Ok((Arc::unwrap_or_clone(checkpoint), from_backup)),
        }
    }
}

impl From<PathBuf> for Resume {
    fn from(path: PathBuf) -> Self {
        Resume::Path(path)
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

/// Attaches a run's JSONL trace at `trace` to `builder`.
///
/// A fresh run creates (truncates) the file. A run resuming from `resume`
/// cuts the trace back to the checkpoint's `trace_seq` with
/// [`salvage_trace`] and appends past that mark, so the re-emitted preamble
/// is not written twice. A checkpoint not read yet is read in place, so the
/// run handed the same `resume` does not read it again.
///
/// Returns the builder, the mark the resumed run continues from (0 when
/// fresh), and what the salvage cut.
///
/// # Errors
///
/// Returns the checkpoint read error of a resume before the trace is
/// touched, so a failed resume leaves the previous run's trace as it was.
/// Otherwise returns the salvage's error, or [`ResilienceError::Io`] when
/// the trace cannot be opened.
pub fn attach_trace(
    builder: RecorderBuilder,
    trace: &Path,
    resume: Option<&mut Resume>,
) -> Result<(RecorderBuilder, u64, TraceSalvage), ResilienceError> {
    let open = |e| ResilienceError::io(trace, "open", e);
    let trace_seq = resume
        .map(|resume| resume.load().map(|ckpt| ckpt.trace_seq))
        .transpose()?;
    match trace_seq {
        Some(trace_seq) => {
            let cut = salvage_trace(trace, trace_seq)?;
            let builder = builder.jsonl_append(trace, trace_seq).map_err(open)?;
            Ok((builder, trace_seq, cut))
        }
        None => Ok((
            builder.jsonl(trace).map_err(open)?,
            0,
            TraceSalvage::default(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_bits(out: &mut String, values: &[f64]) {
    push_json_u64s(out, values.iter().map(|v| v.to_bits()));
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
    push_json_u64s(out, genome.alloc.iter().map(|&b| u64::from(b)));
    out.push_str(",\"keep\":");
    push_json_u64s(out, genome.keep.iter().map(|&b| u64::from(b)));
    out.push_str(",\"genes\":[");
    for (i, gene) in genome.genes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        out.push_str(&gene.binding.index().to_string());
        out.push(',');
        match &gene.hardening {
            TaskHardening::None => out.push_str("[\"n\"]"),
            TaskHardening::Reexec(k) => {
                out.push_str("[\"r\",");
                out.push_str(&k.to_string());
                out.push(']');
            }
            TaskHardening::Active { replicas, voter } => {
                out.push_str("[\"a\",");
                push_json_u64s(out, replicas.iter().map(|p| p.index() as u64));
                out.push(',');
                out.push_str(&voter.index().to_string());
                out.push(']');
            }
            TaskHardening::Passive {
                actives,
                standbys,
                voter,
            } => {
                out.push_str("[\"p\",");
                push_json_u64s(out, actives.iter().map(|p| p.index() as u64));
                out.push(',');
                push_json_u64s(out, standbys.iter().map(|p| p.index() as u64));
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
    push_json_u64s(&mut out, st.rng_state);
    out.push_str(",\"reference\":");
    match st.hv_reference {
        Some((a, b)) => push_json_u64s(&mut out, [a.to_bits(), b.to_bits()]),
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
    out.push_str("],\"audit\":");
    let a = &ckpt.audit;
    push_json_u64s(
        &mut out,
        [
            a.evaluated,
            a.feasible,
            a.audited,
            a.rescued_by_dropping,
            a.reexecutions,
            a.active_replications,
            a.passive_replications,
        ]
        .map(|v| v as u64),
    );
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

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn bits(words: Vec<u64>) -> Vec<f64> {
    words.into_iter().map(f64::from_bits).collect()
}

fn decode_eval(v: &Json) -> Result<Evaluation, String> {
    let Json::Bool(feasible) = v.member("feasible")? else {
        return Err("`feasible`: expected bool".into());
    };
    Ok(Evaluation {
        objectives: bits(v.u64_list_member("objectives")?),
        feasible: *feasible,
        penalty: f64::from_bits(v.u64_member("penalty")?),
    })
}

fn uint(v: &Json, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{what}: expected unsigned integer"))
}

fn proc_id(v: &Json, what: &str) -> Result<ProcId, String> {
    Ok(ProcId::new(uint(v, what)? as usize))
}

fn proc_list(v: &Json, what: &str) -> Result<Vec<ProcId>, String> {
    let list = v
        .as_u64_list()
        .ok_or_else(|| format!("{what}: expected array"))?;
    Ok(list.into_iter().map(|p| ProcId::new(p as usize)).collect())
}

pub(crate) fn decode_genome(v: &Json) -> Result<Genome, String> {
    let flags = |key| -> Result<Vec<bool>, String> {
        Ok(v.u64_list_member(key)?
            .into_iter()
            .map(|b| b != 0)
            .collect())
    };
    let mut genes = Vec::new();
    for gene in v.arr_member("genes")? {
        let Some([binding, hard]) = gene.as_arr() else {
            return Err("gene: expected [binding, hardening]".into());
        };
        let hardening = match hard.as_arr() {
            Some([Json::Str(t)]) if t == "n" => TaskHardening::None,
            Some([Json::Str(t), k]) if t == "r" => {
                TaskHardening::Reexec(uint(k, "reexec k")? as u8)
            }
            Some([Json::Str(t), replicas, voter]) if t == "a" => TaskHardening::Active {
                replicas: proc_list(replicas, "replicas")?,
                voter: proc_id(voter, "voter")?,
            },
            Some([Json::Str(t), actives, standbys, voter]) if t == "p" => TaskHardening::Passive {
                actives: proc_list(actives, "actives")?,
                standbys: proc_list(standbys, "standbys")?,
                voter: proc_id(voter, "voter")?,
            },
            Some([Json::Str(t), ..]) => return Err(format!("hardening: unknown tag `{t}`")),
            _ => return Err("hardening: missing tag".into()),
        };
        genes.push(TaskGene {
            binding: proc_id(binding, "binding")?,
            hardening,
        });
    }
    Ok(Genome {
        alloc: flags("alloc")?,
        keep: flags("keep")?,
        genes,
    })
}

fn decode(text: &str) -> Result<DseCheckpoint, String> {
    let root = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;

    let rng_state: [u64; 4] = root
        .u64_list_member("rng")?
        .try_into()
        .map_err(|_| "rng: expected 4 words")?;

    let hv_reference = match root.member("reference")? {
        Json::Null => None,
        v => match v.as_u64_list().as_deref() {
            Some(&[a, b]) => Some((f64::from_bits(a), f64::from_bits(b))),
            _ => return Err("reference: expected 2 values".into()),
        },
    };

    let mut archive = Vec::new();
    for ind in root.arr_member("archive")? {
        archive.push(Individual {
            genotype: decode_genome(ind.member("genome")?)?,
            eval: decode_eval(ind.member("eval")?)?,
        });
    }

    let prev_evals = root
        .arr_member("prev_evals")?
        .iter()
        .map(decode_eval)
        .collect::<Result<_, _>>()?;

    let mut history = Vec::new();
    for row in root.arr_member("history")? {
        history.push(GenerationStats {
            generation: row.u64_member("generation")? as usize,
            best: bits(row.u64_list_member("best")?),
            feasible: row.u64_member("feasible")? as usize,
            front_size: row.u64_member("front_size")? as usize,
        });
    }

    let audit = match root.u64_list_member("audit")?[..] {
        [evaluated, feasible, audited, rescued, reexecutions, active, passive] => AuditSnapshot {
            evaluated: evaluated as usize,
            feasible: feasible as usize,
            audited: audited as usize,
            rescued_by_dropping: rescued as usize,
            reexecutions: reexecutions as usize,
            active_replications: active as usize,
            passive_replications: passive as usize,
        },
        _ => return Err("audit: expected 7 counters".into()),
    };

    // Optional: absent in checkpoints written before the summary existed.
    let config = match root.get("config") {
        None => Vec::new(),
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect::<Option<_>>()
            .ok_or("config: expected string values")?,
        Some(_) => return Err("config: expected object".into()),
    };

    let generation = root.u64_member("generation")? as usize;
    Ok(DseCheckpoint {
        fingerprint: root.u64_member("fingerprint")?,
        generation,
        trace_seq: root.u64_member("trace_seq")?,
        state: DriverState {
            generation,
            rng_state,
            evaluations: root.u64_member("evaluations")? as usize,
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
                    hardening: TaskHardening::None,
                },
                TaskGene {
                    binding: ProcId::new(2),
                    hardening: TaskHardening::Reexec(2),
                },
                TaskGene {
                    binding: ProcId::new(1),
                    hardening: TaskHardening::Active {
                        replicas: vec![ProcId::new(0), ProcId::new(2)],
                        voter: ProcId::new(1),
                    },
                },
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: TaskHardening::Passive {
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
    fn sealed_format_is_pinned() {
        // A format change that still round-trips would pass every other
        // test here; this hash of the sealed sample catches it.
        let bytes = sample().to_bytes();
        assert_eq!(mcmap_resilience::fnv1a64(&bytes), 0x4dc4_3ef6_25a1_b6c9);
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
        std::fs::remove_file(mcmap_resilience::backup_path(&path)).ok();
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
    fn attach_trace_appends_past_the_checkpoint_or_starts_fresh() {
        let dir = std::env::temp_dir().join(format!("mcmap_core_attach_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, ckpt_path) = (dir.join("run.jsonl"), dir.join("run.ckpt"));
        let line = |seq: u64| format!("{{\"seq\":{seq},\"kind\":\"mark\",\"name\":\"m\"}}\n");
        std::fs::write(&trace, line(1) + &line(2) + &line(3)).unwrap();
        let mut ckpt = sample();
        ckpt.trace_seq = 2;
        write_checkpoint(&ckpt_path, &ckpt).unwrap();
        let seqs = |builder: RecorderBuilder, marks: usize| {
            let rec = builder.build();
            for _ in 0..marks {
                rec.mark("m", &[]);
            }
            rec.flush();
            let text = std::fs::read_to_string(&trace).unwrap();
            let events = mcmap_obs::events_from_jsonl(&text).unwrap();
            events.iter().map(|e| e.seq).collect::<Vec<_>>()
        };

        // Resumed: seq 3 is cut, the re-emitted 1 and 2 are suppressed, and
        // the checkpoint is read in place for the run.
        let mut resume = Resume::from(ckpt_path.clone());
        let (builder, trace_seq, cut) =
            attach_trace(RecorderBuilder::new(), &trace, Some(&mut resume)).unwrap();
        assert_eq!((trace_seq, cut.kept, cut.dropped), (2, 2, 1));
        assert_eq!(seqs(builder, 4), [1, 2, 3, 4]);
        std::fs::remove_file(&ckpt_path).unwrap();
        let (read, from_backup) = resume.into_checkpoint().unwrap();
        assert_eq!((read.to_bytes(), from_backup), (ckpt.to_bytes(), false));

        // A checkpoint that cannot be read: the error comes back and the
        // trace keeps its bytes.
        let before = std::fs::read(&trace).unwrap();
        let mut missing = Resume::from(dir.join("missing.ckpt"));
        let err = attach_trace(RecorderBuilder::new(), &trace, Some(&mut missing)).unwrap_err();
        assert!(err.to_string().contains("missing.ckpt"), "{err}");
        assert_eq!(std::fs::read(&trace).unwrap(), before);

        // Fresh: the file starts over.
        let (builder, trace_seq, cut) = attach_trace(RecorderBuilder::new(), &trace, None).unwrap();
        assert_eq!((trace_seq, cut), (0, TraceSalvage::default()));
        assert_eq!(seqs(builder, 1), [1]);
        std::fs::remove_dir_all(&dir).ok();
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
