//! The per-layer replay of the traced run: times calls into each module's
//! public functions on the workload's own inputs, outside the server.
//!
//! There is no instrumentation inside the program. Stages the encoder layer
//! runs internally (projections, softmax, Add&LN, GELU) are replayed through
//! the same public parts the layer is built from, at the layer's real
//! shapes; what the layer span holds beyond them (Q·Kᵀ, Attn·V, their
//! requantization and the per-head block copies) is its self time.

use crate::stats::median;
use crate::trace::Tracer;
use fqbert_accel::dataflow::{encoder_layer_stages, EncoderShape};
use fqbert_accel::{AcceleratorConfig, Scheduler, StageKind};
use fqbert_core::int_model::IntGelu;
use fqbert_core::{IntBertModel, IntEncoderLayer};
use fqbert_quant::{Requantizer, SoftmaxLut};
use fqbert_runtime::{EncodedBatch, Engine};
use fqbert_serve::{protocol, TicketResponse};
use fqbert_tensor::{GemmScratch, IntTensor, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probability levels of the layer's softmax LUT (the encoder's private
/// `PROB_LEVELS`: 8-bit probabilities).
const PROB_LEVELS: u32 = 255;
/// Most sequences in the layer-breakdown batch...
const LAYER_BATCH: usize = 8;
/// ...and most words.
const LAYER_WORDS: usize = 512;
/// Wall time one replay aims to spend in its repetitions.
const BUDGET: Duration = Duration::from_secs(5);
/// Each timed call is looped until it covers at least this long, so
/// microsecond-scale calls are not lost in timer resolution.
const MIN_SAMPLE: Duration = Duration::from_micros(500);

/// Inputs of one replay.
pub struct ReplayInput<'a> {
    pub engine: &'a Engine,
    pub model_name: &'a str,
    /// Request-sized groups of workload texts (codec and tokenizer replay).
    pub requests: &'a [Vec<String>],
    /// Rendered request frames captured from the window.
    pub frames: &'a [String],
    /// Observed median flush size: the batch `classify_batch` replays at.
    pub flush: usize,
}

/// Per-stage times of one encoder layer (µs, median over repetitions).
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    layer: f64,
    qkv: f64,
    o: f64,
    ffn1: f64,
    ffn2: f64,
    softmax: f64,
    layernorm: f64,
    gelu: f64,
}

impl Stages {
    fn replayed(&self) -> f64 {
        self.qkv + self.o + self.ffn1 + self.ffn2 + self.softmax + self.layernorm + self.gelu
    }

    fn attention_self(&self) -> f64 {
        self.layer - self.replayed()
    }
}

/// Times `f` (looped until it covers [`MIN_SAMPLE`]) and returns µs per call.
fn time_call<T>(
    tracer: &mut Tracer,
    trace: u64,
    name: &'static str,
    epoch: Instant,
    mut f: impl FnMut() -> T,
) -> f64 {
    let start = Instant::now();
    black_box(f());
    let mut calls = 1u32;
    while start.elapsed() < MIN_SAMPLE {
        black_box(f());
        calls += 1;
    }
    let end = Instant::now();
    tracer.span(trace, None, name, start - epoch, end - epoch);
    (end - start).as_secs_f64() * 1e6 / f64::from(calls)
}

/// Runs the replay and returns its per-layer values plus a Fig. 5 share
/// table (measured CPU share beside the cycle model's share).
pub fn replay(
    input: &ReplayInput<'_>,
    tracer: &mut Tracer,
    epoch: Instant,
) -> Result<(crate::Metrics, String), String> {
    let engine = input.engine;
    let model = engine
        .backend()
        .int_model()
        .ok_or("the replay needs an integer engine")?;
    let tokenizer = engine.tokenizer();
    let request = input.requests.first().ok_or("no requests to replay")?;
    // The layer breakdown runs on the first workload texts up to
    // LAYER_BATCH sequences or LAYER_WORDS words (one 4-text request at
    // s128, several short texts elsewhere).
    let mut words = 0;
    let refs: Vec<&str> = input
        .requests
        .iter()
        .flatten()
        .map(String::as_str)
        .take_while(|t| {
            words += t.split_whitespace().count();
            words <= LAYER_WORDS
        })
        .take(LAYER_BATCH)
        .collect();
    let layer_batch = EncodedBatch::from_texts(tokenizer, &refs);
    let flush_texts: Vec<&str> = input
        .requests
        .iter()
        .flatten()
        .map(String::as_str)
        .take(input.flush.max(1))
        .collect();
    let flush_batch = EncodedBatch::from_texts(tokenizer, &flush_texts);
    let shard_len = flush_batch.len().div_ceil(engine.threads());
    let shard = flush_batch.shard(0..shard_len);

    // The replayed chain must compute what the engine computes before any
    // of its pieces is timed.
    let reference = engine
        .classify_batch(&layer_batch)
        .map_err(|e| format!("reference classify: {e}"))?;
    // Each layer's input is kept for the stage replays below.
    let (mut hidden, seq_lens) = embed_batch(model, &layer_batch)?;
    let mut scratch = GemmScratch::new();
    let mut inputs = Vec::with_capacity(model.layers.len());
    for layer in &model.layers {
        let next = layer
            .forward_batch_with_scratch(&hidden, &seq_lens, &mut scratch)
            .map_err(|e| format!("layer replay: {e}"))?;
        inputs.push(std::mem::replace(&mut hidden, next));
    }
    let replayed = classify_rows(model, &hidden, &seq_lens)?;
    let expected: Vec<Vec<u32>> = reference.logits.iter().map(|l| bits(l)).collect();
    let got: Vec<Vec<u32>> = replayed.iter().map(|l| bits(l)).collect();
    if expected != got {
        return Err(
            "the replayed IntEncoderLayer chain differs from Engine::classify_batch".into(),
        );
    }

    // The softmax's real inputs, computed once, untimed.
    let scores: Vec<Vec<(Vec<i32>, usize)>> = model
        .layers
        .iter()
        .zip(&inputs)
        .map(|(layer, x)| softmax_inputs(layer, x, &seq_lens, &mut scratch))
        .collect::<Result<_, _>>()?;
    let scored = engine
        .classify_scored(&layer_batch)
        .map_err(|e| format!("scored classify: {e}"))?;

    let layers = model.layers.len().max(1);
    let mut tokenize: Vec<f64> = Vec::new();
    let mut parse: Vec<f64> = Vec::new();
    let mut render: Vec<f64> = Vec::new();
    let mut classify: Vec<f64> = Vec::new();
    let mut shard_serial: Vec<f64> = Vec::new();
    let mut classifier: Vec<f64> = Vec::new();
    let mut embed: Vec<f64> = Vec::new();
    let mut per_layer: Vec<Vec<Stages>> = vec![Vec::new(); layers];
    let started = Instant::now();
    let mut rep = 0u64;
    let response = TicketResponse {
        results: scored.results[..request.len().min(scored.results.len())].to_vec(),
        cost: None,
        flushed_batch: input.flush,
        wait: Duration::ZERO,
        cached: false,
    };
    while rep < 3 || (started.elapsed() < BUDGET && rep < 20) {
        let mut samples = Vec::new();
        for texts in input.requests.iter().take(16) {
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            samples.push(time_call(tracer, rep, "nlp.tokenize", epoch, || {
                EncodedBatch::from_texts(tokenizer, &refs)
            }));
        }
        tokenize.push(median(&samples));
        samples.clear();
        for line in input.frames.iter().take(16) {
            samples.push(time_call(tracer, rep, "serve.parse", epoch, || {
                protocol::parse_command(line)
            }));
        }
        parse.push(median(&samples));
        render.push(time_call(tracer, rep, "serve.render", epoch, || {
            protocol::response_frame("r0", input.model_name, &response, 1.0).render()
        }));
        classify.push(time_call(tracer, rep, "runtime.classify", epoch, || {
            engine.classify_batch(&flush_batch)
        }));
        shard_serial.push(time_call(tracer, rep, "fqbert.logits_shard", epoch, || {
            model.logits_batch_with_scratch(shard.examples(), &mut scratch)
        }));
        classifier.push(time_call(tracer, rep, "fqbert.classifier", epoch, || {
            classify_rows(model, &hidden, &seq_lens)
        }));
        embed.push(time_call(tracer, rep, "fqbert.embed", epoch, || {
            embed_batch(model, &layer_batch)
        }));
        for (l, layer) in model.layers.iter().enumerate() {
            let stages = time_layer(
                layer,
                &inputs[l],
                &seq_lens,
                &scores[l],
                &mut scratch,
                tracer,
                rep,
                epoch,
            )?;
            per_layer[l].push(stages);
        }
        rep += 1;
    }

    let stage_median =
        |l: usize, f: fn(&Stages) -> f64| median(&per_layer[l].iter().map(f).collect::<Vec<_>>());
    let mut mean = Stages::default();
    for l in 0..layers {
        mean.layer += stage_median(l, |s| s.layer) / layers as f64;
        mean.qkv += stage_median(l, |s| s.qkv) / layers as f64;
        mean.o += stage_median(l, |s| s.o) / layers as f64;
        mean.ffn1 += stage_median(l, |s| s.ffn1) / layers as f64;
        mean.ffn2 += stage_median(l, |s| s.ffn2) / layers as f64;
        mean.softmax += stage_median(l, |s| s.softmax) / layers as f64;
        mean.layernorm += stage_median(l, |s| s.layernorm) / layers as f64;
        mean.gelu += stage_median(l, |s| s.gelu) / layers as f64;
    }

    if mean.attention_self() < 0.0 {
        // The replayed stages took longer than the whole layer: timing noise
        // exceeded the attention work, so the breakdown is not usable.
        eprintln!(
            "warning: replayed stages ({:.1} us) exceed the layer span ({:.1} us)",
            mean.replayed(),
            mean.layer
        );
    }
    let config = model.config();
    let mean_seq = seq_lens.iter().sum::<usize>() as f64 / seq_lens.len() as f64;
    let shape = EncoderShape {
        seq_len: mean_seq.round() as usize,
        hidden: config.hidden,
        intermediate: config.intermediate,
        heads: config.heads,
    };
    let (attention_macs, proj_macs) =
        macs_per_sequence(&seq_lens, config.hidden, config.intermediate, config.heads);
    let proj_us = mean.qkv + mean.o + mean.ffn1 + mean.ffn2;
    let batch_proj_macs: f64 = proj_macs * seq_lens.len() as f64;
    let values: crate::Metrics = vec![
        ("nlp.tokenize_us".into(), median(&tokenize), "us"),
        ("serve.parse_us".into(), median(&parse), "us"),
        ("serve.render_us".into(), median(&render), "us"),
        ("runtime.classify_us".into(), median(&classify), "us"),
        (
            "runtime.pool_overhead_us".into(),
            median(&classify) - median(&shard_serial),
            "us",
        ),
        ("fqbert.embed_us".into(), median(&embed), "us"),
        ("fqbert.classifier_us".into(), median(&classifier), "us"),
        ("fqbert.layer_us".into(), mean.layer, "us"),
        ("tensor.proj.qkv_us".into(), mean.qkv, "us"),
        ("tensor.proj.o_us".into(), mean.o, "us"),
        ("tensor.proj.ffn1_us".into(), mean.ffn1, "us"),
        ("tensor.proj.ffn2_us".into(), mean.ffn2, "us"),
        (
            "tensor.proj_gmacs_s".into(),
            batch_proj_macs / (proj_us * 1e-6) / 1e9,
            "GMAC/s",
        ),
        ("quant.softmax_us".into(), mean.softmax, "us"),
        ("quant.layernorm_us".into(), mean.layernorm, "us"),
        ("fqbert.gelu_us".into(), mean.gelu, "us"),
        (
            "fqbert.attention_self_us".into(),
            mean.attention_self(),
            "us",
        ),
        (
            "fqbert.attention_macs".into(),
            attention_macs * layers as f64,
            "count",
        ),
        (
            "tensor.proj_macs".into(),
            proj_macs * layers as f64,
            "count",
        ),
    ];
    let table = stage_table(&mean, &shape, seq_lens.len());
    Ok((values, table))
}

/// Times one layer's forward and each replayed stage at its real shapes.
#[allow(clippy::too_many_arguments)]
fn time_layer(
    layer: &IntEncoderLayer,
    x: &IntTensor<i8>,
    seq_lens: &[usize],
    scores: &[(Vec<i32>, usize)],
    scratch: &mut GemmScratch,
    t: &mut Tracer,
    rep: u64,
    epoch: Instant,
) -> Result<Stages, String> {
    let s = layer.scales();
    let rows = x.as_matrix_dims().map_err(|e| e.to_string())?.0;
    let softmax = SoftmaxLut::new(s.scores, PROB_LEVELS).map_err(|e| e.to_string())?;
    let gelu = IntGelu::new(s.ffn_hidden, s.ffn_hidden);
    // Untimed stand-ins of the right shapes for the stages whose real
    // inputs are internal to the layer (the attention context and the
    // first Add&LN output have the layer input's shape).
    let o_out = layer
        .attn_output
        .forward_with_scratch(x, scratch)
        .map_err(|e| e.to_string())?;
    let ffn1_out = layer
        .ffn1
        .forward_with_scratch(x, scratch)
        .map_err(|e| e.to_string())?;
    let gelu_out = gelu.apply_tensor(&ffn1_out);
    let mut stages = Stages {
        layer: time_call(t, rep, "fqbert.layer", epoch, || {
            layer.forward_batch_with_scratch(x, seq_lens, scratch)
        }),
        ..Stages::default()
    };
    stages.qkv = time_call(t, rep, "tensor.proj.qkv", epoch, || {
        (
            layer.query.forward_with_scratch(x, scratch),
            layer.key.forward_with_scratch(x, scratch),
            layer.value.forward_with_scratch(x, scratch),
        )
    });
    stages.o = time_call(t, rep, "tensor.proj.o", epoch, || {
        layer.attn_output.forward_with_scratch(x, scratch)
    });
    stages.ffn1 = time_call(t, rep, "tensor.proj.ffn1", epoch, || {
        layer.ffn1.forward_with_scratch(x, scratch)
    });
    stages.ffn2 = time_call(t, rep, "tensor.proj.ffn2", epoch, || {
        layer.ffn2.forward_with_scratch(&gelu_out, scratch)
    });
    stages.gelu = time_call(t, rep, "fqbert.gelu", epoch, || {
        gelu.apply_tensor(&ffn1_out)
    });
    stages.softmax = time_call(t, rep, "quant.softmax", epoch, || {
        scores
            .iter()
            .map(|(m, seq)| softmax.apply_matrix(m, *seq).len())
            .sum::<usize>()
    });
    stages.layernorm = time_call(t, rep, "quant.layernorm", epoch, || {
        for i in 0..rows {
            black_box(layer.attn_layer_norm().apply_residual(
                x.row(i),
                s.input,
                o_out.row(i),
                s.attn_output,
                s.layer_norm,
            ))
            .expect("attention Add&LN replay");
            black_box(layer.ffn_layer_norm().apply_residual(
                x.row(i),
                s.layer_norm,
                o_out.row(i),
                s.ffn_output,
                s.layer_norm,
            ))
            .expect("FFN Add&LN replay");
        }
    });
    Ok(stages)
}

/// The requantized score matrix of every (sequence, head) of one layer —
/// the softmax's real inputs, rebuilt from the public projections and the
/// layer's scales exactly as the layer derives them.
fn softmax_inputs(
    layer: &IntEncoderLayer,
    x: &IntTensor<i8>,
    seq_lens: &[usize],
    scratch: &mut GemmScratch,
) -> Result<Vec<(Vec<i32>, usize)>, String> {
    let s = layer.scales();
    let (_, hidden) = x.as_matrix_dims().map_err(|e| e.to_string())?;
    let heads = layer.heads();
    let head_dim = hidden / heads;
    let effective =
        f64::from(s.scores) / (f64::from(s.q) * f64::from(s.k) * (head_dim as f64).sqrt());
    let requant = Requantizer::from_scale(effective, 8).map_err(|e| e.to_string())?;
    let q = layer
        .query
        .forward_with_scratch(x, scratch)
        .map_err(|e| e.to_string())?;
    let k = layer
        .key
        .forward_with_scratch(x, scratch)
        .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let mut start = 0;
    for &seq in seq_lens {
        for h in 0..heads {
            let block = |m: &IntTensor<i8>| {
                let data: Vec<i8> = (start..start + seq)
                    .flat_map(|r| m.row(r)[h * head_dim..(h + 1) * head_dim].to_vec())
                    .collect();
                IntTensor::from_vec(data, &[seq, head_dim]).expect("block shape")
            };
            let acc = block(&q)
                .matmul_transposed_i32(&block(&k))
                .map_err(|e| e.to_string())?;
            let scores = acc
                .as_slice()
                .iter()
                .map(|&a| requant.apply(i64::from(a)))
                .collect();
            out.push((scores, seq));
        }
        start += seq;
    }
    Ok(out)
}

/// Embeds every example of `batch` (trimmed to its mask) and packs the
/// codes row-wise, as the engine does before the encoder.
fn embed_batch(
    model: &IntBertModel,
    batch: &EncodedBatch,
) -> Result<(IntTensor<i8>, Vec<usize>), String> {
    let mut packed = Vec::new();
    let mut seq_lens = Vec::new();
    for ex in batch.examples() {
        let len = ex.attention_mask.iter().take_while(|&&m| m == 1).count();
        let emb = model
            .embed(&ex.token_ids[..len], &ex.segment_ids[..len])
            .map_err(|e| format!("embed: {e}"))?;
        packed.extend_from_slice(emb.as_slice());
        seq_lens.push(len);
    }
    let rows = seq_lens.iter().sum();
    let packed =
        IntTensor::from_vec(packed, &[rows, model.config().hidden]).map_err(|e| e.to_string())?;
    Ok((packed, seq_lens))
}

/// The float classifier over each sequence's `[CLS]` row.
fn classify_rows(
    model: &IntBertModel,
    hidden: &IntTensor<i8>,
    seq_lens: &[usize],
) -> Result<Vec<Vec<f32>>, String> {
    let out_scale = model
        .layers
        .last()
        .map_or(model.embedding_out_scale(), IntEncoderLayer::output_scale);
    let width = model.config().hidden;
    let mut start = 0;
    let mut logits = Vec::new();
    for &seq in seq_lens {
        let cls: Vec<f32> = hidden
            .row(start)
            .iter()
            .map(|&c| f32::from(c) / out_scale)
            .collect();
        let row = Tensor::from_vec(cls, &[1, width])
            .and_then(|t| t.matmul(model.classifier_weight()))
            .and_then(|t| t.add_bias(model.classifier_bias()))
            .map_err(|e| e.to_string())?;
        logits.push(row.into_vec());
        start += seq;
    }
    Ok(logits)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Per-sequence MACs of one encoder layer, averaged over the batch's
/// sequence lengths: (Q·Kᵀ + Attn·V, the six projections). Counted from
/// shapes by the accelerator model's stage decomposition.
fn macs_per_sequence(
    seq_lens: &[usize],
    hidden: usize,
    intermediate: usize,
    heads: usize,
) -> (f64, f64) {
    let mut attention = 0u64;
    let mut proj = 0u64;
    for &seq_len in seq_lens {
        let shape = EncoderShape {
            seq_len,
            hidden,
            intermediate,
            heads,
        };
        for stage in encoder_layer_stages(&shape, 4) {
            match stage.kind {
                StageKind::MatmulAct8Act8 => attention += stage.macs,
                _ => proj += stage.macs,
            }
        }
    }
    let n = seq_lens.len().max(1) as f64;
    (attention as f64 / n, proj as f64 / n)
}

/// The Fig. 5 stage breakdown: measured CPU share of one layer beside the
/// share of compute cycles `Scheduler::schedule_layer` gives the same stages
/// (ZCU102, N=16, M=8) at the batch's mean sequence length.
fn stage_table(m: &Stages, shape: &EncoderShape, batch: usize) -> String {
    let trace = Scheduler::new(AcceleratorConfig::zcu102_n16_m8()).schedule_layer(shape);
    let total_cycles: u64 = trace.stages.iter().map(|s| s.compute_cycles).sum();
    let cycles = |names: &[&str]| -> f64 {
        let c: u64 = trace
            .stages
            .iter()
            .filter(|s| names.iter().any(|n| s.name == *n))
            .map(|s| s.compute_cycles)
            .sum();
        100.0 * c as f64 / total_cycles.max(1) as f64
    };
    let rows = [
        ("X·Wq/k/v", m.qkv, cycles(&["X·Wq", "X·Wk", "X·Wv"])),
        (
            "Q·Kᵀ+Attn·V",
            m.attention_self(),
            cycles(&["Q·Kᵀ", "Attn·V"]),
        ),
        ("Softmax", m.softmax, cycles(&["Softmax"])),
        ("O-proj", m.o, cycles(&["O-proj"])),
        ("Add&LN", m.layernorm, cycles(&["Add&LN", "Add&LN (FFN)"])),
        ("FFN1", m.ffn1, cycles(&["FFN1"])),
        ("GELU", m.gelu, 0.0),
        ("FFN2", m.ffn2, cycles(&["FFN2"])),
    ];
    let mut out = format!(
        "stage shares of one encoder layer (h{} i{} heads {}, mean seq {}, batch {batch}; layer {:.1} us)\n",
        shape.hidden, shape.intermediate, shape.heads, shape.seq_len, m.layer
    );
    out.push_str("  stage          cpu_us      cpu_share  cycle_share\n");
    for (name, us, cycle_share) in rows {
        out.push_str(&format!(
            "  {name:<14} {us:>10.1} {:>10.1}% {cycle_share:>10.1}%\n",
            100.0 * us / m.layer
        ));
    }
    out
}
