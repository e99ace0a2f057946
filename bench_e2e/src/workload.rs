//! The three workloads: their models, their traffic and their inputs.
//!
//! Model weights come from a seeded `BertModel::new` plus calibration over
//! a synthetic vocabulary; the model seed is fixed, so every run serves the
//! same artifacts and `setup_s` compares across seeds. Only the traffic
//! (texts, lengths, repeat draws) comes from `--seed`.

use crate::stats::{Rng, Zipf};
use fqbert_bert::{BertConfig, BertModel};
use fqbert_nlp::{TaskKind, Tokenizer, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{EncodedBatch, EngineBuilder};
use fqbert_serve::ModelSpec;
use std::path::Path;

/// Synthetic vocabulary size (plus the four special tokens).
const VOCAB_WORDS: usize = 2000;
/// Seed of every benchmark model's float weights.
const MODEL_SEED: u64 = 0x5EED_BE47;
/// Leading words of every unique text that spell its index in base
/// `VOCAB_WORDS`, so two texts of one run can never collide.
const INDEX_WORDS: usize = 3;

/// Where a workload's texts come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Texts {
    /// Every text is new: `min_words..=max_words` words, with lengths drawn
    /// as `min + (max - min) * u^skew` (skew 1 = uniform; larger = mostly
    /// short with a long tail).
    Unique {
        min_words: usize,
        max_words: usize,
        skew: f64,
    },
    /// Texts drawn Zipf(`exponent`)-skewed from a seeded pool of `pool`
    /// distinct texts of `min_words..=max_words` words.
    Pool {
        pool: usize,
        min_words: usize,
        max_words: usize,
        exponent: f64,
    },
}

/// One served model of a workload.
#[derive(Debug, Clone)]
pub struct ModelDef {
    pub name: &'static str,
    /// Float architecture of the model (shared by every quantized variant
    /// of one workload).
    pub config: BertConfig,
    pub quant: QuantConfig,
    pub bits: &'static str,
    /// Engine worker threads, set through the spec's `#threads=` suffix.
    pub threads: usize,
}

/// One workload: models, traffic, inputs and its latency limit. Traffic is
/// a closed loop: each of `connections` keeps `in_flight` requests
/// pipelined.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub models: Vec<ModelDef>,
    pub max_len: usize,
    pub connections: usize,
    pub in_flight: usize,
    pub texts: Texts,
    pub texts_per_request: usize,
    /// Latency limit of `slo_attainment`, in ms.
    pub slo_ms: f64,
    /// Texts of the correctness sample compared bit for bit against a
    /// direct `Engine::classify_batch` (the whole pool for pooled inputs).
    pub reference_sample: usize,
}

pub const NAMES: [&str; 3] = ["offline-base128", "interactive-mini", "hot-tiny"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let vocab = VOCAB_WORDS + 4;
        // Clip tuning changes weight values, not the work the engine does,
        // and takes seconds at BERT-base width; the fixtures skip it.
        let w4 = QuantConfig::fq_bert().with_clip(false);
        match name {
            // The paper's deployment shape: BERT-base width at s128, cut to
            // two encoder layers (every layer does the same work).
            "offline-base128" => {
                let mut config = BertConfig::bert_base();
                config.vocab_size = vocab;
                config.layers = 2;
                Some(Workload {
                    name: "offline-base128",
                    models: vec![ModelDef {
                        name: "base-w4",
                        config,
                        quant: w4,
                        bits: "w4/a8",
                        threads: 2,
                    }],
                    max_len: 128,
                    connections: 2,
                    in_flight: 1,
                    texts: Texts::Unique {
                        min_words: 126,
                        max_words: 126,
                        skew: 1.0,
                    },
                    texts_per_request: 4,
                    slo_ms: 1300.0,
                    reference_sample: 8,
                })
            }
            // One user, one sentence at a time: each request meets an idle
            // server, so its latency is the batching window, the engine
            // and the serving path, with no queueing behind other requests.
            "interactive-mini" => Some(Workload {
                name: "interactive-mini",
                models: vec![ModelDef {
                    name: "mini-w4",
                    config: BertConfig::mini(vocab, 64, 2),
                    quant: w4,
                    bits: "w4/a8",
                    threads: 1,
                }],
                max_len: 64,
                connections: 1,
                in_flight: 1,
                texts: Texts::Unique {
                    min_words: 6,
                    max_words: 62,
                    skew: 3.0,
                },
                texts_per_request: 1,
                slo_ms: 18.0,
                reference_sample: 48,
            }),
            // Serving layers dominate: a w4 and a w8 variant of one tiny
            // model, repeated inputs over a pool 4x the response cache.
            "hot-tiny" => {
                let config = BertConfig::tiny(vocab, 16, 2);
                Some(Workload {
                    name: "hot-tiny",
                    models: vec![
                        ModelDef {
                            name: "tiny-w4",
                            config: config.clone(),
                            quant: w4,
                            bits: "w4/a8",
                            threads: 1,
                        },
                        ModelDef {
                            name: "tiny-w8",
                            config,
                            quant: QuantConfig::w8a8().with_clip(false),
                            bits: "w8/a8",
                            threads: 1,
                        },
                    ],
                    max_len: 16,
                    connections: 2,
                    in_flight: 8,
                    texts: Texts::Pool {
                        pool: 4 * CACHE_CAPACITY,
                        min_words: 4,
                        max_words: 12,
                        exponent: 0.9,
                    },
                    texts_per_request: 1,
                    slo_ms: 20.0,
                    reference_sample: 4 * CACHE_CAPACITY,
                })
            }
            _ => None,
        }
    }

    /// Parameters recorded in the provenance line.
    pub fn params(&self) -> String {
        let traffic = format!(
            "closed loop, {} connection(s), {} request(s) in flight each",
            self.connections, self.in_flight
        );
        let texts = match self.texts {
            Texts::Unique {
                min_words,
                max_words,
                skew,
            } => format!("unique texts of {min_words}-{max_words} words (skew {skew})"),
            Texts::Pool {
                pool,
                min_words,
                max_words,
                exponent,
            } => format!(
                "Zipf({exponent}) over a pool of {pool} texts of {min_words}-{max_words} words"
            ),
        };
        format!(
            "{traffic}; {texts}; {} text(s)/request; max_len {}; slo {} ms",
            self.texts_per_request, self.max_len, self.slo_ms
        )
    }

    /// The workload's seeded text source.
    pub fn text_source(&self, seed: u64) -> TextSource {
        TextSource::new(self.texts, seed)
    }

    /// The synthetic tokenizer every model of the benchmark shares.
    pub fn tokenizer(&self) -> Tokenizer {
        Tokenizer::new(vocab(), self.max_len)
    }
}

/// Server response-cache capacity: the `fqbert-serve` default.
pub const CACHE_CAPACITY: usize = 128;

fn vocab() -> Vocab {
    Vocab::from_tokens((0..VOCAB_WORDS).map(word))
}

fn word(i: usize) -> String {
    format!("t{i}")
}

/// Generates the texts of one workload run.
#[derive(Debug, Clone)]
pub struct TextSource {
    kind: Texts,
    seed: u64,
    pool: Vec<String>,
    zipf: Option<Zipf>,
}

impl TextSource {
    fn new(kind: Texts, seed: u64) -> Self {
        let (pool, zipf) = match kind {
            Texts::Pool {
                pool,
                min_words,
                max_words,
                exponent,
            } => {
                let texts = (0..pool)
                    .map(|i| unique_text(seed, i as u64, min_words, max_words, 1.0))
                    .collect();
                (texts, Some(Zipf::new(pool, exponent)))
            }
            Texts::Unique { .. } => (Vec::new(), None),
        };
        Self {
            kind,
            seed,
            pool,
            zipf,
        }
    }

    /// Text number `index` of the run. Unique sources return a new text per
    /// index; pooled sources return a Zipf draw from the pool (the draw is
    /// a pure function of seed and index).
    pub fn text(&self, index: u64) -> String {
        match (self.kind, &self.zipf) {
            (
                Texts::Unique {
                    min_words,
                    max_words,
                    skew,
                },
                _,
            ) => unique_text(self.seed, index, min_words, max_words, skew),
            (_, Some(zipf)) => {
                let mut rng = Rng::new(self.seed, 0x9000_0000 + index);
                self.pool[zipf.sample(&mut rng)].clone()
            }
            (_, None) => unreachable!("pooled sources always carry a sampler"),
        }
    }

    /// The distinct texts of a pooled source (empty for unique sources).
    pub fn pool(&self) -> &[String] {
        &self.pool
    }
}

/// A text whose first words spell `index`, padded with seeded random
/// words to a seeded length.
fn unique_text(seed: u64, index: u64, min_words: usize, max_words: usize, skew: f64) -> String {
    let mut rng = Rng::new(seed, index);
    let span = (max_words - min_words) as f64;
    let words = min_words + (span * rng.unit().powf(skew)).round() as usize;
    let mut out: Vec<String> = Vec::with_capacity(words);
    let mut rest = index;
    for _ in 0..INDEX_WORDS {
        out.push(word((rest % VOCAB_WORDS as u64) as usize));
        rest /= VOCAB_WORDS as u64;
    }
    while out.len() < words {
        out.push(word(rng.below(0, VOCAB_WORDS)));
    }
    out.join(" ")
}

/// Writes every model of `workload` as a `.fqbt` artifact under `dir` and
/// returns the registry specs. Variants of one workload share one float
/// model, so the registry's dedup sees what a real w4/w8 pair shares.
pub fn build_fixtures(workload: &Workload, dir: &Path) -> Result<Vec<ModelSpec>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tokenizer = workload.tokenizer();
    // Short calibration texts: the float autograd path is slow at BERT-base
    // width, and the scales only need to be plausible, not tuned.
    let calibration: Vec<String> = (0..4)
        .map(|i| unique_text(MODEL_SEED, i, 12, 20, 1.0))
        .collect();
    let refs: Vec<&str> = calibration.iter().map(String::as_str).collect();
    let examples = EncodedBatch::from_texts(&tokenizer, &refs)
        .examples()
        .to_vec();
    let mut specs = Vec::new();
    let mut float_model: Option<BertModel> = None;
    for def in &workload.models {
        let model =
            float_model.get_or_insert_with(|| BertModel::new(def.config.clone(), MODEL_SEED));
        let engine = EngineBuilder::new(TaskKind::Sst2)
            .tokenizer(tokenizer.clone())
            .quant(def.quant)
            .threads(1)
            .calibrate_with(&examples[..2])
            .build(model)
            .map_err(|e| format!("build {}: {e}", def.name))?;
        let path = dir.join(format!("{}.fqbt", def.name));
        engine
            .save(&path)
            .map_err(|e| format!("save {}: {e}", path.display()))?;
        let spec = format!(
            "{}=int:{}#threads={}",
            def.name,
            path.display(),
            def.threads
        );
        specs.push(spec.parse().map_err(|e| format!("spec {spec}: {e}"))?);
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texts_are_seeded_unique_and_in_range() {
        let w = Workload::by_name("interactive-mini").unwrap();
        let a = w.text_source(5);
        let b = w.text_source(5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let t = a.text(i);
            assert_eq!(t, b.text(i));
            let n = t.split_whitespace().count();
            assert!((6..=62).contains(&n), "{n}");
            assert!(seen.insert(t));
        }
        assert_ne!(a.text(0), w.text_source(6).text(0));
    }

    #[test]
    fn base_texts_fill_128_tokens() {
        let w = Workload::by_name("offline-base128").unwrap();
        let t = w.text_source(1).text(3);
        let enc = w.tokenizer().encode_single(&t);
        assert_eq!(enc.attention_mask.iter().filter(|&&m| m == 1).count(), 128);
    }

    #[test]
    fn pooled_texts_repeat() {
        let w = Workload::by_name("hot-tiny").unwrap();
        let src = w.text_source(2);
        assert_eq!(src.pool().len(), 4 * CACHE_CAPACITY);
        let draws: std::collections::HashSet<String> = (0..2000).map(|i| src.text(i)).collect();
        assert!(draws.len() < 2000 && draws.iter().all(|t| src.pool().contains(t)));
    }
}
