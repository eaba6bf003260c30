//! API-aware test-case generation and mutation.
//!
//! The generator "constructs a test input by selecting and mutating API
//! specification sequences, scoring call adjacency by resource
//! dependencies and recent coverage" (§4.5). Resource-consuming
//! parameters are satisfied by inserting producer calls first and
//! referencing their results, which is what lets generated inputs pass
//! API preconditions and reach deep handlers (§5.4.2).
//!
//! The same type also implements the baselines' random-byte mode:
//! shape-blind values thrown at the same entry points, which the target
//! mostly rejects at the API boundary.

use crate::cmplog::{CmpJournal, MutOp};
use crate::config::GenerationMode;
use eof_speclang::ast::{SpecFile, TypeDesc};
use eof_speclang::prog::{ArgValue, Call, Prog};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Dictionary payloads for buffer parameters: well-formed and slightly
/// broken JSON and HTTP fragments, so byte-level modules see structure.
const BUFFER_DICTIONARY: &[&[u8]] = &[
    br#"{"a":1}"#,
    br#"{"k":[true,null,1.5e3]}"#,
    br#"[[[[1]]]]"#,
    br#"{"deep":{"deep":{"deep":{"x":[]}}}}"#,
    br#"{"s":"A\n"}"#,
    br#"{"broken": }"#,
    br#"[1,2,"#,
    b"GET / HTTP/1.1\r\nHost: dev\r\n\r\n",
    b"GET /status HTTP/1.1\r\n\r\n",
    b"POST /api/sensors?id=3 HTTP/1.0\r\nContent-Length: 4\r\n\r\n",
    b"PUT /api/config HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
    b"DELETE /api/config HTTP/1.1\r\nX: y\r\n\r\n",
    b"HEAD /index.html HTTP/1.0\r\n\r\n",
    b"BREW /pot HTCPCP/1.0\r\n\r\n",
    b"GET noslash HTTP/1.1\r\n\r\n",
];

/// Name-ish strings for cstring parameters.
const NAME_DICTIONARY: &[&str] = &[
    "main", "tsk0", "worker", "uart1", "sem0", "evt", "mp0", "q", "a", "idle", "net_rx", "log",
    "t1", "t2", "cfg",
];

/// Status-register bytes the driver layer actually branches on (busy,
/// NACK, half-complete, error latch…). The MMIO plane biases toward
/// these so generated streams hit the drivers' status decodes instead of
/// wandering uniform byte space.
const MMIO_DICTIONARY: &[u8] = &[0x00, 0x01, 0x04, 0x08, 0x40, 0x80, 0xff];

/// Cap on a generated peripheral response stream. Replay answers
/// repeated reads from memory, so a short stream goes a long way.
const MMIO_MAX_LEN: usize = 48;

/// The test-case generator for one target's specification.
pub struct Generator {
    /// Shared, so a generation step can hold an API's signature while
    /// it draws values through `&mut self`: the step clones the `Arc`,
    /// never the spec.
    spec: Arc<SpecFile>,
    rng: StdRng,
    mode: GenerationMode,
    max_calls: usize,
    /// Fill and mutate the peripheral response stream (`Prog::mmio`)
    /// as a second input plane. The stream draws from its own RNG
    /// (`mmio_rng`), so a pure campaign and a driver campaign with the
    /// same seed generate identical call planes throughout.
    mmio: bool,
    mmio_rng: StdRng,
    /// Adjacency score: `(prev_api_idx, next_api_idx) → weight`.
    adjacency: HashMap<(usize, usize), f64>,
    api_index: HashMap<String, usize>,
}

impl Generator {
    /// Build a generator over a validated specification.
    pub fn new(spec: SpecFile, seed: u64, mode: GenerationMode, max_calls: usize) -> Self {
        let api_index = spec
            .apis
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        Generator {
            spec: Arc::new(spec),
            rng: StdRng::seed_from_u64(seed),
            mode,
            max_calls: max_calls.max(1),
            mmio: false,
            mmio_rng: StdRng::seed_from_u64(seed ^ 0x4d4d_494f),
            adjacency: HashMap::new(),
            api_index,
        }
    }

    /// Enable the MMIO input plane (the driver-fuzzing workload).
    pub fn with_mmio(mut self, mmio: bool) -> Self {
        self.mmio = mmio;
        self
    }

    /// The specification in use.
    pub fn spec(&self) -> &SpecFile {
        &self.spec
    }

    /// Generate a fresh prog.
    pub fn generate(&mut self) -> Prog {
        let mut prog = match self.mode {
            GenerationMode::ApiAware => self.generate_api_aware(),
            GenerationMode::RandomBytes => self.generate_random_bytes(),
        };
        if self.mmio && !prog.is_empty() {
            prog.mmio = self.gen_mmio_stream();
        }
        prog
    }

    /// Draw a fresh peripheral response stream: dictionary-biased status
    /// bytes with raw filler.
    fn gen_mmio_stream(&mut self) -> Vec<u8> {
        let len = self.mmio_rng.random_range(0..=MMIO_MAX_LEN);
        (0..len)
            .map(|_| {
                if self.mmio_rng.random_bool(0.6) {
                    MMIO_DICTIONARY[self.mmio_rng.random_range(0..MMIO_DICTIONARY.len())]
                } else {
                    self.mmio_rng.random()
                }
            })
            .collect()
    }

    /// Mutate the peripheral response stream in place.
    fn mutate_mmio(&mut self, mmio: &mut Vec<u8>) {
        match self.mmio_rng.random_range(0..5u32) {
            // Overwrite one byte (dictionary-biased).
            0 | 1 if !mmio.is_empty() => {
                let i = self.mmio_rng.random_range(0..mmio.len());
                mmio[i] = if self.mmio_rng.random_bool(0.6) {
                    MMIO_DICTIONARY[self.mmio_rng.random_range(0..MMIO_DICTIONARY.len())]
                } else {
                    self.mmio_rng.random()
                };
            }
            // Append a byte.
            2 => {
                if mmio.len() < MMIO_MAX_LEN {
                    mmio.push(
                        MMIO_DICTIONARY[self.mmio_rng.random_range(0..MMIO_DICTIONARY.len())],
                    );
                }
            }
            // Truncate.
            3 if !mmio.is_empty() => {
                let keep = self.mmio_rng.random_range(0..mmio.len());
                mmio.truncate(keep);
            }
            // Regenerate wholesale.
            _ => *mmio = self.gen_mmio_stream(),
        }
    }

    fn generate_api_aware(&mut self) -> Prog {
        let mut calls: Vec<Call> = Vec::new();
        if self.spec.apis.is_empty() {
            return Prog::new();
        }
        let want = self.rng.random_range(1..=self.max_calls);
        let mut last: Option<usize> = None;
        let mut guard = 0;
        while calls.len() < want && guard < want * 4 {
            guard += 1;
            let idx = self.pick_api(last);
            self.push_call(idx, &mut calls, 0);
            last = Some(idx);
        }
        Prog {
            mmio: vec![],
            calls,
        }
    }

    fn generate_random_bytes(&mut self) -> Prog {
        // AFL-style: one or two calls with shape-blind values.
        let mut calls = Vec::new();
        if self.spec.apis.is_empty() {
            return Prog::new();
        }
        for _ in 0..self.rng.random_range(1..=2usize) {
            let idx = self.rng.random_range(0..self.spec.apis.len());
            let spec = Arc::clone(&self.spec);
            let api = &spec.apis[idx];
            let args = api
                .params
                .iter()
                .map(|p| match &p.ty {
                    TypeDesc::Buffer { max_len } | TypeDesc::CString { max_len } => {
                        let len = self.rng.random_range(0..=(*max_len).min(96) as usize);
                        let bytes: Vec<u8> = (0..len).map(|_| self.rng.random()).collect();
                        if matches!(p.ty, TypeDesc::CString { .. }) {
                            ArgValue::CString(String::from_utf8_lossy(&bytes).replace('\u{0}', "x"))
                        } else {
                            ArgValue::Buffer(bytes)
                        }
                    }
                    TypeDesc::Ptr(inner) => match inner.as_ref() {
                        TypeDesc::CString { max_len } => {
                            let len = self.rng.random_range(0..=(*max_len).min(32) as usize);
                            ArgValue::CString(
                                (0..len)
                                    .map(|_| (b'a' + self.rng.random_range(0..26u8)) as char)
                                    .collect(),
                            )
                        }
                        _ => {
                            let len = self.rng.random_range(0..64usize);
                            ArgValue::Buffer((0..len).map(|_| self.rng.random()).collect())
                        }
                    },
                    // Constraint-blind scalar: any bits whatsoever.
                    _ => ArgValue::Int(self.rng.random()),
                })
                .collect();
            calls.push(Call {
                api: api.name.clone(),
                args,
            });
        }
        Prog {
            mmio: vec![],
            calls,
        }
    }

    /// Pick the next API, weighted by learned adjacency.
    fn pick_api(&mut self, last: Option<usize>) -> usize {
        let n = self.spec.apis.len();
        let Some(prev) = last else {
            return self.rng.random_range(0..n);
        };
        // Weighted sample: base 1.0 per API plus adjacency bonus.
        let weights: Vec<f64> = (0..n)
            .map(|i| 1.0 + self.adjacency.get(&(prev, i)).copied().unwrap_or(0.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut roll = self.rng.random_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if roll < *w {
                return i;
            }
            roll -= w;
        }
        n - 1
    }

    /// Append a call to `calls`, inserting producers for unsatisfied
    /// resource parameters first (depth-limited).
    fn push_call(&mut self, idx: usize, calls: &mut Vec<Call>, depth: usize) {
        if calls.len() >= self.max_calls * 2 || depth > 3 {
            return;
        }
        let spec = Arc::clone(&self.spec);
        let api = &spec.apis[idx];
        let mut args = Vec::with_capacity(api.params.len());
        for p in &api.params {
            args.push(self.gen_value(&p.ty, calls, depth));
        }
        calls.push(Call {
            api: api.name.clone(),
            args,
        });
    }

    /// Generate a value for one parameter type.
    fn gen_value(&mut self, ty: &TypeDesc, calls: &mut Vec<Call>, depth: usize) -> ArgValue {
        match ty {
            TypeDesc::Int { bits, range } => ArgValue::Int(self.gen_int(*bits, *range)),
            TypeDesc::Flags { set } => {
                let values: Vec<u64> = self
                    .spec
                    .flags
                    .get(set)
                    .map(|f| f.numeric())
                    .unwrap_or_default();
                if values.is_empty() {
                    return ArgValue::Int(self.rng.random_range(0..16u64));
                }
                let a = values[self.rng.random_range(0..values.len())];
                if values.len() > 1 && self.rng.random_bool(0.2) {
                    let b = values[self.rng.random_range(0..values.len())];
                    ArgValue::Int(a | b)
                } else {
                    ArgValue::Int(a)
                }
            }
            TypeDesc::Ptr(inner) => self.gen_value(inner, calls, depth),
            TypeDesc::Buffer { max_len } => {
                if self.rng.random_bool(0.6) {
                    let tok = BUFFER_DICTIONARY[self.rng.random_range(0..BUFFER_DICTIONARY.len())];
                    let mut bytes = tok[..tok.len().min(*max_len as usize)].to_vec();
                    // Light corruption keeps the space open.
                    if !bytes.is_empty() && self.rng.random_bool(0.25) {
                        let i = self.rng.random_range(0..bytes.len());
                        bytes[i] = self.rng.random();
                    }
                    ArgValue::Buffer(bytes)
                } else {
                    let len = self.rng.random_range(0..=(*max_len).min(128) as usize);
                    ArgValue::Buffer((0..len).map(|_| self.rng.random()).collect())
                }
            }
            TypeDesc::CString { max_len } => {
                let s = if self.rng.random_bool(0.7) {
                    NAME_DICTIONARY[self.rng.random_range(0..NAME_DICTIONARY.len())].to_string()
                } else {
                    let len = self.rng.random_range(0..=(*max_len).min(48) as usize);
                    (0..len)
                        .map(|_| (b'a' + self.rng.random_range(0..26u8)) as char)
                        .collect()
                };
                let mut s = s;
                s.truncate(*max_len as usize);
                ArgValue::CString(s)
            }
            TypeDesc::Resource { name } => {
                // Reference the most recent producer if one exists.
                let producer_pos = calls.iter().rposition(|c| {
                    self.spec
                        .api(&c.api)
                        .and_then(|a| a.returns.as_deref())
                        .is_some_and(|r| r == name)
                });
                if let Some(pos) = producer_pos {
                    if self.rng.random_bool(0.9) {
                        return ArgValue::ResourceRef(pos as u16);
                    }
                }
                // No producer yet: try to insert one.
                let producers: Vec<usize> = self
                    .spec
                    .producers_of(name)
                    .iter()
                    .filter_map(|a| self.api_index.get(&a.name).copied())
                    .collect();
                if !producers.is_empty() && depth < 3 && calls.len() < self.max_calls * 2 {
                    let pidx = producers[self.rng.random_range(0..producers.len())];
                    self.push_call(pidx, calls, depth + 1);
                    // The producer is now the last call, if insertion
                    // succeeded and it really produces the resource.
                    if let Some(last) = calls.last() {
                        let produces = self
                            .spec
                            .api(&last.api)
                            .and_then(|a| a.returns.as_deref())
                            .is_some_and(|r| r == name);
                        if produces {
                            return ArgValue::ResourceRef(calls.len() as u16 - 1);
                        }
                    }
                }
                // Fall back to a declared sentinel.
                let sentinel = self
                    .spec
                    .resources
                    .get(name)
                    .and_then(|r| r.sentinels.first().copied())
                    .unwrap_or(u64::MAX);
                ArgValue::Int(sentinel)
            }
        }
    }

    fn gen_int(&mut self, bits: u8, range: Option<(u64, u64)>) -> u64 {
        let (min, max) = range.unwrap_or((
            0,
            match bits {
                8 => u8::MAX as u64,
                16 => u16::MAX as u64,
                32 => u32::MAX as u64,
                _ => u64::MAX,
            },
        ));
        let (lo, hi) = if min <= max { (min, max) } else { (max, min) };
        match self.rng.random_range(0..10u32) {
            0 => lo,
            1 => hi,
            2 => lo.saturating_add(1).min(hi),
            3 => hi.saturating_sub(1).max(lo),
            4 => (lo + (hi - lo) / 2).min(hi),
            // Bias toward small values, where most semantics live.
            5 | 6 => lo + self.rng.random_range(0..=(hi - lo).min(16)),
            _ => {
                if hi == lo {
                    lo
                } else {
                    lo + self.rng.random_range(0..=(hi - lo))
                }
            }
        }
    }

    /// Mutate an existing prog into a new variant. Random-byte fuzzers
    /// have no structured mutation — they draw fresh buffers.
    pub fn mutate(&mut self, base: &Prog) -> Prog {
        if self.mode == GenerationMode::RandomBytes {
            return self.generate();
        }
        let mut prog = base.clone();
        if prog.calls.is_empty() {
            return self.generate();
        }
        let mut prog = match self.rng.random_range(0..10u32) {
            // Regenerate one argument value.
            0..=4 => {
                let ci = self.rng.random_range(0..prog.calls.len());
                let spec = Arc::clone(&self.spec);
                if let Some(api) = spec.api(&prog.calls[ci].api) {
                    if !api.params.is_empty() && !prog.calls[ci].args.is_empty() {
                        let ai = self
                            .rng
                            .random_range(0..prog.calls[ci].args.len().min(api.params.len()));
                        // Resource refs are kept stable; values regenerate.
                        if !matches!(prog.calls[ci].args[ai], ArgValue::ResourceRef(_)) {
                            let mut scratch = prog.calls[..ci].to_vec();
                            let v = self.gen_value(&api.params[ai].ty, &mut scratch, 3);
                            if scratch.len() == ci {
                                prog.calls[ci].args[ai] = v;
                            }
                        }
                    }
                }
                prog
            }
            // Append a call (with producers as needed).
            5 => {
                if prog.calls.len() < self.max_calls * 2 {
                    let idx = self.rng.random_range(0..self.spec.apis.len().max(1));
                    let Prog { mmio, mut calls } = prog;
                    self.push_call(idx, &mut calls, 0);
                    prog = Prog { mmio, calls };
                }
                prog
            }
            // Insert a call at a random position — the mutation that
            // extends dependency chains *inside* a sequence (another
            // wait before the destroy, another detach before the walk).
            6 => {
                if prog.calls.len() < self.max_calls * 2 {
                    let pos = self.rng.random_range(0..=prog.calls.len());
                    let idx = self.rng.random_range(0..self.spec.apis.len().max(1));
                    let spec = Arc::clone(&self.spec);
                    let api = &spec.apis[idx];
                    // Generate arguments against the prefix only, so the
                    // new call's references stay backward.
                    let mut prefix = prog.calls[..pos].to_vec();
                    let before = prefix.len();
                    let mut args = Vec::with_capacity(api.params.len());
                    for p in &api.params {
                        args.push(self.gen_value(&p.ty, &mut prefix, 3));
                    }
                    // Only a clean in-place generation is inserted;
                    // producer insertion inside a prefix would reorder.
                    if prefix.len() == before {
                        prog.insert_call(
                            pos,
                            Call {
                                api: api.name.clone(),
                                args,
                            },
                        );
                    }
                }
                prog
            }
            // Remove a call (fixing references).
            7 => {
                let ci = self.rng.random_range(0..prog.calls.len());
                prog.remove_call(ci);
                if prog.is_empty() {
                    return self.generate();
                }
                prog
            }
            // Duplicate a call at the end (references stay backward).
            8 => {
                let ci = self.rng.random_range(0..prog.calls.len());
                let dup = prog.calls[ci].clone();
                if prog.calls.len() < self.max_calls * 2 {
                    prog.calls.push(dup);
                }
                prog
            }
            // Tweak an integer in place (bit flip / off-by-one), choosing
            // uniformly among the call's integer arguments so every
            // scalar is reachable by the climb.
            _ => {
                let ci = self.rng.random_range(0..prog.calls.len());
                let int_idxs: Vec<usize> = prog.calls[ci]
                    .args
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| matches!(a, ArgValue::Int(_)))
                    .map(|(i, _)| i)
                    .collect();
                if !int_idxs.is_empty() {
                    let ai = int_idxs[self.rng.random_range(0..int_idxs.len())];
                    if let ArgValue::Int(v) = &mut prog.calls[ci].args[ai] {
                        *v = match self.rng.random_range(0..3u32) {
                            0 => v.wrapping_add(1),
                            1 => v.wrapping_sub(1),
                            _ => *v ^ (1 << self.rng.random_range(0..32u32)),
                        };
                    }
                }
                prog
            }
        };
        // The MMIO plane mutates independently of the call plane — half
        // the mutants keep the stream that got the seed admitted, half
        // explore around it.
        if self.mmio && self.mmio_rng.random_bool(0.5) {
            self.mutate_mmio(&mut prog.mmio);
        }
        prog
    }

    /// Mutate under a scheduled cmplog operator. `Baseline` is exactly
    /// [`Generator::mutate`] — byte-for-byte the pre-cmplog operator,
    /// same RNG draws — and the I2S operators splice journal operands
    /// into the input. Operators that find nothing to splice fall back
    /// to the baseline mutation, so a scheduled pick is never a no-op.
    pub fn mutate_op(&mut self, base: &Prog, op: MutOp, journal: &CmpJournal) -> Prog {
        match op {
            MutOp::Baseline => self.mutate(base),
            MutOp::I2sInt => self.splice_int(base, journal),
            MutOp::I2sMmio => self.splice_mmio(base, journal),
        }
    }

    /// Input-to-state splice into the call plane: pick an observed
    /// comparison pair, find an integer argument currently holding the
    /// input-derived side (`lhs`), and replace it with the constant the
    /// kernel compared it against (`rhs`), clamped to the parameter's
    /// declared range. With no lhs match the constant lands in a random
    /// integer argument — the colorization-free fallback.
    fn splice_int(&mut self, base: &Prog, journal: &CmpJournal) -> Prog {
        if journal.is_empty() || base.calls.is_empty() {
            return self.mutate(base);
        }
        let (width, lhs, rhs) = journal.get(self.rng.random_range(0..journal.len()));
        let mask = width_mask(width);
        let mut slots: Vec<(usize, usize)> = Vec::new();
        let mut lhs_slots: Vec<(usize, usize)> = Vec::new();
        for (ci, call) in base.calls.iter().enumerate() {
            let Some(api) = self.spec.api(&call.api) else {
                continue;
            };
            for (ai, arg) in call.args.iter().enumerate().take(api.params.len()) {
                let (ArgValue::Int(v), TypeDesc::Int { .. }) = (arg, &api.params[ai].ty) else {
                    continue;
                };
                slots.push((ci, ai));
                if v & mask == lhs & mask {
                    lhs_slots.push((ci, ai));
                }
            }
        }
        let pool = if lhs_slots.is_empty() {
            &slots
        } else {
            &lhs_slots
        };
        if pool.is_empty() {
            return self.mutate(base);
        }
        let (ci, ai) = pool[self.rng.random_range(0..pool.len())];
        let mut prog = base.clone();
        let ty = self
            .spec
            .api(&prog.calls[ci].api)
            .map(|a| a.params[ai].ty.clone());
        if let Some(TypeDesc::Int { bits, range }) = ty {
            prog.calls[ci].args[ai] = ArgValue::Int(clamp_int(rhs & mask, bits, range));
        }
        prog
    }

    /// Input-to-state splice into the MMIO response stream: replace an
    /// occurrence of the observed lhs bytes (the value the driver
    /// actually consumed from the stream) with the constant — which
    /// plants the magic exactly at a position the kernel reads. Without
    /// an occurrence the bytes land at a random offset.
    fn splice_mmio(&mut self, base: &Prog, journal: &CmpJournal) -> Prog {
        if !self.mmio || journal.is_empty() {
            return self.mutate(base);
        }
        let mut prog = base.clone();
        // Positional candidates: every journal pair whose observed
        // (input-derived) side occurs verbatim in this prog's stream,
        // at every position it occurs. Splicing one plants the
        // compared-against constant at a byte offset the kernel
        // actually consumed — the I2S step proper. Wider operands are
        // rarer and more specific, so a match set is scanned whole
        // rather than sampled pair-first: a 16-bit vendor word with one
        // match must not be drowned out by an 8-bit pair that never had
        // a chance.
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for i in 0..journal.len() {
            let (width, lhs, _) = journal.get(i);
            let n = ((width / 8).max(1) as usize).min(8);
            if prog.mmio.len() < n {
                continue;
            }
            let lhs_bytes = lhs.to_le_bytes();
            for pos in 0..=prog.mmio.len() - n {
                if prog.mmio[pos..pos + n] == lhs_bytes[..n] {
                    candidates.push((i, pos));
                }
            }
        }
        if !candidates.is_empty() {
            let (i, pos) = candidates[self.mmio_rng.random_range(0..candidates.len())];
            let (width, _, rhs) = journal.get(i);
            let n = ((width / 8).max(1) as usize).min(8);
            prog.mmio[pos..pos + n].copy_from_slice(&rhs.to_le_bytes()[..n]);
            return prog;
        }
        // No positional match anywhere: plant a constant blind.
        let (width, _, rhs) = journal.get(self.mmio_rng.random_range(0..journal.len()));
        let n = ((width / 8).max(1) as usize).min(8);
        let rhs_bytes = rhs.to_le_bytes();
        if prog.mmio.len() >= n {
            let pos = self.mmio_rng.random_range(0..=prog.mmio.len() - n);
            prog.mmio[pos..pos + n].copy_from_slice(&rhs_bytes[..n]);
        } else if prog.mmio.len() + n <= MMIO_MAX_LEN {
            prog.mmio.extend_from_slice(&rhs_bytes[..n]);
        } else {
            return self.mutate(base);
        }
        prog
    }

    /// Reward the adjacencies of a prog that produced new coverage.
    pub fn reward(&mut self, prog: &Prog, strength: f64) {
        for pair in prog.calls.windows(2) {
            let (Some(&a), Some(&b)) = (
                self.api_index.get(&pair[0].api),
                self.api_index.get(&pair[1].api),
            ) else {
                continue;
            };
            let w = self.adjacency.entry((a, b)).or_insert(0.0);
            // Cap the bias: adjacency should tilt selection, not tunnel
            // the generator into one cluster of the API graph.
            *w = (*w + strength).min(2.0);
        }
    }
}

/// All-ones mask for an operand width in bits.
fn width_mask(width: u32) -> u64 {
    match width {
        8 => 0xff,
        16 => 0xffff,
        32 => 0xffff_ffff,
        _ => u64::MAX,
    }
}

/// Clamp a spliced constant into a parameter's declared domain.
fn clamp_int(v: u64, bits: u8, range: Option<(u64, u64)>) -> u64 {
    let ceiling = match bits {
        8 => u8::MAX as u64,
        16 => u16::MAX as u64,
        32 => u32::MAX as u64,
        _ => u64::MAX,
    };
    let (min, max) = range.unwrap_or((0, ceiling));
    let (lo, hi) = if min <= max { (min, max) } else { (max, min) };
    v.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_rtos::OsKind;
    use eof_specgen::extract_spec_text;
    use eof_speclang::parser::parse_spec;

    fn generator(os: OsKind, mode: GenerationMode) -> Generator {
        let spec = parse_spec(&extract_spec_text(os)).unwrap();
        Generator::new(spec, 42, mode, 6)
    }

    #[test]
    fn api_aware_progs_conform_to_spec() {
        let mut g = generator(OsKind::RtThread, GenerationMode::ApiAware);
        for _ in 0..200 {
            let p = g.generate();
            assert!(!p.is_empty());
            assert!(p.conforms_to(g.spec()), "nonconforming: {p}");
        }
    }

    #[test]
    fn api_aware_satisfies_resource_dependencies() {
        let mut g = generator(OsKind::FreeRtos, GenerationMode::ApiAware);
        let mut refs = 0;
        for _ in 0..300 {
            let p = g.generate();
            for (i, call) in p.calls.iter().enumerate() {
                for arg in &call.args {
                    if let ArgValue::ResourceRef(r) = arg {
                        assert!((*r as usize) < i, "forward ref in {p}");
                        refs += 1;
                    }
                }
            }
        }
        assert!(refs > 50, "generator almost never uses resources: {refs}");
    }

    #[test]
    fn int_values_respect_ranges() {
        let spec = parse_spec("f(x int32[10:20])").unwrap();
        let mut g = Generator::new(spec, 7, GenerationMode::ApiAware, 4);
        for _ in 0..100 {
            let p = g.generate();
            for c in &p.calls {
                if let ArgValue::Int(v) = &c.args[0] {
                    assert!((10..=20).contains(v), "{v}");
                }
            }
        }
    }

    #[test]
    fn random_bytes_mode_ignores_constraints() {
        let spec = parse_spec("f(x int32[10:20])").unwrap();
        let mut g = Generator::new(spec, 7, GenerationMode::RandomBytes, 4);
        let mut out_of_range = 0;
        for _ in 0..100 {
            let p = g.generate();
            for c in &p.calls {
                if let Some(ArgValue::Int(v)) = c.args.first() {
                    if !(10..=20).contains(v) {
                        out_of_range += 1;
                    }
                }
            }
        }
        assert!(out_of_range > 80, "random mode should violate constraints");
    }

    #[test]
    fn mutation_preserves_conformance() {
        let mut g = generator(OsKind::NuttX, GenerationMode::ApiAware);
        let mut p = g.generate();
        for _ in 0..300 {
            p = g.mutate(&p);
            assert!(p.conforms_to(g.spec()), "nonconforming after mutation: {p}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let spec = parse_spec(&extract_spec_text(OsKind::Zephyr)).unwrap();
        let mut a = Generator::new(spec.clone(), 9, GenerationMode::ApiAware, 6);
        let mut b = Generator::new(spec, 9, GenerationMode::ApiAware, 6);
        for _ in 0..50 {
            assert_eq!(a.generate(), b.generate());
        }
    }

    #[test]
    fn adjacency_reward_biases_selection() {
        let spec = parse_spec("a()\nb()\nc()").unwrap();
        let mut g = Generator::new(spec, 3, GenerationMode::ApiAware, 2);
        // Heavily reward a→b.
        let pattern = Prog {
            mmio: vec![],
            calls: vec![
                Call {
                    api: "a".into(),
                    args: vec![],
                },
                Call {
                    api: "b".into(),
                    args: vec![],
                },
            ],
        };
        for _ in 0..10 {
            g.reward(&pattern, 1.0);
        }
        // After "a", "b" should be picked much more often than "c".
        let mut b_count = 0;
        let mut c_count = 0;
        let a_idx = 0;
        for _ in 0..600 {
            match g.pick_api(Some(a_idx)) {
                1 => b_count += 1,
                2 => c_count += 1,
                _ => {}
            }
        }
        assert!(
            b_count > c_count * 2,
            "adjacency not biasing: b={b_count} c={c_count}"
        );
    }

    #[test]
    fn mmio_plane_rides_behind_the_call_plane() {
        // Same seed, mmio off vs on: the call sequences are identical —
        // the stream is drawn after call construction — and the on-side
        // eventually produces nonempty streams.
        let spec = parse_spec(&extract_spec_text(OsKind::FreeRtos)).unwrap();
        let mut plain = Generator::new(spec.clone(), 21, GenerationMode::ApiAware, 6);
        let mut drv = Generator::new(spec, 21, GenerationMode::ApiAware, 6).with_mmio(true);
        let mut nonempty = 0;
        for _ in 0..50 {
            let a = plain.generate();
            let b = drv.generate();
            assert_eq!(a.calls, b.calls);
            assert!(a.mmio.is_empty());
            if !b.mmio.is_empty() {
                nonempty += 1;
            }
            assert!(b.mmio.len() <= MMIO_MAX_LEN);
        }
        assert!(nonempty > 20, "mmio plane almost never fills: {nonempty}");
    }

    #[test]
    fn mmio_mutation_explores_and_preserves() {
        let spec = parse_spec(&extract_spec_text(OsKind::RtThread)).unwrap();
        let mut g = Generator::new(spec, 5, GenerationMode::ApiAware, 6).with_mmio(true);
        let base = g.generate();
        let mut changed = 0;
        let mut kept = 0;
        let mut p = base.clone();
        for _ in 0..200 {
            let next = g.mutate(&p);
            assert!(next.mmio.len() <= MMIO_MAX_LEN);
            if next.mmio == p.mmio {
                kept += 1;
            } else {
                changed += 1;
            }
            p = next;
            if p.is_empty() {
                p = g.generate();
            }
        }
        assert!(changed > 20, "stream never mutates: {changed}");
        assert!(kept > 20, "stream never survives a mutant: {kept}");
    }

    #[test]
    fn empty_spec_yields_empty_prog() {
        let mut g = Generator::new(SpecFile::default(), 1, GenerationMode::ApiAware, 4);
        assert!(g.generate().is_empty());
    }

    fn journal_with(pairs: &[(u32, u64, u64)]) -> CmpJournal {
        let mut j = CmpJournal::new();
        let records: Vec<eof_coverage::CmpRecord> = pairs
            .iter()
            .map(|&(width, lhs, rhs)| eof_coverage::CmpRecord {
                site: 0,
                width,
                lhs,
                rhs,
            })
            .collect();
        j.absorb(&records);
        j
    }

    #[test]
    fn baseline_op_is_byte_identical_to_plain_mutate() {
        let spec = parse_spec(&extract_spec_text(OsKind::FreeRtos)).unwrap();
        let mut plain = Generator::new(spec.clone(), 17, GenerationMode::ApiAware, 6);
        let mut scheduled = Generator::new(spec, 17, GenerationMode::ApiAware, 6);
        let journal = journal_with(&[(32, 1, 0xD3AD_BEA7)]);
        let mut a = plain.generate();
        let mut b = scheduled.generate();
        assert_eq!(a, b);
        for _ in 0..100 {
            a = plain.mutate(&a);
            b = scheduled.mutate_op(&b, MutOp::Baseline, &journal);
            assert_eq!(a, b, "Baseline diverged from mutate()");
        }
    }

    #[test]
    fn i2s_int_splice_plants_the_constant_within_range() {
        let spec = parse_spec("f(x int32[0:4294967295])").unwrap();
        let mut g = Generator::new(spec, 11, GenerationMode::ApiAware, 2);
        let journal = journal_with(&[(32, 7, 0xD3AD_BEA7)]);
        let base = g.generate();
        let mut hit = false;
        for _ in 0..50 {
            let m = g.mutate_op(&base, MutOp::I2sInt, &journal);
            assert!(m.conforms_to(g.spec()), "nonconforming splice: {m}");
            if m.calls
                .iter()
                .any(|c| c.args.first() == Some(&ArgValue::Int(0xD3AD_BEA7)))
            {
                hit = true;
            }
        }
        assert!(hit, "splice never planted the constant");
        // A range that excludes the magic clamps instead of violating.
        let spec = parse_spec("f(x int32[10:20])").unwrap();
        let mut g = Generator::new(spec, 11, GenerationMode::ApiAware, 2);
        let base = g.generate();
        for _ in 0..30 {
            let m = g.mutate_op(&base, MutOp::I2sInt, &journal);
            assert!(m.conforms_to(g.spec()), "clamp violated range: {m}");
        }
    }

    #[test]
    fn i2s_mmio_splice_replaces_the_consumed_byte() {
        let spec = parse_spec(&extract_spec_text(OsKind::Zephyr)).unwrap();
        let mut g = Generator::new(spec, 13, GenerationMode::ApiAware, 4).with_mmio(true);
        // The driver read 0x11 and compared it to the 0x5A tag.
        let journal = journal_with(&[(8, 0x11, 0x5A)]);
        let mut base = g.generate();
        base.mmio = vec![0x00, 0x11, 0x22, 0x11];
        let mut replaced = false;
        for _ in 0..40 {
            let m = g.mutate_op(&base, MutOp::I2sMmio, &journal);
            // The splice overwrites an occurrence of the consumed value
            // in place — stream length never changes on the match path.
            if m.mmio.len() == base.mmio.len() && m.mmio.contains(&0x5A) {
                let changed: Vec<usize> = (0..m.mmio.len())
                    .filter(|&i| m.mmio[i] != base.mmio[i])
                    .collect();
                assert_eq!(changed.len(), 1);
                assert_eq!(base.mmio[changed[0]], 0x11);
                assert_eq!(m.mmio[changed[0]], 0x5A);
                replaced = true;
            }
        }
        assert!(replaced, "mmio splice never replaced the lhs byte");
    }

    #[test]
    fn i2s_ops_fall_back_to_mutation_without_candidates() {
        let spec = parse_spec(&extract_spec_text(OsKind::FreeRtos)).unwrap();
        let mut g = Generator::new(spec, 19, GenerationMode::ApiAware, 6);
        let empty = CmpJournal::new();
        let base = g.generate();
        for op in [MutOp::I2sInt, MutOp::I2sMmio] {
            let m = g.mutate_op(&base, op, &empty);
            assert!(m.conforms_to(g.spec()));
        }
    }
}
