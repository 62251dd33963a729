//! `compression`: compress a set of files and return the archive (paper
//! Table 3, Utilities; the original zips the `acmart-master` LaTeX template).
//!
//! Contains a from-scratch **LZ77 + canonical-Huffman** compressor
//! ([`compress`] / [`decompress`]) — a real, lossless, deflate-shaped
//! codec — plus the benchmark that fetches a file tree from storage,
//! compresses it into a single archive and uploads the result. Table 4
//! characterizes this as the longest-running CPU-heavy benchmark (≈1.7G
//! instructions, 88% CPU).

use sebs_sim::bytes::Bytes;
use sebs_sim::rng::{Rng, StreamRng};
use sebs_storage::ObjectStorage;

use crate::harness::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

const WINDOW: usize = 8 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255 + MIN_MATCH;

/// An LZ77 token: either a literal byte or a back-reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { distance: u16, length: u16 },
}

/// Compresses `input`, returning the archive bytes and the abstract work
/// spent (≈ one unit per byte-comparison performed).
///
/// The format is: 8-byte little-endian original length, then a canonical
/// Huffman table for the symbol alphabet, then the bit-packed token stream.
///
/// # Example
///
/// ```
/// use sebs_workloads::compress::{compress, decompress};
///
/// let data = b"abcabcabcabc hello hello hello".to_vec();
/// let (packed, _work) = compress(&data);
/// assert_eq!(decompress(&packed).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> (Vec<u8>, u64) {
    let mut work = 0u64;
    let tokens = lz77_tokenize(input, &mut work);

    // Symbol alphabet: 0..=255 literals, 256..=511 match lengths bucketed
    // with the raw length stored separately, distances raw.
    let mut symbols = Vec::with_capacity(tokens.len());
    for t in &tokens {
        match t {
            Token::Literal(b) => symbols.push(*b as u16),
            Token::Match { length, .. } => symbols.push(256 + (length - MIN_MATCH as u16)),
        }
    }
    let code = HuffmanCode::from_symbols(&symbols, 512);
    work += symbols.len() as u64;

    let mut out = Vec::with_capacity(input.len() / 2 + 64);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    code.write_table(&mut out);
    let mut bits = BitWriter::new(out);
    for t in &tokens {
        match t {
            Token::Literal(b) => {
                code.write_symbol(&mut bits, *b as u16);
            }
            Token::Match { distance, length } => {
                code.write_symbol(&mut bits, 256 + (length - MIN_MATCH as u16));
                bits.write_bits(*distance as u32, 16);
            }
        }
        work += 2;
    }
    (bits.finish(), work)
}

/// Decompresses an archive produced by [`compress`].
///
/// Returns `None` on malformed input.
pub fn decompress(archive: &[u8]) -> Option<Vec<u8>> {
    if archive.len() < 8 {
        return None;
    }
    let out_len = usize::try_from(u64::from_le_bytes(archive[..8].try_into().ok()?)).ok()?;
    let (code, table_len) = HuffmanCode::read_table(&archive[8..])?;
    let body = &archive[8 + table_len..];
    // Every symbol takes at least one bit and yields at most MAX_MATCH
    // bytes, so a longer claimed length cannot be decoded (and must not be
    // reserved).
    if out_len > body.len().saturating_mul(8 * MAX_MATCH) {
        return None;
    }
    let mut bits = BitReader::new(body);
    let mut out = Vec::with_capacity(out_len);
    while out.len() < out_len {
        let sym = code.read_symbol(&mut bits)?;
        if sym < 256 {
            out.push(sym as u8);
        } else {
            let length = (sym - 256) as usize + MIN_MATCH;
            let distance = bits.read_bits(16)? as usize;
            if distance == 0 || distance > out.len() {
                return None;
            }
            let start = out.len() - distance;
            for i in 0..length {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    Some(out)
}

fn lz77_tokenize(input: &[u8], work: &mut u64) -> Vec<Token> {
    // Hash-chain matcher over 4-byte prefixes.
    const HASH_BITS: u32 = 15;
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; input.len()];
    let hash = |window: &[u8]| -> usize {
        let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    };
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < input.len() {
        if i + MIN_MATCH <= input.len() {
            let h = hash(&input[i..]);
            let mut candidate = head[h];
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut chain = 0;
            while candidate != usize::MAX && i - candidate <= WINDOW && chain < 32 {
                let max = (input.len() - i).min(MAX_MATCH);
                let len = common_prefix(&input[candidate..candidate + max], &input[i..i + max]);
                *work += len as u64 + 1;
                if len > best_len {
                    best_len = len;
                    best_dist = i - candidate;
                }
                candidate = prev[candidate];
                chain += 1;
            }
            // Insert current position into the chain.
            prev[i] = head[h];
            head[h] = i;
            if best_len >= MIN_MATCH {
                tokens.push(Token::Match {
                    distance: best_dist as u16,
                    length: best_len as u16,
                });
                // Insert skipped positions to keep chains dense enough.
                let end = i + best_len;
                let mut j = i + 1;
                while j < end && j + MIN_MATCH <= input.len() {
                    let hj = hash(&input[j..]);
                    prev[j] = head[hj];
                    head[hj] = j;
                    j += 1;
                }
                i = end;
                continue;
            }
        }
        tokens.push(Token::Literal(input[i]));
        *work += 1;
        i += 1;
    }
    tokens
}

/// Length of the common prefix of two equally long slices: eight bytes at
/// a time, where the lowest set bit of the XOR of two little-endian words
/// falls in the first differing byte, then byte by byte.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let (words_a, _) = a.as_chunks::<8>();
    let (words_b, _) = b.as_chunks::<8>();
    for (k, (x, y)) in words_a.iter().zip(words_b).enumerate() {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return k * 8 + (diff.trailing_zeros() / 8) as usize;
        }
    }
    let done = words_a.len() * 8;
    done + a[done..]
        .iter()
        .zip(&b[done..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Canonical Huffman code over a dense `u16` alphabet.
#[derive(Debug, Clone)]
struct HuffmanCode {
    /// Code length per symbol (0 = unused).
    lengths: Vec<u8>,
    /// Canonical codes per symbol.
    codes: Vec<u32>,
    /// First canonical code of each length (decode acceleration).
    first_code: Vec<u32>,
    /// Index into `order` of the first symbol of each length.
    first_index: Vec<u32>,
    /// Number of symbols of each length.
    count_by_len: Vec<u32>,
    /// Live symbols sorted by (length, symbol) — canonical order.
    order: Vec<u16>,
}

impl HuffmanCode {
    const MAX_LEN: u8 = 15;

    fn from_symbols(symbols: &[u16], alphabet: usize) -> HuffmanCode {
        let mut freq = vec![0u64; alphabet];
        for &s in symbols {
            freq[s as usize] += 1;
        }
        let lengths = build_lengths(&freq, Self::MAX_LEN);
        Self::from_lengths(lengths)
    }

    fn from_lengths(lengths: Vec<u8>) -> HuffmanCode {
        let codes = canonical_codes(&lengths);
        let max_len = Self::MAX_LEN as usize;
        let mut order: Vec<u16> = (0..lengths.len() as u16)
            .filter(|&i| lengths[i as usize] > 0)
            .collect();
        order.sort_by_key(|&i| (lengths[i as usize], i));
        let mut first_code = vec![0u32; max_len + 2];
        let mut first_index = vec![0u32; max_len + 2];
        let mut bl_count = vec![0u32; max_len + 1];
        for &l in &lengths {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut code = 0u32;
        let mut index = 0u32;
        for l in 1..=max_len {
            code = (code + bl_count[l - 1]) << 1;
            first_code[l] = code;
            first_index[l] = index;
            index += bl_count[l];
        }
        HuffmanCode {
            lengths,
            codes,
            first_code,
            first_index,
            count_by_len: bl_count,
            order,
        }
    }

    fn write_table(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.lengths.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.lengths);
    }

    fn read_table(data: &[u8]) -> Option<(HuffmanCode, usize)> {
        if data.len() < 2 {
            return None;
        }
        let n = u16::from_le_bytes([data[0], data[1]]) as usize;
        if data.len() < 2 + n {
            return None;
        }
        let lengths = data[2..2 + n].to_vec();
        if lengths.iter().any(|&l| l > Self::MAX_LEN) {
            return None;
        }
        // Validate the Kraft sum so a corrupt table cannot loop the decoder.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (Self::MAX_LEN - l))
            .sum();
        let live = lengths.iter().filter(|&&l| l > 0).count();
        if live > 1 && kraft != 1u64 << Self::MAX_LEN {
            return None;
        }
        Some((HuffmanCode::from_lengths(lengths), 2 + n))
    }

    fn write_symbol(&self, bits: &mut BitWriter, sym: u16) {
        let len = self.lengths[sym as usize];
        debug_assert!(len > 0, "writing unused symbol {sym}");
        bits.write_bits(self.codes[sym as usize], len as u32);
    }

    fn read_symbol(&self, bits: &mut BitReader<'_>) -> Option<u16> {
        // Canonical decode: within each length, codes are consecutive
        // starting at `first_code[len]`, in `order` order.
        let mut code = 0u32;
        let mut len = 0usize;
        loop {
            code = (code << 1) | bits.read_bits(1)?;
            len += 1;
            if len > Self::MAX_LEN as usize {
                return None;
            }
            let count = self.count_by_len[len];
            if code >= self.first_code[len] && code - self.first_code[len] < count {
                let idx = self.first_index[len] + (code - self.first_code[len]);
                let sym = self.order[idx as usize];
                debug_assert_eq!(self.lengths[sym as usize] as usize, len);
                debug_assert_eq!(self.codes[sym as usize], code);
                return Some(sym);
            }
        }
    }
}

/// Package-merge-free length assignment: standard frequency-sorted Huffman
/// tree with depth clamping (re-normalized to satisfy Kraft).
fn build_lengths(freq: &[u64], max_len: u8) -> Vec<u8> {
    let live: Vec<usize> = freq
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, _)| i)
        .collect();
    let mut lengths = vec![0u8; freq.len()];
    match live.len() {
        0 => return lengths,
        1 => {
            lengths[live[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // Build the tree with a simple two-queue method over sorted leaves.
    #[derive(Debug)]
    struct NodeArena {
        weight: Vec<u64>,
        left: Vec<i32>,
        right: Vec<i32>,
    }
    let mut leaves: Vec<(u64, usize)> = live.iter().map(|&i| (freq[i], i)).collect();
    leaves.sort();
    let mut arena = NodeArena {
        weight: Vec::new(),
        left: Vec::new(),
        right: Vec::new(),
    };
    // Leaf nodes occupy ids 0..n, internal nodes follow.
    let n = leaves.len();
    for &(w, _) in &leaves {
        arena.weight.push(w);
        arena.left.push(-1);
        arena.right.push(-1);
    }
    let mut q1: std::collections::VecDeque<usize> = (0..n).collect();
    let mut q2: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let pop_min = |arena: &NodeArena,
                   q1: &mut std::collections::VecDeque<usize>,
                   q2: &mut std::collections::VecDeque<usize>|
     -> usize {
        match (q1.front(), q2.front()) {
            (Some(&a), Some(&b)) => {
                if arena.weight[a] <= arena.weight[b] {
                    // audit:allow(panic-hygiene): the match arm just observed a front element
                    q1.pop_front().expect("checked front")
                } else {
                    // audit:allow(panic-hygiene): the match arm just observed a front element
                    q2.pop_front().expect("checked front")
                }
            }
            // audit:allow(panic-hygiene): the match arm just observed a front element
            (Some(_), None) => q1.pop_front().expect("checked front"),
            // audit:allow(panic-hygiene): the match arm just observed a front element
            (None, Some(_)) => q2.pop_front().expect("checked front"),
            (None, None) => unreachable!("both queues empty"),
        }
    };
    while q1.len() + q2.len() > 1 {
        let a = pop_min(&arena, &mut q1, &mut q2);
        let b = pop_min(&arena, &mut q1, &mut q2);
        let id = arena.weight.len();
        arena.weight.push(arena.weight[a] + arena.weight[b]);
        arena.left.push(a as i32);
        arena.right.push(b as i32);
        q2.push_back(id);
    }
    // audit:allow(panic-hygiene): the merge loop leaves exactly one node, and it sits in q2
    let root = q2.pop_front().expect("tree has a root");
    // Depth-first traversal to assign depths.
    let mut stack = vec![(root, 0u8)];
    let mut depths = vec![0u8; n];
    while let Some((node, d)) = stack.pop() {
        if arena.left[node] < 0 {
            depths[node] = d.max(1);
        } else {
            stack.push((arena.left[node] as usize, d + 1));
            stack.push((arena.right[node] as usize, d + 1));
        }
    }
    // Clamp to max_len and repair the Kraft inequality by deepening the
    // shallowest codes (simple heuristic, always terminates).
    let mut counts = vec![0u32; max_len as usize + 1];
    for d in depths.iter_mut() {
        *d = (*d).min(max_len);
        counts[*d as usize] += 1;
    }
    let kraft = |counts: &[u32]| -> u64 {
        counts
            .iter()
            .enumerate()
            .skip(1)
            .map(|(l, &c)| (c as u64) << (max_len as usize - l))
            .sum()
    };
    while kraft(&counts) > 1u64 << max_len {
        // Find a symbol at depth < max_len closest to the bottom and push
        // it one level down.
        let l = (1..max_len as usize)
            .rev()
            .find(|&l| counts[l] > 0)
            // audit:allow(panic-hygiene): Kraft overflow implies a non-full level below max_len exists
            .expect("some symbol can be deepened");
        counts[l] -= 1;
        counts[l + 1] += 1;
        let idx = depths
            .iter()
            .position(|&d| d as usize == l)
            // audit:allow(panic-hygiene): counts[] is derived from depths[], so a matching entry exists
            .expect("counts tracked depths");
        depths[idx] += 1;
    }
    for (slot, &(_, sym)) in leaves.iter().enumerate() {
        lengths[sym] = depths[slot];
    }
    lengths
}

fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; max_len as usize + 1];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; max_len as usize + 2];
    let mut code = 0u32;
    for l in 1..=max_len as usize {
        code = (code + bl_count[l - 1]) << 1;
        next_code[l] = code;
    }
    let mut codes = vec![0u32; lengths.len()];
    // Canonical order: by (length, symbol).
    let mut order: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
    order.sort_by_key(|&i| (lengths[i], i));
    for &i in &order {
        let l = lengths[i] as usize;
        codes[i] = next_code[l];
        next_code[l] += 1;
    }
    codes
}

#[derive(Debug)]
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new(out: Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    fn write_bits(&mut self, value: u32, bits: u32) {
        debug_assert!(bits <= 32);
        self.acc = (self.acc << bits) | value as u64;
        self.nbits += bits;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.acc <<= pad;
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

#[derive(Debug)]
struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn read_bits(&mut self, bits: u32) -> Option<u32> {
        while self.nbits < bits {
            let byte = *self.data.get(self.pos)?;
            self.pos += 1;
            self.acc = (self.acc << 8) | byte as u64;
            self.nbits += 8;
        }
        self.nbits -= bits;
        let v = (self.acc >> self.nbits) as u32 & ((1u64 << bits) - 1) as u32;
        Some(v)
    }
}

/// Bucket for compression inputs/outputs.
pub const BUCKET: &str = "compression-data";

/// The `compression` benchmark: fetch a file set, build one archive,
/// upload it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compression {
    /// Language variant (the paper ships Python only).
    pub language: Language,
}

impl Compression {
    /// Creates the benchmark.
    pub fn new(language: Language) -> Self {
        Compression { language }
    }

    fn file_set(scale: Scale) -> (usize, usize) {
        // (number of files, bytes per file) — acmart-master is ~100 text
        // files of a few tens of kB.
        match scale {
            Scale::Test => (8, 4 * 1024),
            Scale::Small => (60, 64 * 1024),
            Scale::Large => (120, 512 * 1024),
        }
    }

    /// Deterministic "LaTeX-like" text: word soup with heavy repetition so
    /// compression has realistic structure.
    fn synth_text(rng: &mut StreamRng, bytes: usize) -> Vec<u8> {
        const WORDS: &[&str] = &[
            "\\documentclass",
            "\\usepackage",
            "\\begin{document}",
            "section",
            "theorem",
            "benchmark",
            "serverless",
            "function",
            "latency",
            "\\cite{copik2021sebs}",
            "performance",
            "the",
            "of",
            "and",
        ];
        let mut out = Vec::with_capacity(bytes);
        while out.len() < bytes {
            let w = WORDS[rng.gen_range(0..WORDS.len())];
            out.extend_from_slice(w.as_bytes());
            out.push(b' ');
            if rng.gen_ratio(1, 12) {
                out.push(b'\n');
            }
        }
        out.truncate(bytes);
        out
    }
}

impl Workload for Compression {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "compression".into(),
            language: self.language,
            dependencies: vec![],
            code_package_bytes: 900_000,
            default_memory_mb: 512,
        }
    }

    fn prepare(
        &self,
        scale: Scale,
        rng: &mut StreamRng,
        storage: &mut dyn ObjectStorage,
    ) -> Payload {
        storage.create_bucket(BUCKET);
        let (files, per_file) = Self::file_set(scale);
        for i in 0..files {
            let data = Self::synth_text(rng, per_file);
            storage
                .put(
                    rng,
                    BUCKET,
                    &format!("src/file-{i:03}.tex"),
                    Bytes::from(data),
                )
                // audit:allow(panic-hygiene): the bucket is created two lines above in the same function
                .expect("bucket was just created");
        }
        Payload::with_params(vec![
            ("bucket".into(), BUCKET.into()),
            ("prefix".into(), "src/".into()),
        ])
    }

    fn execute(
        &self,
        payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        let bucket = payload
            .param("bucket")
            .ok_or_else(|| WorkloadError::BadPayload("missing `bucket`".into()))?
            .to_string();
        let prefix = payload.param("prefix").unwrap_or("").to_string();

        // Gather the file set: a real archive walks a directory listing.
        let keys: Vec<String> = {
            // LIST through the raw storage handle is not exposed on the ctx;
            // fetch a manifest-by-convention instead: files are numbered.
            let mut keys = Vec::new();
            let mut i = 0;
            loop {
                let key = format!("{prefix}file-{i:03}.tex");
                match ctx.storage_get(&bucket, &key) {
                    Ok(_) => keys.push(key),
                    Err(_) => break,
                }
                i += 1;
            }
            keys
        };
        if keys.is_empty() {
            return Err(WorkloadError::Storage(format!(
                "no input files under {bucket}/{prefix}"
            )));
        }

        // Concatenate with headers, then compress the whole archive.
        let mut raw = Vec::new();
        for key in &keys {
            let data = ctx.storage_get(&bucket, key)?;
            raw.extend_from_slice(format!("== {key} ({} bytes)\n", data.len()).as_bytes());
            raw.extend_from_slice(&data);
        }
        ctx.alloc(raw.len() as u64);
        let (packed, work) = compress(&raw);
        // Calibration: the original zlib-based run costs ~45 interpreted
        // ops per matcher comparison at Python call boundaries.
        ctx.work(work * 45);
        ctx.alloc(packed.len() as u64);

        let out_key = format!("{prefix}archive.sebz");
        ctx.storage_put(&bucket, &out_key, Bytes::from(packed.clone()))?;
        let ratio = raw.len() as f64 / packed.len() as f64;
        ctx.free((raw.len() + packed.len()) as u64);
        Ok(Response::new(format!(
            "{{\"files\":{},\"raw\":{},\"packed\":{},\"ratio\":{ratio:.2}}}",
            keys.len(),
            raw.len(),
            packed.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::rng::Rng;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    #[test]
    fn round_trip_simple() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let (packed, work) = compress(&data);
        assert!(work > 0);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for input in [&b""[..], &b"a"[..], &b"ab"[..], &b"aaaa"[..]] {
            let (packed, _) = compress(input);
            assert_eq!(decompress(&packed).unwrap(), input, "input {input:?}");
        }
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"serverless benchmark suite ".repeat(500);
        let (packed, _) = compress(&data);
        assert!(
            packed.len() < data.len() / 5,
            "repetitive text must shrink ≥5x: {} -> {}",
            data.len(),
            packed.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn incompressible_data_survives() {
        let mut rng = SimRng::new(77).stream("rnd");
        let data: Vec<u8> = (0..20_000)
            .map(|_| sebs_sim::rng::Rng::gen(&mut rng))
            .collect();
        let (packed, _) = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
        // Random bytes may expand slightly, but not pathologically.
        assert!(packed.len() < data.len() + data.len() / 3 + 1024);
    }

    #[test]
    fn corrupt_archives_do_not_panic() {
        let (mut packed, _) = compress(b"hello hello hello hello");
        // Truncations.
        for cut in [0, 4, 8, 10, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_none() || cut == packed.len() - 1);
        }
        // Bit flips in the table area: either decode fails or round-trip
        // produces *something* without panicking.
        packed[9] ^= 0xFF;
        let _ = decompress(&packed);
    }

    #[test]
    fn huge_length_header_is_rejected() {
        let (mut packed, _) = compress(b"hello hello hello hello");
        packed[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decompress(&packed), None);
    }

    #[test]
    fn long_matches_and_max_length() {
        let data = vec![b'x'; 3 * MAX_MATCH + 7];
        let (packed, _) = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
        // A handful of max-length matches plus the (fixed-size) code table.
        assert!(packed.len() < data.len());
    }

    #[test]
    fn overlapping_copy_semantics() {
        // distance < length exercises the overlapping-copy path.
        let mut data = b"ab".to_vec();
        data.extend(std::iter::repeat_n(b"ab", 100).flatten());
        let (packed, _) = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn benchmark_end_to_end() {
        let wl = Compression::new(Language::Python);
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(13).stream("comp");
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let resp = wl.execute(&payload, &mut ctx).unwrap();
        let body = std::str::from_utf8(resp.body().unwrap()).unwrap();
        assert!(body.starts_with("{\"files\":8,"), "{body}");
        assert!(ctx.counters().instructions > 100_000);
        let _ = ctx;
        assert!(store.size_of(BUCKET, "src/archive.sebz").is_some());
    }

    #[test]
    fn benchmark_missing_inputs() {
        let wl = Compression::default();
        let mut store = SimObjectStore::local_minio_model();
        store.create_bucket(BUCKET);
        let mut rng = SimRng::new(13).stream("comp");
        let payload = Payload::with_params(vec![("bucket".into(), BUCKET.into())]);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        assert!(matches!(
            wl.execute(&payload, &mut ctx),
            Err(WorkloadError::Storage(_))
        ));
    }

    #[test]
    fn archive_decompresses_to_original_concatenation() {
        let wl = Compression::default();
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(13).stream("comp");
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        wl.execute(&payload, &mut ctx).unwrap();
        let mut check_rng = SimRng::new(13).stream("check");
        let (archive, _) = store
            .get(&mut check_rng, BUCKET, "src/archive.sebz")
            .unwrap();
        let raw = decompress(&archive).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.contains("== src/file-000.tex"));
        assert!(text.contains("== src/file-007.tex"));
        assert!(text.contains("\\documentclass"));
    }

    /// The tokenizer before the word-at-a-time match search: each
    /// candidate is measured one byte at a time.
    fn lz77_tokenize_bytewise(input: &[u8], work: &mut u64) -> Vec<Token> {
        const HASH_BITS: u32 = 15;
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; input.len()];
        let hash = |window: &[u8]| -> usize {
            let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
            (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
        };
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < input.len() {
            if i + MIN_MATCH <= input.len() {
                let h = hash(&input[i..]);
                let mut candidate = head[h];
                let mut best_len = 0usize;
                let mut best_dist = 0usize;
                let mut chain = 0;
                while candidate != usize::MAX && i - candidate <= WINDOW && chain < 32 {
                    let mut len = 0;
                    let max = (input.len() - i).min(MAX_MATCH);
                    while len < max && input[candidate + len] == input[i + len] {
                        len += 1;
                    }
                    *work += len as u64 + 1;
                    if len > best_len {
                        best_len = len;
                        best_dist = i - candidate;
                    }
                    candidate = prev[candidate];
                    chain += 1;
                }
                prev[i] = head[h];
                head[h] = i;
                if best_len >= MIN_MATCH {
                    tokens.push(Token::Match {
                        distance: best_dist as u16,
                        length: best_len as u16,
                    });
                    let end = i + best_len;
                    let mut j = i + 1;
                    while j < end && j + MIN_MATCH <= input.len() {
                        let hj = hash(&input[j..]);
                        prev[j] = head[hj];
                        head[hj] = j;
                        j += 1;
                    }
                    i = end;
                    continue;
                }
            }
            tokens.push(Token::Literal(input[i]));
            *work += 1;
            i += 1;
        }
        tokens
    }

    #[test]
    fn lz77_matches_the_bytewise_search() {
        let mut inputs: Vec<Vec<u8>> =
            vec![Vec::new(), vec![7], vec![0; 5], vec![0; 2 * MAX_MATCH + 9]];
        for case in 0..24u64 {
            let mut rng = SimRng::new(0x177).child(case).stream("inputs");
            let len = rng.gen_range(0usize..6000);
            // Random bytes, and text over a small alphabet.
            inputs.push((0..len).map(|_| rng.gen()).collect());
            inputs.push(
                (0..len)
                    .map(|_| b"ab c"[rng.gen_range(0..4usize)])
                    .collect(),
            );
            // Constant runs and periodic data, of every period up to 24.
            inputs.push(vec![rng.gen(); len]);
            let period: Vec<u8> = (0..=case).map(|_| rng.gen()).collect();
            inputs.push(period.iter().copied().cycle().take(len).collect());
            // Matches cut short by the end of the input: a repeated block
            // with a tail of 1..16 bytes past the last full copy.
            let block: Vec<u8> = (0..rng.gen_range(4usize..40)).map(|_| rng.gen()).collect();
            let mut near_end = block.repeat(3);
            near_end.extend_from_slice(&block[..(case as usize % 16 + 1).min(block.len())]);
            inputs.push(near_end);
        }
        // The benchmark's own input shape.
        let mut rng = SimRng::new(0x177).stream("text");
        inputs.push(Compression::synth_text(&mut rng, 40_000));
        for (n, input) in inputs.iter().enumerate() {
            let (mut fast_work, mut slow_work) = (0u64, 0u64);
            let fast = lz77_tokenize(input, &mut fast_work);
            let slow = lz77_tokenize_bytewise(input, &mut slow_work);
            assert_eq!(fast, slow, "input {n} ({} bytes)", input.len());
            assert_eq!(fast_work, slow_work, "input {n} ({} bytes)", input.len());
        }
    }

    #[test]
    fn common_prefix_counts_equal_leading_bytes() {
        let a: Vec<u8> = (0..40).collect();
        for len in 0..=a.len() {
            for cut in 0..=len {
                let mut b = a[..len].to_vec();
                if cut < len {
                    b[cut] ^= 0x80;
                }
                assert_eq!(common_prefix(&a[..len], &b), cut, "len {len}, cut {cut}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for case in 0..32u64 {
            let mut rng = SimRng::new(0x2090).child(case).stream("inputs");
            let len = rng.gen_range(0usize..4096);
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let (packed, _) = compress(&data);
            assert_eq!(
                decompress(&packed).unwrap(),
                data,
                "failing case seed {case}"
            );
        }
    }

    #[test]
    fn round_trip_structured() {
        const ALPHABET: &[u8] = b"abcde ";
        for case in 0..32u64 {
            let mut rng = SimRng::new(0x5790).child(case).stream("inputs");
            let len = rng.gen_range(0usize..2000);
            let data: Vec<u8> = (0..len)
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                .collect();
            let (packed, _) = compress(&data);
            assert_eq!(
                decompress(&packed).unwrap(),
                data,
                "failing case seed {case}"
            );
        }
    }
}
