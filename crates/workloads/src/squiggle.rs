//! `data-vis`: serverless DNA sequence visualization (paper Table 3,
//! Utilities) — the backend of DNAVisualization.org, which uses the
//! `squiggle` Python library.
//!
//! The Squiggle method (Lee, *Bioinformatics* 2018) turns a DNA sequence
//! into a 2D line: every base contributes two half-unit steps in `x` and a
//! characteristic vertical movement — `A` rises then falls, `T` falls then
//! rises, `G` takes two upward half-steps and `C` two downward ones, so
//! GC-rich regions trend upwards. The benchmark fetches a FASTA-like input
//! from storage, computes the squiggle polyline, simplifies it for plotting
//! (uniform min-max downsampling, as the site does for long sequences) and
//! caches the visualization back in storage.

use sebs_sim::bytes::Bytes;
use sebs_sim::rng::{Rng, StreamRng};
use sebs_storage::ObjectStorage;

use crate::harness::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

/// One point of the squiggle polyline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Horizontal position (half-steps of 0.5 per base).
    pub x: f64,
    /// Vertical position.
    pub y: f64,
}

/// Computes the squiggle polyline of a DNA sequence.
///
/// Unknown bases (anything other than `ACGT`, case-insensitive) contribute
/// two flat half-steps, matching the library's handling of `N`.
///
/// # Example
///
/// ```
/// use sebs_workloads::squiggle::squiggle;
///
/// let points = squiggle(b"AT");
/// // A: up to 1 then back to 0; T: down to -1 then back to 0.
/// let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
/// assert_eq!(ys, vec![0.0, 1.0, 0.0, -1.0, 0.0]);
/// ```
pub fn squiggle(seq: &[u8]) -> Vec<Point> {
    let mut points = Vec::with_capacity(seq.len() * 2 + 1);
    let mut x = 0.0f64;
    let mut y = 0.0f64;
    points.push(Point { x, y });
    for &base in seq {
        let (d1, d2) = match base.to_ascii_uppercase() {
            b'A' => (1.0, -1.0),
            b'T' => (-1.0, 1.0),
            b'G' => (0.5, 0.5),
            b'C' => (-0.5, -0.5),
            _ => (0.0, 0.0),
        };
        x += 0.5;
        y += d1;
        points.push(Point { x, y });
        x += 0.5;
        y += d2;
        points.push(Point { x, y });
    }
    points
}

/// Min-max downsampling to at most `max_points` points: the polyline is
/// split into buckets and each bucket contributes its minimum and maximum
/// `y` point (preserving visual extremes, as plotting front-ends do).
///
/// Returns the input unchanged when it is already small enough.
///
/// # Panics
///
/// Panics if `max_points < 2`.
pub fn downsample(points: &[Point], max_points: usize) -> Vec<Point> {
    assert!(max_points >= 2, "need at least two output points");
    if points.len() <= max_points {
        return points.to_vec();
    }
    let buckets = max_points / 2;
    let per = points.len() as f64 / buckets as f64;
    let mut out = Vec::with_capacity(buckets * 2);
    for b in 0..buckets {
        let start = (b as f64 * per) as usize;
        let end = (((b + 1) as f64 * per) as usize).min(points.len());
        let slice = &points[start..end.max(start + 1)];
        let mut min = slice[0];
        let mut max = slice[0];
        for p in slice {
            if p.y < min.y {
                min = *p;
            }
            if p.y > max.y {
                max = *p;
            }
        }
        if min.x <= max.x {
            out.push(min);
            out.push(max);
        } else {
            out.push(max);
            out.push(min);
        }
    }
    out
}

/// Serializes a polyline as a compact JSON array of `[x, y]` pairs, each
/// coordinate written as `format!("{:.1}")` would.
pub fn to_json(points: &[Point]) -> String {
    let mut s = String::with_capacity(points.len() * 16 + 2);
    s.push('[');
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        push_coord(&mut s, p.x);
        s.push(',');
        push_coord(&mut s, p.y);
        s.push(']');
    }
    s.push(']');
    s
}

/// 2⁵²: below it, twice a multiple of 0.5 is an integer an `f64` holds
/// exactly, so the conversions in [`push_coord`] lose nothing.
const HALF_STEP_LIMIT: f64 = 4_503_599_627_370_496.0;

/// Appends `v` as `{:.1}` formats it. A multiple of 0.5 below 2⁵² in
/// magnitude, which every squiggle coordinate is, needs no rounding: its
/// text is the integer part, then `.0` or `.5`. Any other value, including
/// NaN and the infinities, goes through the formatter.
fn push_coord(s: &mut String, v: f64) {
    let twice = v.abs() * 2.0;
    let halves = twice as u64;
    if v.abs() < HALF_STEP_LIMIT && halves as f64 == twice {
        if v.is_sign_negative() {
            s.push('-');
        }
        push_decimal(s, halves >> 1);
        s.push_str(if halves & 1 == 0 { ".0" } else { ".5" });
    } else {
        use std::fmt::Write;
        // Writing into a `String` cannot fail.
        let _ = write!(s, "{v:.1}");
    }
}

/// Appends the decimal digits of `n`.
fn push_decimal(s: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Bucket for data-vis inputs and cached outputs.
pub const BUCKET: &str = "datavis-cache";
/// Input sequence key.
pub const INPUT_KEY: &str = "sequence.fasta";

/// The `data-vis` benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataVis {
    /// Language variant (the original is Python).
    pub language: Language,
}

impl DataVis {
    /// Creates the benchmark.
    pub fn new(language: Language) -> Self {
        DataVis { language }
    }

    fn bases_for(scale: Scale) -> usize {
        match scale {
            Scale::Test => 10_000,
            Scale::Small => 500_000,
            Scale::Large => 5_000_000,
        }
    }

    fn synth_sequence(rng: &mut StreamRng, bases: usize) -> Vec<u8> {
        const ALPHABET: &[u8; 4] = b"ACGT";
        (0..bases)
            .map(|_| ALPHABET[rng.gen_range(0..4usize)])
            .collect()
    }
}

impl Workload for DataVis {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "data-vis".into(),
            language: self.language,
            dependencies: vec!["squiggle".into()],
            code_package_bytes: 8_000_000,
            default_memory_mb: 256,
        }
    }

    fn prepare(
        &self,
        scale: Scale,
        rng: &mut StreamRng,
        storage: &mut dyn ObjectStorage,
    ) -> Payload {
        storage.create_bucket(BUCKET);
        let mut fasta = b">synthetic benchmark sequence\n".to_vec();
        fasta.extend(Self::synth_sequence(rng, Self::bases_for(scale)));
        storage
            .put(rng, BUCKET, INPUT_KEY, Bytes::from(fasta))
            // audit:allow(panic-hygiene): the bucket is created two lines above in the same function
            .expect("bucket was just created");
        Payload::with_params(vec![
            ("bucket".into(), BUCKET.into()),
            ("key".into(), INPUT_KEY.into()),
            ("max-points".into(), "4000".into()),
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
        let key = payload
            .param("key")
            .ok_or_else(|| WorkloadError::BadPayload("missing `key`".into()))?
            .to_string();
        let max_points: usize = payload
            .param("max-points")
            .unwrap_or("4000")
            .parse()
            .map_err(|e| WorkloadError::BadPayload(format!("bad max-points: {e}")))?;
        if max_points < 2 {
            return Err(WorkloadError::BadPayload("max-points must be ≥ 2".into()));
        }

        let data = ctx.storage_get(&bucket, &key)?;
        // Strip the FASTA header line if present.
        let seq: &[u8] = if data.starts_with(b">") {
            match data.iter().position(|&b| b == b'\n') {
                Some(nl) => &data[nl + 1..],
                None => &[],
            }
        } else {
            &data
        };
        if seq.is_empty() {
            return Err(WorkloadError::BadPayload("empty sequence".into()));
        }
        ctx.alloc(data.len() as u64);

        let points = squiggle(seq);
        ctx.alloc((points.len() * 16) as u64);
        ctx.work(seq.len() as u64 * 40); // per-base squiggle math, interpreted

        let plot = downsample(&points, max_points);
        ctx.work(points.len() as u64 * 6);

        let json = to_json(&plot);
        ctx.work(json.len() as u64);
        ctx.storage_put(
            &bucket,
            &format!("{key}.squiggle.json"),
            Bytes::from(json.clone()),
        )?;
        ctx.free((data.len() + points.len() * 16) as u64);

        Ok(Response::new(json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    #[test]
    fn squiggle_base_shapes() {
        // G trends up by +1 per base, C down by -1.
        let g = squiggle(b"GGGG");
        assert_eq!(g.last().unwrap().y, 4.0);
        let c = squiggle(b"CCCC");
        assert_eq!(c.last().unwrap().y, -4.0);
        // A and T return to baseline.
        let at = squiggle(b"ATATAT");
        assert_eq!(at.last().unwrap().y, 0.0);
        // Unknown bases are flat.
        let n = squiggle(b"NNN");
        assert!(n.iter().all(|p| p.y == 0.0));
    }

    #[test]
    fn squiggle_geometry() {
        let pts = squiggle(b"ACGT");
        assert_eq!(pts.len(), 9, "2 points per base + origin");
        assert_eq!(pts.last().unwrap().x, 4.0, "0.5 x per half step");
        // x strictly increases.
        for w in pts.windows(2) {
            assert!(w[1].x > w[0].x);
        }
    }

    #[test]
    fn lowercase_handled() {
        assert_eq!(squiggle(b"acgt"), squiggle(b"ACGT"));
    }

    #[test]
    fn downsample_preserves_extremes() {
        let pts = squiggle(b"GGGGGGGGGGCCCCCCCCCCGGGGGGGGGG");
        let small = downsample(&pts, 10);
        assert!(small.len() <= 10);
        let max_y = pts.iter().map(|p| p.y).fold(f64::MIN, f64::max);
        let small_max = small.iter().map(|p| p.y).fold(f64::MIN, f64::max);
        assert_eq!(max_y, small_max, "global max survives downsampling");
    }

    #[test]
    fn downsample_identity_when_small() {
        let pts = squiggle(b"ACG");
        assert_eq!(downsample(&pts, 100), pts);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn downsample_rejects_tiny_budget() {
        downsample(&squiggle(b"A"), 1);
    }

    #[test]
    fn json_format() {
        let json = to_json(&[Point { x: 0.0, y: 0.0 }, Point { x: 0.5, y: 1.0 }]);
        assert_eq!(json, "[[0.0,0.0],[0.5,1.0]]");
        assert_eq!(to_json(&[]), "[]");
    }

    /// The serializer before the digit writer: one `format!` per point.
    fn to_json_formatted(points: &[Point]) -> String {
        let mut s = String::with_capacity(points.len() * 16 + 2);
        s.push('[');
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{:.1},{:.1}]", p.x, p.y));
        }
        s.push(']');
        s
    }

    #[test]
    fn to_json_matches_the_formatter() {
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            2.5,
            -2.5,
            0.25,
            0.05,
            0.45,
            0.95,
            -0.04,
            1e300,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            HALF_STEP_LIMIT,
            -HALF_STEP_LIMIT,
            HALF_STEP_LIMIT - 0.5,
            -(HALF_STEP_LIMIT - 0.5),
            HALF_STEP_LIMIT * 2.0 + 2.0,
        ];
        let mut rng = SimRng::new(0x7050).stream("coords");
        for _ in 0..20_000 {
            let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
            // Half-steps anywhere up to ±2⁵², and in the squiggle range.
            values.push(sign * rng.gen_range(0..1u64 << 53) as f64 / 2.0);
            values.push(rng.gen_range(-40_000i64..40_000) as f64 / 2.0);
            // Arbitrary values, for the fallback.
            values.push(f64::from_bits(rng.gen()));
            values.push(rng.gen_range(-1e6..1e6));
        }
        for &v in &values {
            let mut s = String::new();
            push_coord(&mut s, v);
            assert_eq!(
                s,
                format!("{v:.1}"),
                "value {v:e} (bits {:#x})",
                v.to_bits()
            );
        }
        let points: Vec<Point> = values
            .chunks(2)
            .map(|c| Point { x: c[0], y: c[1] })
            .collect();
        assert_eq!(to_json(&points), to_json_formatted(&points));
        // A real plot, as the benchmark builds it.
        let seq: Vec<u8> = (0..30_000)
            .map(|_| b"ACGTN"[rng.gen_range(0..5usize)])
            .collect();
        let plot = downsample(&squiggle(&seq), 4000);
        assert_eq!(to_json(&plot), to_json_formatted(&plot));
    }

    #[test]
    fn benchmark_end_to_end() {
        let wl = DataVis::new(Language::Python);
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(31).stream("vis");
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let resp = wl.execute(&payload, &mut ctx).unwrap();
        // 40 ops per base, 6 per squiggle point (two per base plus one) and
        // one per response byte: all 10,000 bases were visualized.
        assert_eq!(
            ctx.counters().instructions,
            52 * 10_000 + 6 + resp.size_bytes()
        );
        assert!(store
            .size_of(BUCKET, "sequence.fasta.squiggle.json")
            .is_some());
        let json = std::str::from_utf8(resp.body().unwrap()).unwrap();
        assert!(json.starts_with("[[") && json.ends_with("]]"));
        // Response bounded by the plotting budget, not the input size.
        assert!(resp.size_bytes() < 100_000);
    }

    #[test]
    fn benchmark_rejects_empty_sequence() {
        let wl = DataVis::default();
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(31).stream("vis");
        store.create_bucket(BUCKET);
        store
            .put(
                &mut rng,
                BUCKET,
                INPUT_KEY,
                Bytes::from_static(b">header only"),
            )
            .unwrap();
        let payload = Payload::with_params(vec![
            ("bucket".into(), BUCKET.into()),
            ("key".into(), INPUT_KEY.into()),
        ]);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        assert!(matches!(
            wl.execute(&payload, &mut ctx),
            Err(WorkloadError::BadPayload(_))
        ));
    }

    #[test]
    fn squiggle_point_count_invariant() {
        const BASES: &[u8] = b"ACGTN";
        for case in 0..32u64 {
            let mut rng = SimRng::new(0x591661).child(case).stream("inputs");
            let seq: Vec<u8> = (0..rng.gen_range(0usize..500))
                .map(|_| BASES[rng.gen_range(0..BASES.len())])
                .collect();
            let pts = squiggle(&seq);
            assert_eq!(pts.len(), seq.len() * 2 + 1, "failing case seed {case}");
            // Final x equals the base count.
            if let Some(last) = pts.last() {
                assert!(
                    (last.x - seq.len() as f64).abs() < 1e-9,
                    "failing case seed {case}"
                );
            }
        }
    }

    #[test]
    fn downsample_respects_budget() {
        for case in 0..32u64 {
            let mut rng = SimRng::new(0xD095).child(case).stream("inputs");
            let n = rng.gen_range(2usize..1000);
            let budget = rng.gen_range(2usize..64);
            let seq: Vec<u8> = (0..n).map(|i| b"ACGT"[i % 4]).collect();
            let pts = squiggle(&seq);
            let out = downsample(&pts, budget);
            assert!(out.len() <= budget, "failing case seed {case}");
        }
    }
}
