//! `thumbnailer`: image down-scaling (paper Table 3, Multimedia; original
//! uses Pillow / sharp).
//!
//! Provides an in-memory RGB raster ([`RasterImage`]), a deterministic
//! synthetic photo generator, and bilinear resampling — the same kernel a
//! thumbnail service runs. The benchmark downloads the source image from
//! storage, scales it to a 200×200-bounded thumbnail, uploads the result
//! and returns the encoded thumbnail (≈3 kB, the response-size data point
//! the paper uses in its egress-cost analysis, §6.3 Q4).

use sebs_sim::bytes::Bytes;
use sebs_sim::rng::StreamRng;
use sebs_storage::ObjectStorage;

use crate::harness::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

/// An 8-bit RGB image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RasterImage {
    width: u32,
    height: u32,
    /// Row-major RGB triples.
    pixels: Vec<u8>,
}

impl RasterImage {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        RasterImage {
            width,
            height,
            pixels: vec![0; (width * height * 3) as usize],
        }
    }

    /// Generates a deterministic synthetic "photo": smooth gradients plus
    /// concentric rings, so that resampling has real structure to filter.
    pub fn synthetic(width: u32, height: u32) -> Self {
        let mut img = RasterImage::new(width, height);
        let (cx, cy) = (width as f32 / 2.0, height as f32 / 2.0);
        for y in 0..height {
            for x in 0..width {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                let dist = (dx * dx + dy * dy).sqrt();
                let ring = ((dist / 12.0).sin() * 0.5 + 0.5) * 255.0;
                let r = (x as f32 / width as f32 * 255.0) as u8;
                let g = (y as f32 / height as f32 * 255.0) as u8;
                let b = ring as u8;
                img.set(x, y, [r, g, b]);
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: u32, y: u32) -> [u8; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = ((y * self.width + x) * 3) as usize;
        [self.pixels[i], self.pixels[i + 1], self.pixels[i + 2]]
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: u32, y: u32, rgb: [u8; 3]) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = ((y * self.width + x) * 3) as usize;
        self.pixels[i..i + 3].copy_from_slice(&rgb);
    }

    /// Size of the raw pixel buffer in bytes.
    pub fn byte_len(&self) -> usize {
        self.pixels.len()
    }

    /// Bilinear resize to exactly `new_w × new_h`. Returns the resized
    /// image and the abstract work spent (≈ one unit per input tap).
    ///
    /// # Panics
    ///
    /// Panics if a target dimension is zero.
    pub fn resize_bilinear(&self, new_w: u32, new_h: u32) -> (RasterImage, u64) {
        assert!(new_w > 0 && new_h > 0, "target dimensions must be positive");
        let mut out = RasterImage::new(new_w, new_h);
        let stride = self.width as usize * 3;
        let cols = taps(self.width, new_w, 3);
        let rows = taps(self.height, new_h, stride);
        for (out_row, ty) in out.pixels.chunks_exact_mut(new_w as usize * 3).zip(&rows) {
            let top_row = &self.pixels[ty.lo..ty.lo + stride];
            let bot_row = &self.pixels[ty.hi..ty.hi + stride];
            for (rgb, tx) in out_row.chunks_exact_mut(3).zip(&cols) {
                let (p00, p10) = (&top_row[tx.lo..tx.lo + 3], &top_row[tx.hi..tx.hi + 3]);
                let (p01, p11) = (&bot_row[tx.lo..tx.lo + 3], &bot_row[tx.hi..tx.hi + 3]);
                for c in 0..3 {
                    let top = p00[c] as f32 * tx.keep + p10[c] as f32 * tx.frac;
                    let bot = p01[c] as f32 * tx.keep + p11[c] as f32 * tx.frac;
                    rgb[c] = round_channel(top * ty.keep + bot * ty.frac);
                }
            }
        }
        let work = 4 * 3 * new_w as u64 * new_h as u64;
        (out, work)
    }

    /// Fits the image inside `max_w × max_h` preserving aspect ratio
    /// (never upscales).
    pub fn thumbnail(&self, max_w: u32, max_h: u32) -> (RasterImage, u64) {
        let scale = (max_w as f32 / self.width as f32)
            .min(max_h as f32 / self.height as f32)
            .min(1.0);
        let w = ((self.width as f32 * scale).round() as u32).max(1);
        let h = ((self.height as f32 * scale).round() as u32).max(1);
        self.resize_bilinear(w, h)
    }

    /// Serializes as binary PPM (P6).
    pub fn encode_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.pixels);
        out
    }

    /// Parses a binary PPM (P6) produced by [`RasterImage::encode_ppm`].
    ///
    /// Returns `None` for malformed input.
    pub fn decode_ppm(data: &[u8]) -> Option<RasterImage> {
        if !data.starts_with(b"P6\n") {
            return None;
        }
        let rest = &data[3..];
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let dims = std::str::from_utf8(&rest[..nl]).ok()?;
        let mut parts = dims.split_whitespace();
        let width: u32 = parts.next()?.parse().ok()?;
        let height: u32 = parts.next()?.parse().ok()?;
        let rest = &rest[nl + 1..];
        let nl = rest.iter().position(|&b| b == b'\n')?;
        if &rest[..nl] != b"255" {
            return None;
        }
        let pixels = &rest[nl + 1..];
        let len = (width as usize)
            .checked_mul(height as usize)?
            .checked_mul(3)?;
        if width == 0 || height == 0 || pixels.len() != len {
            return None;
        }
        Some(RasterImage {
            width,
            height,
            pixels: pixels.to_vec(),
        })
    }

    /// Mean absolute per-channel difference against another image of the
    /// same dimensions; `None` on dimension mismatch. Used by tests to check
    /// resampling quality.
    pub fn mean_abs_diff(&self, other: &RasterImage) -> Option<f64> {
        if self.width != other.width || self.height != other.height {
            return None;
        }
        let total: u64 = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs() as u64)
            .sum();
        Some(total as f64 / self.pixels.len() as f64)
    }
}

/// One output coordinate's bilinear tap along an axis: the buffer offsets
/// of the two source samples it blends, and their weights.
#[derive(Debug)]
struct Tap {
    lo: usize,
    hi: usize,
    /// Weight of `hi`: the coordinate's distance past `lo`.
    frac: f32,
    /// Weight of `lo`: `1.0 - frac`.
    keep: f32,
}

/// The taps of each of `dst` output coordinates resampled from `src`
/// source samples that lie `unit` bytes apart, centre-aligned and clamped
/// to the edge.
fn taps(src: u32, dst: u32, unit: usize) -> Vec<Tap> {
    let scale = src as f32 / dst as f32;
    (0..dst)
        .map(|i| {
            let f = ((i as f32 + 0.5) * scale - 0.5).max(0.0);
            let lo = f.floor() as u32;
            let hi = (lo + 1).min(src - 1);
            let frac = f - lo as f32;
            Tap {
                lo: lo as usize * unit,
                hi: hi as usize * unit,
                frac,
                keep: 1.0 - frac,
            }
        })
        .collect()
}

/// `v.round().clamp(0.0, 255.0) as u8` for every `f32`, without the
/// out-of-line `roundf` call. For `0 ≤ v < 2³²` the truncating cast is
/// exact and so is `v - whole`, so adding one at a fraction of one half
/// or more rounds half away from zero, as `f32::round` does. Negative
/// values and NaN truncate to 0, and large values saturate, as the clamp
/// would leave them.
fn round_channel(v: f32) -> u8 {
    let whole = v as u32;
    let rounded = whole.saturating_add(u32::from(v - whole as f32 >= 0.5));
    rounded.min(255) as u8
}

/// Quantizes an RGB pixel to the 6×7×6 color cube (252 palette entries) —
/// shared by the thumbnailer's lossy output format and the GIF pipeline.
pub fn quantize_6x7x6(rgb: [u8; 3]) -> u8 {
    let r = rgb[0] as u32 * 6 / 256;
    let g = rgb[1] as u32 * 7 / 256;
    let b = rgb[2] as u32 * 6 / 256;
    (r * 42 + g * 6 + b) as u8
}

/// Encodes an image as a palette-quantized run-length stream (the lossy
/// few-kB thumbnail format; real services emit JPEG). Returns the bytes
/// and the per-pixel work spent.
pub fn encode_lossy_thumbnail(img: &RasterImage) -> (Vec<u8>, u64) {
    let mut out = Vec::with_capacity(64 + (img.width() * img.height()) as usize / 8);
    out.extend_from_slice(b"STMB");
    out.extend_from_slice(&img.width().to_le_bytes());
    out.extend_from_slice(&img.height().to_le_bytes());
    let mut work = 0u64;
    let mut run: Option<(u8, u16)> = None;
    for y in 0..img.height() {
        for x in 0..img.width() {
            let idx = quantize_6x7x6(img.get(x, y));
            work += 5;
            match &mut run {
                Some((last, n)) if *last == idx && *n < u16::MAX => *n += 1,
                _ => {
                    if let Some((last, n)) = run.take() {
                        out.push(last);
                        out.extend_from_slice(&n.to_le_bytes());
                    }
                    run = Some((idx, 1));
                }
            }
        }
    }
    if let Some((last, n)) = run {
        out.push(last);
        out.extend_from_slice(&n.to_le_bytes());
    }
    (out, work)
}

/// Decodes [`encode_lossy_thumbnail`] output into `(width, height,
/// palette_indices)`. Returns `None` on malformed input.
pub fn decode_lossy_thumbnail(data: &[u8]) -> Option<(u32, u32, Vec<u8>)> {
    if !data.starts_with(b"STMB") || data.len() < 12 {
        return None;
    }
    let w = u32::from_le_bytes(data[4..8].try_into().ok()?);
    let h = u32::from_le_bytes(data[8..12].try_into().ok()?);
    let total = (w as usize).checked_mul(h as usize)?;
    let (runs, rest) = data[12..].as_chunks::<3>();
    // A run covers at most u16::MAX pixels: a header claiming more than the
    // runs can cover is malformed, and is never reserved.
    if !rest.is_empty() || total > runs.len().saturating_mul(usize::from(u16::MAX)) {
        return None;
    }
    let mut pixels = Vec::with_capacity(total);
    for &[idx, lo, hi] in runs {
        pixels.extend(std::iter::repeat_n(
            idx,
            usize::from(u16::from_le_bytes([lo, hi])),
        ));
        if pixels.len() > total {
            return None;
        }
    }
    (pixels.len() == total).then_some((w, h, pixels))
}

/// Bucket holding thumbnailer inputs and outputs.
pub const BUCKET: &str = "thumbnailer-data";
/// Key of the source image uploaded at prepare time.
pub const INPUT_KEY: &str = "input.ppm";

/// The `thumbnailer` benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Thumbnailer {
    /// Language variant (the paper benchmarks both Python and Node.js).
    pub language: Language,
}

impl Thumbnailer {
    /// Creates the benchmark in the given language variant.
    pub fn new(language: Language) -> Self {
        Thumbnailer { language }
    }

    fn dims_for(scale: Scale) -> (u32, u32) {
        match scale {
            Scale::Test => (256, 192),
            Scale::Small => (1920, 1080),
            Scale::Large => (4096, 3072),
        }
    }
}

impl Workload for Thumbnailer {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "thumbnailer".into(),
            language: self.language,
            dependencies: vec![match self.language {
                Language::Python => "Pillow".into(),
                Language::NodeJs => "sharp".into(),
            }],
            code_package_bytes: 12_000_000,
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
        let (w, h) = Self::dims_for(scale);
        let img = RasterImage::synthetic(w, h);
        storage
            .put(rng, BUCKET, INPUT_KEY, Bytes::from(img.encode_ppm()))
            // audit:allow(panic-hygiene): the bucket is created two lines above in the same function
            .expect("bucket was just created");
        Payload::with_params(vec![
            ("bucket".into(), BUCKET.into()),
            ("key".into(), INPUT_KEY.into()),
            ("max".into(), "200".into()),
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
        let max: u32 = payload
            .param("max")
            .unwrap_or("200")
            .parse()
            .map_err(|e| WorkloadError::BadPayload(format!("bad `max`: {e}")))?;

        let data = ctx.storage_get(&bucket, &key)?;
        let img = RasterImage::decode_ppm(&data)
            .ok_or_else(|| WorkloadError::BadPayload("input is not a P6 PPM".into()))?;
        ctx.alloc(img.byte_len() as u64);
        // Decode cost: one unit per input byte.
        ctx.work(data.len() as u64);

        let (thumb, resize_work) = img.thumbnail(max, max);
        // Calibration to the interpreted original: Pillow's antialiased
        // down-scaling is a separable convolution over the *source* image
        // (~45 ops per input sample), plus per-output-tap costs. This lands
        // the 1080p input near Table 4's 404M instructions.
        let input_samples = img.width() as u64 * img.height() as u64 * 3;
        ctx.work(resize_work * 25 + input_samples * 45 + img.byte_len() as u64);
        ctx.alloc(thumb.byte_len() as u64);

        // Thumbnails ship lossy-compressed (the original emits JPEG); the
        // palette-RLE format keeps the response at the few-kB scale of the
        // paper's egress analysis (§6.3 Q4: ≈3 kB).
        let (packed, pack_work) = encode_lossy_thumbnail(&thumb);
        ctx.work(pack_work * 4);
        ctx.storage_put(
            &bucket,
            &format!("thumb-{key}"),
            Bytes::from(packed.clone()),
        )?;
        ctx.free((img.byte_len() + thumb.byte_len()) as u64);

        Ok(Response::new(packed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::rng::Rng;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    #[test]
    fn pixel_accessors() {
        let mut img = RasterImage::new(4, 3);
        img.set(2, 1, [10, 20, 30]);
        assert_eq!(img.get(2, 1), [10, 20, 30]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
        assert_eq!(img.byte_len(), 36);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        RasterImage::new(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = RasterImage::new(0, 5);
    }

    #[test]
    fn resize_preserves_constant_images() {
        let mut img = RasterImage::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, [100, 150, 200]);
            }
        }
        let (small, work) = img.resize_bilinear(16, 16);
        assert!(work > 0);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(small.get(x, y), [100, 150, 200]);
            }
        }
    }

    #[test]
    fn resize_identity_dimensions_close_to_original() {
        let img = RasterImage::synthetic(50, 40);
        let (same, _) = img.resize_bilinear(50, 40);
        let diff = img.mean_abs_diff(&same).unwrap();
        assert!(diff < 1.0, "identity resample should be near-exact: {diff}");
    }

    #[test]
    fn downscale_preserves_gradient_structure() {
        // Red grows along x in the synthetic image; the thumbnail must
        // preserve that monotone structure.
        let img = RasterImage::synthetic(400, 300);
        let (thumb, _) = img.thumbnail(100, 100);
        assert_eq!(thumb.width(), 100);
        assert_eq!(thumb.height(), 75);
        let left = thumb.get(5, 37)[0] as i32;
        let right = thumb.get(94, 37)[0] as i32;
        assert!(right - left > 100, "left {left} right {right}");
    }

    #[test]
    fn thumbnail_never_upscales() {
        let img = RasterImage::synthetic(50, 30);
        let (thumb, _) = img.thumbnail(200, 200);
        assert_eq!((thumb.width(), thumb.height()), (50, 30));
    }

    #[test]
    fn ppm_round_trip() {
        let img = RasterImage::synthetic(31, 17);
        let encoded = img.encode_ppm();
        let decoded = RasterImage::decode_ppm(&encoded).unwrap();
        assert_eq!(decoded, img);
    }

    #[test]
    fn ppm_rejects_malformed() {
        assert!(RasterImage::decode_ppm(b"P5\n1 1\n255\nxxx").is_none());
        assert!(RasterImage::decode_ppm(b"P6\n2 2\n255\nshort").is_none());
        assert!(RasterImage::decode_ppm(b"P6\nbad dims\n255\n").is_none());
        assert!(RasterImage::decode_ppm(b"").is_none());
    }

    #[test]
    fn lossy_thumbnail_round_trip() {
        let img = RasterImage::synthetic(123, 45);
        let (packed, work) = encode_lossy_thumbnail(&img);
        assert!(work >= 123 * 45);
        let (w, h, pixels) = decode_lossy_thumbnail(&packed).unwrap();
        assert_eq!((w, h), (123, 45));
        assert_eq!(pixels.len(), 123 * 45);
        // Indices match a direct quantization pass.
        assert_eq!(pixels[0], quantize_6x7x6(img.get(0, 0)));
        // Malformed inputs are rejected.
        assert!(decode_lossy_thumbnail(b"nope").is_none());
        assert!(decode_lossy_thumbnail(&packed[..packed.len() - 1]).is_none());
    }

    #[test]
    fn ppm_header_whose_size_wraps_is_rejected() {
        // 65536 × 65536 × 3 wraps a u32 to 0, the pixel bytes given here.
        assert_eq!(RasterImage::decode_ppm(b"P6\n65536 65536\n255\n"), None);
    }

    #[test]
    fn lossy_header_larger_than_its_runs_is_rejected() {
        let mut data = b"STMB".to_vec();
        data.extend_from_slice(&65536u32.to_le_bytes());
        data.extend_from_slice(&65536u32.to_le_bytes());
        assert_eq!(decode_lossy_thumbnail(&data), None);
        // Runs that overshoot the header's pixel count.
        let mut data = b"STMB".to_vec();
        data.extend_from_slice(&2u32.to_le_bytes());
        data.extend_from_slice(&1u32.to_le_bytes());
        data.extend_from_slice(&[9, 3, 0]);
        assert_eq!(decode_lossy_thumbnail(&data), None);
    }

    #[test]
    fn mean_abs_diff_dimension_mismatch() {
        let a = RasterImage::new(2, 2);
        let b = RasterImage::new(3, 2);
        assert!(a.mean_abs_diff(&b).is_none());
    }

    #[test]
    fn benchmark_end_to_end() {
        let wl = Thumbnailer::new(Language::Python);
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(4).stream("thumb");
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let resp = wl.execute(&payload, &mut ctx).unwrap();
        let (w, h, pixels) = decode_lossy_thumbnail(resp.body().unwrap()).unwrap();
        assert!(w <= 200 && h <= 200);
        assert_eq!(pixels.len(), (w * h) as usize);
        assert_eq!(ctx.counters().storage_requests, 2, "one get, one put");
        assert!(ctx.counters().instructions > 0);
        // The output object landed in storage.
        assert!(store.size_of(BUCKET, "thumb-input.ppm").is_some());
    }

    #[test]
    fn benchmark_response_is_kilobytes() {
        // Paper §6.3 Q4: thumbnailer sends back ≈3 kB.
        let wl = Thumbnailer::new(Language::Python);
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(4).stream("thumb");
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let resp = wl.execute(&payload, &mut ctx).unwrap();
        assert!(resp.size_bytes() < 30_000, "lossy thumbnail stays small");
        assert!(resp.size_bytes() > 500);
    }

    #[test]
    fn missing_input_is_storage_error() {
        let wl = Thumbnailer::default();
        let mut store = SimObjectStore::local_minio_model();
        store.create_bucket(BUCKET);
        let mut rng = SimRng::new(4).stream("thumb");
        let payload = Payload::with_params(vec![
            ("bucket".into(), BUCKET.into()),
            ("key".into(), "absent.ppm".into()),
        ]);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        assert!(matches!(
            wl.execute(&payload, &mut ctx),
            Err(WorkloadError::Storage(_))
        ));
    }

    /// The resampler before the hoisted taps: per output pixel, both
    /// coordinates, twelve `get` calls and three `f32::round` calls.
    fn resize_by_pixel(img: &RasterImage, new_w: u32, new_h: u32) -> RasterImage {
        let mut out = RasterImage::new(new_w, new_h);
        let sx = img.width as f32 / new_w as f32;
        let sy = img.height as f32 / new_h as f32;
        for y in 0..new_h {
            for x in 0..new_w {
                let fx = ((x as f32 + 0.5) * sx - 0.5).max(0.0);
                let fy = ((y as f32 + 0.5) * sy - 0.5).max(0.0);
                let x0 = fx.floor() as u32;
                let y0 = fy.floor() as u32;
                let x1 = (x0 + 1).min(img.width - 1);
                let y1 = (y0 + 1).min(img.height - 1);
                let tx = fx - x0 as f32;
                let ty = fy - y0 as f32;
                let mut rgb = [0u8; 3];
                for (c, out) in rgb.iter_mut().enumerate() {
                    let p00 = img.get(x0, y0)[c] as f32;
                    let p10 = img.get(x1, y0)[c] as f32;
                    let p01 = img.get(x0, y1)[c] as f32;
                    let p11 = img.get(x1, y1)[c] as f32;
                    let top = p00 * (1.0 - tx) + p10 * tx;
                    let bot = p01 * (1.0 - tx) + p11 * tx;
                    *out = (top * (1.0 - ty) + bot * ty).round().clamp(0.0, 255.0) as u8;
                }
                out.set(x, y, rgb);
            }
        }
        out
    }

    #[test]
    fn resize_matches_the_per_pixel_resampler() {
        let mut sizes = vec![
            (256, 192, 200, 150),
            (640, 360, 200, 113),
            (1, 1, 1, 1),
            (1, 7, 5, 1),
            (3, 2, 9, 8),
        ];
        for case in 0..48u64 {
            let mut rng = SimRng::new(0xB11).child(case).stream("sizes");
            let mut side = || rng.gen_range(1u32..160);
            sizes.push((side(), side(), side(), side()));
        }
        for (n, &(w, h, nw, nh)) in sizes.iter().enumerate() {
            // Random pixels, so every channel blends unrelated values.
            let mut rng = SimRng::new(0xB11).child(n as u64).stream("pixels");
            let img = RasterImage {
                width: w,
                height: h,
                pixels: (0..w * h * 3).map(|_| rng.gen()).collect(),
            };
            let (fast, work) = img.resize_bilinear(nw, nh);
            assert_eq!(fast, resize_by_pixel(&img, nw, nh), "{w}x{h} -> {nw}x{nh}");
            assert_eq!(work, 12 * nw as u64 * nh as u64);
            let smooth = RasterImage::synthetic(w, h);
            assert_eq!(
                smooth.resize_bilinear(nw, nh).0,
                resize_by_pixel(&smooth, nw, nh),
                "synthetic {w}x{h} -> {nw}x{nh}"
            );
        }
    }

    #[test]
    fn resize_output_dimensions() {
        for case in 0..16u64 {
            let mut rng = SimRng::new(0x1396).child(case).stream("inputs");
            let (w, h) = (rng.gen_range(1u32..80), rng.gen_range(1u32..80));
            let (nw, nh) = (rng.gen_range(1u32..80), rng.gen_range(1u32..80));
            let img = RasterImage::synthetic(w, h);
            let (out, _) = img.resize_bilinear(nw, nh);
            assert_eq!(out.width(), nw, "failing case seed {case}");
            assert_eq!(out.height(), nh, "failing case seed {case}");
        }
    }

    #[test]
    fn ppm_round_trips_any_size() {
        for case in 0..16u64 {
            let mut rng = SimRng::new(0x99E0).child(case).stream("inputs");
            let (w, h) = (rng.gen_range(1u32..40), rng.gen_range(1u32..40));
            let img = RasterImage::synthetic(w, h);
            let back = RasterImage::decode_ppm(&img.encode_ppm()).unwrap();
            assert_eq!(back, img, "failing case seed {case}");
        }
    }
}
