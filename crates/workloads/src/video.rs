//! `video-processing`: watermark a video and convert it to a GIF (paper
//! Table 3, Multimedia; the original shells out to a static ffmpeg build —
//! the only non-pip dependency in the suite).
//!
//! The kernel reproduces the same pipeline natively: decode a synthetic
//! clip frame-by-frame, alpha-blend a watermark onto every frame, quantize
//! each frame to a 252-color palette (a 6×7×6 RGB cube) and run-length
//! encode the index stream — the computational shape of a palette GIF
//! encoder. Table 4 lists this as the longest-running local benchmark
//! (≈1.5 s warm), dominated by per-pixel work.

use sebs_sim::bytes::Bytes;
use sebs_sim::rng::StreamRng;
use sebs_storage::ObjectStorage;

use crate::harness::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};
use crate::image::RasterImage;

/// A decoded video clip: fixed-rate frames of equal dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clip {
    frames: Vec<RasterImage>,
    fps: u32,
}

impl Clip {
    /// Generates a deterministic synthetic clip: the ring pattern of
    /// [`RasterImage::synthetic`] panning horizontally over time.
    ///
    /// # Panics
    ///
    /// Panics if any dimension, the frame count or fps is zero.
    pub fn synthetic(width: u32, height: u32, frames: usize, fps: u32) -> Clip {
        assert!(frames > 0 && fps > 0, "clip must have frames and a rate");
        let base = RasterImage::synthetic(width * 2, height);
        let frames = (0..frames)
            .map(|f| {
                let shift = (f as u32 * 3) % width;
                let mut img = RasterImage::new(width, height);
                for y in 0..height {
                    for x in 0..width {
                        img.set(x, y, base.get(x + shift, y));
                    }
                }
                img
            })
            .collect();
        Clip { frames, fps }
    }

    /// The frames.
    pub fn frames(&self) -> &[RasterImage] {
        &self.frames
    }

    /// Frames per second.
    pub fn fps(&self) -> u32 {
        self.fps
    }

    /// Clip duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / self.fps as f64
    }
}

/// Alpha-blends `mark` onto `frame` at `(ox, oy)` with the given opacity
/// (0–255). Pixels outside the frame are clipped. Returns work units
/// (per blended pixel-channel).
pub fn watermark(frame: &mut RasterImage, mark: &RasterImage, ox: u32, oy: u32, alpha: u8) -> u64 {
    let a = alpha as u32;
    let mut work = 0u64;
    for my in 0..mark.height() {
        for mx in 0..mark.width() {
            let (x, y) = (ox + mx, oy + my);
            if x >= frame.width() || y >= frame.height() {
                continue;
            }
            let f = frame.get(x, y);
            let m = mark.get(mx, my);
            let mut out = [0u8; 3];
            for c in 0..3 {
                out[c] = ((m[c] as u32 * a + f[c] as u32 * (255 - a)) / 255) as u8;
            }
            frame.set(x, y, out);
            work += 3;
        }
    }
    work
}

/// A palette-quantized, run-length-encoded animation — the GIF stand-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PalettedAnimation {
    /// Frame dimensions.
    pub width: u32,
    /// Frame dimensions.
    pub height: u32,
    /// RLE runs per frame: `(palette_index, run_length)`.
    pub frames: Vec<Vec<(u8, u16)>>,
}

impl PalettedAnimation {
    /// Total encoded size in bytes (3 bytes per run plus a small header).
    pub fn encoded_bytes(&self) -> usize {
        16 + self.frames.iter().map(|f| 4 + 3 * f.len()).sum::<usize>()
    }

    /// Serializes to a compact byte stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_bytes());
        out.extend_from_slice(b"SGIF");
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for frame in &self.frames {
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            for &(idx, run) in frame {
                out.push(idx);
                out.extend_from_slice(&run.to_le_bytes());
            }
        }
        out
    }
}

pub use crate::image::quantize_6x7x6;

/// Encodes a clip as a paletted RLE animation, returning work units.
pub fn encode_gif_like(clip: &Clip) -> (PalettedAnimation, u64) {
    let mut work = 0u64;
    let mut frames = Vec::with_capacity(clip.frames().len());
    for img in clip.frames() {
        let mut runs: Vec<(u8, u16)> = Vec::new();
        for y in 0..img.height() {
            for x in 0..img.width() {
                let idx = quantize_6x7x6(img.get(x, y));
                work += 4;
                match runs.last_mut() {
                    Some((last, run)) if *last == idx && *run < u16::MAX => *run += 1,
                    _ => runs.push((idx, 1)),
                }
            }
        }
        frames.push(runs);
    }
    let (w, h) = (clip.frames()[0].width(), clip.frames()[0].height());
    (
        PalettedAnimation {
            width: w,
            height: h,
            frames,
        },
        work,
    )
}

/// Bucket for video inputs/outputs.
pub const BUCKET: &str = "video-data";
/// Input object key.
pub const INPUT_KEY: &str = "input.clip";

/// The `video-processing` benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct VideoProcessing {
    /// Language variant (the original is Python + ffmpeg).
    pub language: Language,
}

impl VideoProcessing {
    /// Creates the benchmark.
    pub fn new(language: Language) -> Self {
        VideoProcessing { language }
    }

    fn clip_for(scale: Scale) -> (u32, u32, usize) {
        match scale {
            Scale::Test => (96, 54, 12),
            Scale::Small => (480, 270, 60),
            Scale::Large => (1280, 720, 120),
        }
    }

    fn serialize_clip(clip: &Clip) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"CLIP");
        out.extend_from_slice(&clip.fps().to_le_bytes());
        out.extend_from_slice(&(clip.frames().len() as u32).to_le_bytes());
        for f in clip.frames() {
            out.extend_from_slice(&f.encode_ppm());
        }
        out
    }

    fn deserialize_clip(data: &[u8]) -> Option<Clip> {
        if !data.starts_with(b"CLIP") || data.len() < 12 {
            return None;
        }
        let fps = u32::from_le_bytes(data[4..8].try_into().ok()?);
        let count = u32::from_le_bytes(data[8..12].try_into().ok()?) as usize;
        let mut rest = &data[12..];
        // A frame is at least a `P6\n` tag, so the input bounds the count.
        let mut frames = Vec::with_capacity(count.min(rest.len() / 3));
        for _ in 0..count {
            // Each PPM is self-delimiting: its header tells the total size.
            let size = parse_ppm_header(rest)?;
            if size > rest.len() {
                return None;
            }
            let img = RasterImage::decode_ppm(&rest[..size])?;
            frames.push(img);
            rest = &rest[size..];
        }
        if fps == 0 || frames.is_empty() {
            return None;
        }
        Some(Clip { frames, fps })
    }
}

/// Total byte length of the P6 PPM starting at the beginning of `data`.
fn parse_ppm_header(data: &[u8]) -> Option<usize> {
    if !data.starts_with(b"P6\n") {
        return None;
    }
    let rest = &data[3..];
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let dims = std::str::from_utf8(&rest[..nl]).ok()?;
    let mut parts = dims.split_whitespace();
    let w: usize = parts.next()?.parse().ok()?;
    let h: usize = parts.next()?.parse().ok()?;
    let nl2 = rest[nl + 1..].iter().position(|&b| b == b'\n')?;
    let header = 3 + nl + 1 + nl2 + 1;
    w.checked_mul(h)?.checked_mul(3)?.checked_add(header)
}

impl Workload for VideoProcessing {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "video-processing".into(),
            language: self.language,
            dependencies: vec!["ffmpeg".into()],
            code_package_bytes: 65_000_000, // static ffmpeg build
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
        let (w, h, frames) = Self::clip_for(scale);
        let clip = Clip::synthetic(w, h, frames, 24);
        storage
            .put(
                rng,
                BUCKET,
                INPUT_KEY,
                Bytes::from(Self::serialize_clip(&clip)),
            )
            // audit:allow(panic-hygiene): the bucket is created two lines above in the same function
            .expect("bucket was just created");
        Payload::with_params(vec![
            ("bucket".into(), BUCKET.into()),
            ("key".into(), INPUT_KEY.into()),
            ("watermark-alpha".into(), "160".into()),
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
        let alpha: u8 = payload
            .param("watermark-alpha")
            .unwrap_or("128")
            .parse()
            .map_err(|e| WorkloadError::BadPayload(format!("bad alpha: {e}")))?;

        let data = ctx.storage_get(&bucket, &key)?;
        let mut clip = Self::deserialize_clip(&data)
            .ok_or_else(|| WorkloadError::BadPayload("input is not a CLIP stream".into()))?;
        ctx.alloc(data.len() as u64);
        ctx.work(data.len() as u64 / 4); // demux/decode pass

        // Watermark: a 1/5-width logo in the bottom-right corner.
        let logo_w = (clip.frames()[0].width() / 5).max(1);
        let logo_h = (clip.frames()[0].height() / 5).max(1);
        let logo = RasterImage::synthetic(logo_w, logo_h);
        let (fw, fh) = (clip.frames()[0].width(), clip.frames()[0].height());
        let (ox, oy) = (fw - logo_w.min(fw), fh - logo_h.min(fh));
        let mut blend_work = 0u64;
        for frame in &mut clip.frames {
            blend_work += watermark(frame, &logo, ox, oy, alpha);
        }
        ctx.work(blend_work * 6);

        let (anim, enc_work) = encode_gif_like(&clip);
        ctx.work(enc_work * 6);
        let gif = anim.encode();
        ctx.alloc(gif.len() as u64);
        ctx.storage_put(&bucket, &format!("{key}.gif"), Bytes::from(gif.clone()))?;
        ctx.free((data.len() + gif.len()) as u64);

        Ok(Response::new(format!(
            "{{\"frames\":{},\"gif_bytes\":{}}}",
            clip.frames().len(),
            gif.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    #[test]
    fn synthetic_clip_shape() {
        let c = Clip::synthetic(32, 16, 5, 10);
        assert_eq!(c.frames().len(), 5);
        assert_eq!(c.fps(), 10);
        assert_eq!(c.duration_secs(), 0.5);
        assert_eq!(c.frames()[0].width(), 32);
        // Panning: consecutive frames differ.
        assert_ne!(c.frames()[0], c.frames()[1]);
    }

    #[test]
    fn watermark_blends_and_clips() {
        let mut frame = RasterImage::new(10, 10); // black
        let mut mark = RasterImage::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                mark.set(x, y, [255, 255, 255]);
            }
        }
        // Fully opaque: white square appears.
        let work = watermark(&mut frame, &mark, 8, 8, 255);
        assert_eq!(frame.get(9, 9), [255, 255, 255]);
        assert_eq!(frame.get(0, 0), [0, 0, 0]);
        // Only the 2x2 in-bounds corner was blended.
        assert_eq!(work, 2 * 2 * 3);
        // Half alpha on black halves the mark.
        let mut frame2 = RasterImage::new(4, 4);
        watermark(&mut frame2, &mark, 0, 0, 128);
        let v = frame2.get(1, 1)[0];
        assert!((127..=129).contains(&v), "got {v}");
    }

    #[test]
    fn quantizer_covers_palette_range() {
        assert_eq!(quantize_6x7x6([0, 0, 0]), 0);
        assert_eq!(quantize_6x7x6([255, 255, 255]), 251);
        // Monotone in each channel.
        assert!(quantize_6x7x6([200, 0, 0]) > quantize_6x7x6([10, 0, 0]));
    }

    #[test]
    fn gif_rle_is_compact_for_flat_frames() {
        let mut img = RasterImage::new(100, 100);
        for y in 0..100 {
            for x in 0..100 {
                img.set(x, y, [10, 10, 10]);
            }
        }
        let clip = Clip {
            frames: vec![img],
            fps: 1,
        };
        let (anim, work) = encode_gif_like(&clip);
        assert_eq!(anim.frames[0].len(), 1, "one run for a flat frame");
        assert_eq!(anim.frames[0][0].1, 10_000);
        assert!(work >= 4 * 10_000);
        assert!(anim.encoded_bytes() < 64);
        let encoded = anim.encode();
        assert!(encoded.starts_with(b"SGIF"));
    }

    #[test]
    fn rle_run_lengths_sum_to_pixels() {
        let clip = Clip::synthetic(48, 27, 3, 24);
        let (anim, _) = encode_gif_like(&clip);
        for frame in &anim.frames {
            let total: u64 = frame.iter().map(|&(_, r)| r as u64).sum();
            assert_eq!(total, 48 * 27);
        }
    }

    #[test]
    fn clip_serialization_round_trip() {
        let clip = Clip::synthetic(20, 12, 4, 24);
        let data = VideoProcessing::serialize_clip(&clip);
        let back = VideoProcessing::deserialize_clip(&data).unwrap();
        assert_eq!(back, clip);
    }

    #[test]
    fn clip_deserialize_rejects_garbage() {
        assert!(VideoProcessing::deserialize_clip(b"").is_none());
        assert!(VideoProcessing::deserialize_clip(b"CLIPxxxx").is_none());
        let clip = Clip::synthetic(8, 8, 2, 24);
        let mut data = VideoProcessing::serialize_clip(&clip);
        data.truncate(data.len() - 10);
        assert!(VideoProcessing::deserialize_clip(&data).is_none());
    }

    #[test]
    fn clip_headers_claiming_more_than_the_input_are_rejected() {
        // u32::MAX frames in an empty body.
        let mut data = b"CLIP".to_vec();
        data.extend_from_slice(&24u32.to_le_bytes());
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(VideoProcessing::deserialize_clip(&data).is_none());
        // One frame whose size overflows usize.
        let mut data = b"CLIP".to_vec();
        data.extend_from_slice(&24u32.to_le_bytes());
        data.extend_from_slice(&1u32.to_le_bytes());
        data.extend_from_slice(format!("P6\n{0} {0}\n255\n", usize::MAX / 2).as_bytes());
        assert!(VideoProcessing::deserialize_clip(&data).is_none());
    }

    #[test]
    fn benchmark_end_to_end() {
        let wl = VideoProcessing::new(Language::Python);
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(21).stream("vid");
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let resp = wl.execute(&payload, &mut ctx).unwrap();
        let body = std::str::from_utf8(resp.body().unwrap()).unwrap();
        assert!(body.starts_with("{\"frames\":12,"), "{body}");
        // Per-pixel pipeline: instructions dominate storage traffic.
        let c = ctx.counters();
        let _ = ctx;
        assert!(store.size_of(BUCKET, "input.clip.gif").is_some());
        assert!(c.instructions > c.storage_bytes_read);
        assert_eq!(c.storage_requests, 2);
    }

    #[test]
    fn deeper_scale_means_more_work() {
        let wl = VideoProcessing::default();
        let run = |scale| {
            let mut store = SimObjectStore::local_minio_model();
            let mut rng = SimRng::new(21).stream("vid");
            let payload = wl.prepare(scale, &mut rng, &mut store);
            let mut ctx = InvocationCtx::new(&mut store, &mut rng);
            wl.execute(&payload, &mut ctx).unwrap();
            ctx.counters().instructions
        };
        assert!(run(Scale::Small) > 20 * run(Scale::Test));
    }
}
