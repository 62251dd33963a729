//! Golden outputs of every paper kernel at `Scale::Test`.
//!
//! Each `all_workloads()` entry gets a seeded `prepare` and then two
//! `execute` calls on the same store and RNG stream. Every observable of
//! each call is pinned: the response size and the FNV-1a of its body, the
//! work counters, the simulated I/O time, the tracked peak allocation, and
//! the store's size after the call. A kernel rewrite must leave all of
//! them unchanged; the platform turns exactly these values into time,
//! memory and cost, so a moved constant is a moved result.

use sebs_sim::{fnv1a, SimRng};
use sebs_storage::SimObjectStore;
use sebs_workloads::{all_workloads, InvocationCtx, Scale};

/// One `execute` call's observables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Call {
    size: u64,
    body_fnv: u64,
    instructions: u64,
    bytes_read: u64,
    bytes_written: u64,
    requests: u64,
    io_ns: u64,
    peak_alloc: u64,
    stored_bytes: u64,
}

/// `(name, language, [first call, second call])`, in `all_workloads()` order.
type Golden = (&'static str, &'static str, [Call; 2]);

#[allow(clippy::too_many_arguments)]
const fn call(
    size: u64,
    body_fnv: u64,
    instructions: u64,
    bytes_read: u64,
    bytes_written: u64,
    requests: u64,
    io_ns: u64,
    peak_alloc: u64,
    stored_bytes: u64,
) -> Call {
    Call {
        size,
        body_fnv,
        instructions,
        bytes_read,
        bytes_written,
        requests,
        io_ns,
        peak_alloc,
        stored_bytes,
    }
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("dynamic-html", "python", [
        call(3317, 0xf742659ddd39162d, 546536, 0, 0, 0, 0, 5717, 0),
        call(3323, 0xf3dabc1e1759f869, 547256, 0, 0, 0, 0, 5723, 0),
    ]),
    ("dynamic-html", "nodejs", [
        call(3325, 0xa272e7a602bdced4, 547496, 0, 0, 0, 0, 5725, 0),
        call(3320, 0x609731db36815b3f, 546896, 0, 0, 0, 0, 5720, 0),
    ]),
    ("uploader", "python", [
        call(114, 0x0176d921398f5341, 1114112, 0, 65536, 1, 3221969, 65536, 65536),
        call(114, 0xec60cf83a2e00b96, 1114112, 0, 65536, 1, 2886116, 65536, 65536),
    ]),
    ("uploader", "nodejs", [
        call(114, 0x148392244055595b, 1114112, 0, 65536, 1, 2866965, 65536, 65536),
        call(114, 0x0afb05113d250511, 1114112, 0, 65536, 1, 3142883, 65536, 65536),
    ]),
    ("thumbnailer", "python", [
        call(13203, 0xf24c556b6147a1e1, 16530447, 147471, 13203, 2, 3363720, 237456, 160674),
        call(13203, 0xf24c556b6147a1e1, 16530447, 147471, 13203, 2, 2422592, 237456, 160674),
    ]),
    ("thumbnailer", "nodejs", [
        call(13203, 0xf24c556b6147a1e1, 16530447, 147471, 13203, 2, 2997954, 237456, 160674),
        call(13203, 0xf24c556b6147a1e1, 16530447, 147471, 13203, 2, 2875521, 237456, 160674),
    ]),
    ("video-processing", "python", [
        call(31, 0x2b3efad9dc92e208, 1580730, 186792, 27160, 2, 2766793, 213952, 213952),
        call(31, 0x2b3efad9dc92e208, 1580730, 186792, 27160, 2, 2921630, 213952, 213952),
    ]),
    ("compression", "python", [
        call(50, 0xf112c784dca7e84d, 24609510, 65536, 5283, 17, 24103123, 38315, 38051),
        call(50, 0xf112c784dca7e84d, 24609510, 65536, 5283, 17, 23310764, 38315, 38051),
    ]),
    ("data-vis", "python", [
        call(58117, 0xb4ba69ecb4f22629, 578123, 10030, 58117, 2, 2709211, 330046, 68147),
        call(58117, 0xb4ba69ecb4f22629, 578123, 10030, 58117, 2, 2526405, 330046, 68147),
    ]),
    ("image-recognition", "python", [
        call(40, 0x7290a7b57f115c29, 12877133, 2003085, 0, 2, 5198368, 2012288, 2003085),
        call(40, 0x7290a7b57f115c29, 12877133, 2003085, 0, 2, 4678736, 2012288, 2003085),
    ]),
    ("graph-pagerank", "python", [
        call(115, 0xd0af69f89447f7c1, 934912, 0, 0, 0, 0, 71688, 0),
        call(114, 0x6b3d7c9739a18076, 934912, 0, 0, 0, 0, 71688, 0),
    ]),
    ("graph-mst", "python", [
        call(42, 0x9abd9d90a5950b1f, 590592, 0, 0, 0, 0, 116744, 0),
        call(42, 0xe9584da2c2821f2d, 590592, 0, 0, 0, 0, 116744, 0),
    ]),
    ("graph-bfs", "python", [
        call(1024, 0x7c4a2ef570aa6c9c, 243118, 0, 0, 0, 0, 83976, 0),
        call(1024, 0x94dedcfb0bccbd46, 244198, 0, 0, 0, 0, 83976, 0),
    ]),
];

fn observe() -> Vec<(String, String, [Call; 2])> {
    all_workloads()
        .into_iter()
        .map(|r| {
            let spec = r.workload.spec();
            let mut store = SimObjectStore::local_minio_model();
            let mut rng =
                SimRng::new(2021).stream(&format!("golden/{}/{}", spec.name, spec.language));
            let payload = r.workload.prepare(Scale::Test, &mut rng, &mut store);
            let mut calls = [call(0, 0, 0, 0, 0, 0, 0, 0, 0); 2];
            for slot in &mut calls {
                let mut ctx = InvocationCtx::new(&mut store, &mut rng);
                let resp = r
                    .workload
                    .execute(&payload, &mut ctx)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name));
                let c = ctx.counters();
                let (io_ns, peak_alloc) = (ctx.io_time().as_nanos(), ctx.peak_alloc_bytes());
                *slot = call(
                    resp.size_bytes(),
                    resp.body().map_or(0, fnv1a),
                    c.instructions,
                    c.storage_bytes_read,
                    c.storage_bytes_written,
                    c.storage_requests,
                    io_ns,
                    peak_alloc,
                    store.stored_bytes(),
                );
            }
            (spec.name, spec.language.to_string(), calls)
        })
        .collect()
}

/// The observed table in `GOLDEN`'s layout, printed when a row moves.
fn render(rows: &[(String, String, [Call; 2])]) -> String {
    let mut out = String::new();
    for (name, lang, calls) in rows {
        out.push_str(&format!("    ({name:?}, {lang:?}, [\n"));
        for c in calls {
            out.push_str(&format!(
                "        call({}, {:#018x}, {}, {}, {}, {}, {}, {}, {}),\n",
                c.size,
                c.body_fnv,
                c.instructions,
                c.bytes_read,
                c.bytes_written,
                c.requests,
                c.io_ns,
                c.peak_alloc,
                c.stored_bytes
            ));
        }
        out.push_str("    ]),\n");
    }
    out
}

#[test]
fn every_kernel_matches_its_golden_outputs() {
    let got = observe();
    let table = render(&got);
    assert_eq!(got.len(), GOLDEN.len(), "observed table:\n{table}");
    for ((name, lang, calls), (want_name, want_lang, want)) in got.iter().zip(GOLDEN) {
        assert_eq!((name.as_str(), lang.as_str()), (*want_name, *want_lang));
        assert_eq!(
            calls, want,
            "{name} ({lang}) moved; observed table:\n{table}"
        );
    }
}
