//! The benchmark registry — the machine-readable version of the paper's
//! Table 3.

use std::fmt;

use crate::compress::Compression;
use crate::graph::{GraphBfs, GraphMst, GraphPagerank};
use crate::harness::{Language, Workload};
use crate::image::Thumbnailer;
use crate::inference::ImageRecognition;
use crate::squiggle::DataVis;
use crate::templating::DynamicHtml;
use crate::uploader::Uploader;
use crate::video::VideoProcessing;

/// Application categories from Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Website backends.
    Webapps,
    /// Image and video processing.
    Multimedia,
    /// Backend processing tools.
    Utilities,
    /// Machine-learning inference.
    Inference,
    /// Irregular graph computations.
    Scientific,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Webapps => "Webapps",
            Category::Multimedia => "Multimedia",
            Category::Utilities => "Utilities",
            Category::Inference => "Inference",
            Category::Scientific => "Scientific",
        };
        f.write_str(s)
    }
}

/// A registry entry: category plus the constructed benchmark.
pub struct RegisteredWorkload {
    /// Table 3 category.
    pub category: Category,
    /// The benchmark implementation.
    pub workload: Box<dyn Workload + Send + Sync>,
}

impl fmt::Debug for RegisteredWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisteredWorkload")
            .field("category", &self.category)
            .field("name", &self.workload.spec().name)
            .field("language", &self.workload.spec().language)
            .finish()
    }
}

/// All benchmarks of the suite, in Table 3 order (language variants
/// included — 13 rows, matching the paper's table).
pub fn all_workloads() -> Vec<RegisteredWorkload> {
    vec![
        entry(Category::Webapps, DynamicHtml::new(Language::Python)),
        entry(Category::Webapps, DynamicHtml::new(Language::NodeJs)),
        entry(Category::Webapps, Uploader::new(Language::Python)),
        entry(Category::Webapps, Uploader::new(Language::NodeJs)),
        entry(Category::Multimedia, Thumbnailer::new(Language::Python)),
        entry(Category::Multimedia, Thumbnailer::new(Language::NodeJs)),
        entry(Category::Multimedia, VideoProcessing::new(Language::Python)),
        entry(Category::Utilities, Compression::new(Language::Python)),
        entry(Category::Utilities, DataVis::new(Language::Python)),
        entry(Category::Inference, ImageRecognition::new(Language::Python)),
        entry(Category::Scientific, GraphPagerank::new(Language::Python)),
        entry(Category::Scientific, GraphMst::new(Language::Python)),
        entry(Category::Scientific, GraphBfs::new(Language::Python)),
    ]
}

fn entry<W: Workload + Send + Sync + 'static>(
    category: Category,
    workload: W,
) -> RegisteredWorkload {
    RegisteredWorkload {
        category,
        workload: Box::new(workload),
    }
}

/// Looks up a benchmark by name and language.
pub fn workload_by_name(name: &str, language: Language) -> Option<Box<dyn Workload + Send + Sync>> {
    all_workloads()
        .into_iter()
        .find(|r| {
            let spec = r.workload.spec();
            spec.name == name && spec.language == language
        })
        .map(|r| r.workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use crate::InvocationCtx;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    #[test]
    fn thirteen_rows_like_table3() {
        assert_eq!(all_workloads().len(), 13);
    }

    #[test]
    fn names_and_categories_match_the_paper() {
        let names: Vec<(Category, String)> = all_workloads()
            .iter()
            .map(|r| (r.category, r.workload.spec().name))
            .collect();
        assert!(names.contains(&(Category::Webapps, "dynamic-html".into())));
        assert!(names.contains(&(Category::Webapps, "uploader".into())));
        assert!(names.contains(&(Category::Multimedia, "thumbnailer".into())));
        assert!(names.contains(&(Category::Multimedia, "video-processing".into())));
        assert!(names.contains(&(Category::Utilities, "compression".into())));
        assert!(names.contains(&(Category::Utilities, "data-vis".into())));
        assert!(names.contains(&(Category::Inference, "image-recognition".into())));
        assert!(names.contains(&(Category::Scientific, "graph-pagerank".into())));
        assert!(names.contains(&(Category::Scientific, "graph-mst".into())));
        assert!(names.contains(&(Category::Scientific, "graph-bfs".into())));
    }

    #[test]
    fn lookup_by_name_and_language() {
        assert!(workload_by_name("thumbnailer", Language::NodeJs).is_some());
        assert!(workload_by_name("video-processing", Language::Python).is_some());
        assert!(
            workload_by_name("video-processing", Language::NodeJs).is_none(),
            "no Node.js video benchmark in the paper"
        );
        assert!(workload_by_name("nonexistent", Language::Python).is_none());
    }

    #[test]
    fn ffmpeg_is_the_only_non_pip_dependency() {
        // The paper highlights video-processing as the single benchmark
        // needing a non-pip package.
        for r in all_workloads() {
            let spec = r.workload.spec();
            if spec.name == "video-processing" {
                assert!(spec.dependencies.contains(&"ffmpeg".to_string()));
            } else {
                assert!(!spec.dependencies.contains(&"ffmpeg".to_string()));
            }
        }
    }

    #[test]
    fn every_workload_runs_end_to_end_at_test_scale() {
        for r in all_workloads() {
            let mut store = SimObjectStore::local_minio_model();
            let mut rng = SimRng::new(100).stream(&r.workload.spec().name);
            let payload = r.workload.prepare(Scale::Test, &mut rng, &mut store);
            let mut ctx = InvocationCtx::new(&mut store, &mut rng);
            let resp = r
                .workload
                .execute(&payload, &mut ctx)
                .unwrap_or_else(|e| panic!("{} failed: {e}", r.workload.spec().name));
            assert!(
                resp.body().is_some_and(|b| !b.is_empty()),
                "{} returned an empty body",
                r.workload.spec().name
            );
            assert!(
                ctx.counters().instructions > 0,
                "{} did no work",
                r.workload.spec().name
            );
        }
    }

    #[test]
    fn category_display() {
        assert_eq!(Category::Webapps.to_string(), "Webapps");
        assert_eq!(Category::Scientific.to_string(), "Scientific");
    }

    #[test]
    fn registered_workload_debug_is_informative() {
        let r = &all_workloads()[0];
        let dbg = format!("{r:?}");
        assert!(dbg.contains("dynamic-html"));
    }
}
