//! Seeded inputs, pinned configuration, and output fingerprints.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use bench::data::uris;
use dataframe::DataFrame;
use kg_datagen::{
    generate_dblp, generate_dbpedia, generate_yago, DblpConfig, DbpediaConfig, YagoConfig,
};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use rdf_model::Dataset;
use rdfframes_core::{EmbeddedEndpoint, EndpointConfig, InProcessEndpoint, WireFormat};
use sparql_engine::EngineConfig;

/// DBpedia scale (film actors); DBLP papers are 2× this, as in the
/// repository's experiments. About 179,000 triples.
pub const SCALE: usize = 4000;

/// Rows per embedded cursor batch: the embedded endpoint's default, set
/// explicitly so `RDFFRAMES_BATCH_ROWS` cannot change what is measured.
pub const BATCH_ROWS: usize = 16_384;

/// Engine worker threads.
pub const ENGINE_THREADS: usize = 1;

/// Graphs of the dataset, in insertion order.
pub const GRAPHS: [&str; 3] = [uris::DBPEDIA, uris::DBLP, uris::YAGO];

/// The engine configuration every endpoint of the benchmark runs with: the
/// defaults, with the thread count fixed rather than read from the
/// environment.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: ENGINE_THREADS,
        ..EngineConfig::new()
    }
}

/// A generator for one purpose of a run (`stream`), seeded from `--seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The three graphs at [`SCALE`], each generator seeded from `seed`.
pub fn build_dataset(seed: u64) -> Arc<Dataset> {
    let mut rng = rng(seed, 1);
    let mut ds = Dataset::new();
    ds.insert_graph(
        uris::DBPEDIA,
        generate_dbpedia(&DbpediaConfig {
            seed: rng.gen(),
            ..DbpediaConfig::with_scale(SCALE)
        }),
    );
    ds.insert_graph(
        uris::DBLP,
        generate_dblp(&DblpConfig {
            seed: rng.gen(),
            ..DblpConfig::with_papers(SCALE * 2)
        }),
    );
    ds.insert_graph(
        uris::YAGO,
        generate_yago(&YagoConfig {
            seed: rng.gen(),
            ..YagoConfig::for_dbpedia_scale(SCALE)
        }),
    );
    Arc::new(ds)
}

pub fn embedded(ds: &Arc<Dataset>) -> EmbeddedEndpoint {
    EmbeddedEndpoint::with_engine_config(Arc::clone(ds), engine_config())
        .with_batch_rows(BATCH_ROWS)
}

/// A wire endpoint with stock settings, the given result format and page cap.
pub fn wire(ds: &Arc<Dataset>, format: WireFormat, page: usize) -> InProcessEndpoint {
    InProcessEndpoint::with_config(
        Arc::clone(ds),
        EndpointConfig {
            wire: format,
            max_rows_per_request: page,
            ..EndpointConfig::default()
        },
    )
}

/// Row count plus an order-insensitive hash of the rows (and the column
/// names, in order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

pub fn fingerprint(df: &DataFrame) -> Fingerprint {
    let mut header = DefaultHasher::new();
    df.columns().hash(&mut header);
    let mut sum = header.finish();
    for row in df.rows() {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        sum = sum.wrapping_add(h.finish());
    }
    Fingerprint {
        rows: df.len(),
        hash: sum,
    }
}
