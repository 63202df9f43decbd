//! Workload set-up: the store build, the `FGMT` file and its verified open,
//! the seeded query pool and the warm-up pass — everything `setup_s` times.

use std::path::{Path, PathBuf};

use warehouse::prelude::*;

use crate::{timed, Params, Workload};

/// A file that is removed when the guard drops.
#[derive(Debug)]
pub struct OwnedFile(PathBuf);

impl OwnedFile {
    /// Takes ownership of `path` (nothing is created yet).
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        OwnedFile(path)
    }

    /// The guarded path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// The file's size in bytes.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be inspected.
    pub fn size(&self) -> Result<u64, String> {
        std::fs::metadata(&self.0)
            .map(|m| m.len())
            .map_err(|e| format!("cannot stat {}: {e}", self.0.display()))
    }
}

impl Drop for OwnedFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A file-backed warehouse and the file behind it.
#[derive(Debug)]
pub struct FileBacking {
    /// The warehouse opened over the file (declared first, so it closes
    /// before the file is removed).
    pub warehouse: Warehouse,
    /// The `FGMT` file.
    pub file: OwnedFile,
    /// The file's size in bytes.
    pub bytes: u64,
    /// The page-pool capacity the warehouse was opened with.
    pub pool_pages: usize,
}

/// Everything a workload runs against.
#[derive(Debug)]
pub struct Fixture {
    /// The in-memory warehouse: the backing of `mix-mem`, and the source of
    /// the reference answers and of the file written for file workloads.
    pub memory: Warehouse,
    /// The file backing of the file workloads.
    pub file: Option<FileBacking>,
    /// The seeded query pool, in submission order.
    pub queries: Vec<BoundQuery>,
}

impl Fixture {
    /// Builds the store, writes and opens the file (file workloads),
    /// generates the query pool and runs the warm-up pass (`mix-file`).
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be written or opened.
    pub fn build(params: &Params) -> Result<Self, String> {
        let schema = params.shape.config().build();
        let fragmentation = Fragmentation::parse(&schema, &["time::month", "product::group"])
            .map_err(|e| format!("F_MonthGroup does not parse: {e:?}"))?;
        let memory =
            Warehouse::in_memory(FragmentStore::build(&schema, &fragmentation, params.seed));
        let queries = query_pool(params, &schema);
        let file = match params.workload.file_pool_pages() {
            Some(pool_pages) => Some(save_and_open(
                &memory,
                params.out_file("store", "fgmt"),
                pool_pages,
            )?),
            None => None,
        };
        let fixture = Fixture {
            memory,
            file,
            queries,
        };
        if params.workload == Workload::MixFile {
            // The untimed warm-up pass: fill the page pool and the decoded
            // fragment cache.
            let _ = timed::stream_session(fixture.backing()).stream(&fixture.queries);
        }
        Ok(fixture)
    }

    /// The warehouse the workload's timed phase runs on.
    #[must_use]
    pub fn backing(&self) -> &Warehouse {
        self.file.as_ref().map_or(&self.memory, |f| &f.warehouse)
    }

    /// The in-memory fragment store.
    #[must_use]
    pub fn store(&self) -> &FragmentStore {
        self.memory.engine().store()
    }
}

/// Writes `memory` to `path` and opens it with a verified open and a page
/// pool of `pool_pages`.
///
/// # Errors
///
/// Returns a message when the file cannot be written or opened.
pub fn save_and_open(
    memory: &Warehouse,
    path: PathBuf,
    pool_pages: usize,
) -> Result<FileBacking, String> {
    let file = OwnedFile::new(path);
    memory
        .save(file.path())
        .map_err(|e| format!("cannot write {}: {e}", file.path().display()))?;
    let warehouse = open(file.path(), pool_pages)?;
    let bytes = file.size()?;
    Ok(FileBacking {
        warehouse,
        file,
        bytes,
        pool_pages,
    })
}

/// Opens the `FGMT` file at `path`, verifying every checksum.
///
/// # Errors
///
/// Returns a message when the file does not open or verify.
pub fn open(path: &Path, pool_pages: usize) -> Result<Warehouse, String> {
    Warehouse::open_with(path, options(pool_pages))
        .map_err(|e| format!("cannot open {}: {e}", path.display()))
}

/// Buffer-manager options with a verified open and `pool_pages` of cache.
#[must_use]
pub fn options(pool_pages: usize) -> FileStoreOptions {
    FileStoreOptions {
        cache_pages: pool_pages,
        verify: true,
    }
}

/// The workload's query pool, generated from the seed.
fn query_pool(params: &Params, schema: &StarSchema) -> Vec<BoundQuery> {
    let workload = params.workload;
    InterleavedStream::new(schema, &workload.query_types(), params.seed)
        .with_value_skew(workload.theta())
        .take_queries(params.shape.pool_queries(workload))
}
