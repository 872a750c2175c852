//! A name scan for dependencies that a crate's library and binaries never
//! name.
//!
//! It lists every entry of the `[dependencies]` table of each
//! `crates/*/Cargo.toml` whose crate name (with `-` read as `_`, as Rust
//! code spells it) appears as a word in no `.rs` file under that crate's
//! `src/`, binaries in `src/bin` included. A dependency that only the
//! crate's `tests/` or `benches/` name belongs in `[dev-dependencies]`, and
//! one that nothing names can go.
//!
//! The list must equal [`SURVIVORS`], each entry with a reason. A new unused
//! dependency fails the test, and so does a survivor that gains a use or is
//! dropped: either drop the dependency, move it, give it a use, or add it
//! to the table with the reason it stays.
//!
//! The match is by word, not by resolved path, and comments are not
//! stripped, so a doc comment that names a crate counts as a use; the scan
//! can miss an unused dependency but never lists one that is named.
//!
//! A second scan lists every library file under `crates/*/src` whose code
//! before its first `#[cfg(test)]` at column 0 (the test module) names
//! `Mutex` or `RwLock` (comments cut off each line first). Each simulated
//! run is single-threaded, so a lock is only needed where whole runs go to
//! worker threads; the list must equal [`LOCK_HOLDERS`].

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// `(crate directory, dependency, why it stays)` for each listed
/// dependency kept on purpose.
const SURVIVORS: &[(&str, &str, &str)] = &[
    (
        "auth",
        "serde",
        "no source names it since the serde derives were pruned; dropping it \
         rewrites perfbench/Cargo.lock, which depends on first-auth",
    ),
    (
        "chaos",
        "first-serving",
        "only tests/proptest_chaos.rs names it, so it belongs in \
         [dev-dependencies]; moving it rewrites perfbench/Cargo.lock, which \
         depends on first-chaos",
    ),
    (
        "core",
        "parking_lot",
        "no source names it since the rate limiter and its lock were \
         deleted; dropping it rewrites perfbench/Cargo.lock, which depends \
         on first-core",
    ),
    (
        "hpc",
        "serde",
        "no source names it since the serde derives were pruned; dropping it \
         rewrites perfbench/Cargo.lock, which reaches first-hpc",
    ),
    (
        "telemetry",
        "parking_lot",
        "no source names it since the metric registry came to own its \
         store; dropping it rewrites perfbench/Cargo.lock, which depends on \
         first-telemetry",
    ),
];

/// `(file, why it locks)` for each library file allowed a lock.
const LOCK_HOLDERS: &[(&str, &str)] = &[(
    "crates/bench/src/executor.rs",
    "ScenarioExecutor hands whole runs to worker threads, which take points \
     from and put results into shared slots",
)];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The keys of the `[dependencies]` table of a manifest's text, in order.
fn dependencies(manifest: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut in_table = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_table = line == "[dependencies]";
        } else if let Some((key, _)) = line.split_once('=').filter(|_| in_table) {
            out.push(key.trim());
        }
    }
    out
}

/// Whether `word` appears in `text` as a whole identifier.
fn names(text: &str, word: &str) -> bool {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .any(|w| w == word)
}

#[test]
fn every_unused_dependency_is_a_listed_survivor() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut unused = BTreeSet::new();
    let mut scanned = 0;
    for entry in fs::read_dir(&crates)
        .expect("crates/ is readable")
        .flatten()
    {
        let dir = entry.path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        let sources: Vec<String> = files
            .iter()
            .map(|f| fs::read_to_string(f).expect("readable source"))
            .collect();
        let name = dir
            .file_name()
            .expect("a crate directory")
            .to_string_lossy()
            .into_owned();
        for dep in dependencies(&manifest) {
            scanned += 1;
            let word = dep.replace('-', "_");
            if !sources.iter().any(|text| names(text, &word)) {
                unused.insert((name.clone(), dep.to_string()));
            }
        }
    }
    assert!(scanned > 0, "no [dependencies] entry found under crates/");

    let survivors: BTreeSet<(String, String)> = SURVIVORS
        .iter()
        .map(|(krate, dep, _)| (krate.to_string(), dep.to_string()))
        .collect();
    let new: Vec<_> = unused.difference(&survivors).collect();
    let used: Vec<_> = survivors.difference(&unused).collect();
    assert!(
        new.is_empty() && used.is_empty(),
        "dependencies no source under the crate's src/ names, not in SURVIVORS \
         (drop them, move them to [dev-dependencies], or list them with a \
         reason): {new:#?}\n\
         SURVIVORS entries that are named or gone (drop them): {used:#?}"
    );
}

#[test]
fn only_listed_files_hold_a_lock() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
    {
        rust_files(&entry.path().join("src"), &mut files);
    }
    assert!(!files.is_empty(), "no source found under crates/*/src");
    let mut holders = BTreeSet::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source");
        let library = text
            .find("\n#[cfg(test)]")
            .map_or(&text[..], |i| &text[..i]);
        let locks = library.lines().any(|line| {
            let code = line.split("//").next().unwrap_or("");
            names(code, "Mutex") || names(code, "RwLock")
        });
        if locks {
            let rel = file.strip_prefix(root).expect("under the root");
            holders.insert(rel.to_string_lossy().replace('\\', "/"));
        }
    }

    let allowed: BTreeSet<String> = LOCK_HOLDERS
        .iter()
        .map(|(file, _)| file.to_string())
        .collect();
    let new: Vec<_> = holders.difference(&allowed).collect();
    let gone: Vec<_> = allowed.difference(&holders).collect();
    assert!(
        new.is_empty() && gone.is_empty(),
        "library files that name Mutex or RwLock, not in LOCK_HOLDERS (a \
         simulated run is single-threaded: own the state instead): {new:#?}\n\
         LOCK_HOLDERS entries that hold no lock or are gone (drop them): {gone:#?}"
    );
}
