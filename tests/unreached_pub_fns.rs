//! A name scan for public items that nothing reaches.
//!
//! Items that are not `pub` are guarded by rustc: its `dead_code` lint
//! reports every `pub(crate)` or private function, field and variant that
//! nothing uses, so an item that no other crate names is `pub(crate)`. This
//! test covers what stays `pub`, with two rules.
//!
//! - It lists every `pub fn`, `pub const fn`, `pub struct`, `pub enum`,
//!   `pub type`, `pub trait`, `pub static` and `pub const` under
//!   `crates/*/src` whose name appears nowhere else: not in any other `.rs`
//!   file under `crates/`, `src/`, `tests/`, `examples/` or `perfbench/src`,
//!   and not elsewhere in its own file's text before its first
//!   `#[cfg(test)]` at column 0 (the test module). An item that only its
//!   own unit tests use is therefore listed.
//! - It lists every `pub fn` and `pub const fn` in a crate's `src/` whose
//!   name appears in no file outside that crate's own `src/`. The crate's
//!   `src/bin`, `tests/` and `benches/` count as outside: they are other
//!   compilation units. Such a function should be `pub(crate)`.
//! - It lists every variant of a `pub enum` under `crates/*/src` whose name
//!   appears nowhere but on its own declaration line, in any scanned file,
//!   tests included. Nothing builds or matches such a variant.
//!
//! Comments are not stripped, so a doc comment that names an item counts
//! as a use.
//!
//! The list must equal [`SURVIVORS`], each entry with a reason. A new
//! unreached item fails the test, and so does a survivor that gains a use
//! or is deleted: either delete the item or give it a use, make it
//! `pub(crate)`, or add it to the table with the reason it stays.
//!
//! The match is by name, not by resolved path. A common name such as `inc`
//! or `new` that some other item also uses anywhere in the tree hides an
//! unreached item, and an `impl` block in the item's own file counts as a
//! use of a type, so the scan can miss code; it never lists code that has a
//! use. Fields of `pub` types are not scanned.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(file, item, why it stays)` for each listed item kept on purpose.
const SURVIVORS: &[(&str, &str, &str)] = &[];

/// Directories whose `.rs` files count as callers.
const CALLER_DIRS: &[&str] = &["crates", "src", "tests", "examples", "perfbench/src"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every identifier-like word in `text`, in order.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii() && is_ident_byte(c as u8)))
        .filter(|w| w.as_bytes().first().is_some_and(|b| !b.is_ascii_digit()))
}

/// The text before the first `#[cfg(test)]` at column 0 (the test module):
/// its own code. An indented one (a test hook inside a function) does not
/// cut it.
fn own_text(text: &str) -> &str {
    text.find("\n#[cfg(test)]").map_or(text, |i| &text[..i])
}

/// `(line, name, is_fn)` of each public item declared in `own` (a `pub
/// const fn` is found by `"pub const "`, as `fn`, and again by `"pub const
/// fn "`; the `fn` hit is dropped).
fn pub_items(own: &str) -> Vec<(usize, &str, bool)> {
    let mut out = Vec::new();
    for marker in [
        "pub fn ",
        "pub const fn ",
        "pub struct ",
        "pub enum ",
        "pub type ",
        "pub trait ",
        "pub static ",
        "pub const ",
    ] {
        let mut from = 0;
        while let Some(at) = own[from..].find(marker).map(|i| from + i) {
            from = at + marker.len();
            if at > 0 && is_ident_byte(own.as_bytes()[at - 1]) {
                continue;
            }
            let rest = &own[from..];
            let end = rest
                .bytes()
                .position(|b| !is_ident_byte(b))
                .unwrap_or(rest.len());
            if end > 0 && &rest[..end] != "fn" {
                let is_fn = marker.ends_with("fn ");
                out.push((own[..at].matches('\n').count() + 1, &rest[..end], is_fn));
            }
        }
    }
    out.sort_unstable();
    out
}

/// `(line, name)` of each variant of every `pub enum` declared in `own`: the
/// first word of each line at the top level of the enum's body. Comments
/// are cut off each line first, and attribute lines start with no word.
fn pub_enum_variants(own: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = own[from..].find("pub enum ").map(|i| from + i) {
        from = at + 1;
        if at > 0 && is_ident_byte(own.as_bytes()[at - 1]) {
            continue;
        }
        let Some(open) = own[at..].find('{').map(|i| at + i) else {
            break;
        };
        let first_line = own[..open].matches('\n').count() + 1;
        let mut depth = 1i32;
        for (k, line) in own[open + 1..].lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            let trimmed = code.trim_start();
            let end = trimmed
                .bytes()
                .position(|b| !is_ident_byte(b))
                .unwrap_or(trimmed.len());
            if depth == 1 && end > 0 {
                out.push((first_line + k, &trimmed[..end]));
            }
            for b in code.bytes() {
                match b {
                    b'{' | b'(' | b'[' => depth += 1,
                    b'}' | b')' | b']' => depth -= 1,
                    _ => {}
                }
            }
            if depth <= 0 {
                break;
            }
        }
    }
    out
}

#[test]
fn every_unreached_pub_fn_is_a_listed_survivor() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in CALLER_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    let texts: BTreeMap<String, String> = files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            (rel, fs::read_to_string(path).expect("readable source"))
        })
        // The survivor table names its items; it is not a use.
        .filter(|(rel, _)| rel != file!())
        .collect();
    // Which files mention each word anywhere, and how often in all.
    let mut mentioned_in: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut mentions: BTreeMap<&str, usize> = BTreeMap::new();
    for (file, text) in &texts {
        for word in words(text) {
            mentioned_in.entry(word).or_default().insert(file);
            *mentions.entry(word).or_default() += 1;
        }
    }

    let mut unreached: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (file, text) in &texts {
        let mut parts = file.split('/');
        let in_crate_src = parts.next() == Some("crates") && parts.nth(1) == Some("src");
        if !in_crate_src {
            continue;
        }
        // `crates/<name>/src/`: the crate's own library sources.
        let src_dir = &file[..file.match_indices('/').nth(2).expect("under src/").0 + 1];
        let bin_dir = format!("{src_dir}bin/");
        let outside_crate = |f: &str| !f.starts_with(src_dir) || f.starts_with(&bin_dir);
        let own = own_text(text);
        for (line, name, is_fn) in pub_items(own) {
            let elsewhere = mentioned_in[name].iter().any(|f| f != file);
            let own_uses = words(own).filter(|w| *w == name).count();
            let other_crate = mentioned_in[name].iter().any(|f| outside_crate(f));
            if (!elsewhere && own_uses < 2) || (is_fn && !other_crate) {
                unreached.insert((file.clone(), name.to_string()), line);
            }
        }
        let lines: Vec<&str> = own.lines().collect();
        for (line, name) in pub_enum_variants(own) {
            let on_its_line = words(lines[line - 1]).filter(|w| *w == name).count();
            if mentions[name] == on_its_line {
                unreached.insert((file.clone(), name.to_string()), line);
            }
        }
    }

    let survivors: BTreeSet<(String, String)> = SURVIVORS
        .iter()
        .map(|(file, name, _)| (file.to_string(), name.to_string()))
        .collect();
    let new: Vec<String> = unreached
        .iter()
        .filter(|(key, _)| !survivors.contains(key))
        .map(|((file, name), line)| format!("{file}:{line} {name}"))
        .collect();
    let reached: Vec<String> = survivors
        .iter()
        .filter(|key| !unreached.contains_key(key))
        .map(|(file, name)| format!("{file} {name}"))
        .collect();
    assert!(
        new.is_empty() && reached.is_empty(),
        "unreached pub items not in SURVIVORS (delete them, give them a use, \
         or list them with a reason): {new:#?}\n\
         SURVIVORS entries that are reached or gone (drop them): {reached:#?}"
    );
}
