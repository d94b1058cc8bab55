//! References that resolve, both ways. Every `*.md` file a `//` comment
//! names under `crates/`, `src/`, `examples/` or `tests/` exists in the
//! repository, and every `` `Type::member` `` that ARCHITECTURE.md or
//! README.md names, where the workspace defines `Type`, is a `fn`, field,
//! variant or constant of it: a pointer that resolves to nothing sends
//! the reader nowhere.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The directories whose `*.rs` files make up the workspace's sources.
const SOURCE_DIRS: [&str; 4] = ["crates", "src", "examples", "tests"];

/// Every file under `dir` (skipping build output and hidden directories)
/// whose name ends in `ext`, as paths relative to `root`.
fn files(root: &Path, dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                files(root, &path, ext, out);
            }
        } else if name.ends_with(ext) {
            out.push(path.strip_prefix(root).unwrap().to_path_buf());
        }
    }
}

/// The `*.md` names in the `//` comment of `line`, if it has one.
fn md_names(line: &str) -> Vec<&str> {
    let Some((_, comment)) = line.split_once("//") else {
        return Vec::new();
    };
    comment
        .split(|c: char| !(c.is_ascii_alphanumeric() || "._/-".contains(c)))
        .map(|tok| tok.trim_end_matches('.'))
        .filter(|tok| tok.len() > 3 && tok.ends_with(".md"))
        .collect()
}

#[test]
fn md_names_are_read_out_of_comments_only() {
    // spelled in halves, so this file's own lines hold no such comment
    let code = ["let x = 1; /", "/ see `kronbench/README.md` § \"API\"."].concat();
    assert_eq!(md_names(&code), ["kronbench/README.md"]);
    let doc = ["/", "/! (NOWHERE.md §4), PAPERS.md."].concat();
    assert_eq!(md_names(&doc), ["NOWHERE.md", "PAPERS.md"]);
    assert!(md_names("let s = \"README.md\";").is_empty());
}

#[test]
fn every_md_file_a_comment_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = Vec::new();
    files(root, root, ".md", &mut docs);
    let exists = |name: &str| docs.iter().any(|d| d.ends_with(name));
    let sources = sources(root);
    let mut missing = Vec::new();
    for source in &sources {
        let text = std::fs::read_to_string(root.join(source)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for name in md_names(line) {
                if !exists(name) {
                    missing.push(format!("{}:{}: {name}", source.display(), n + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "comments name missing documents:\n{}",
        missing.join("\n")
    );
}

/// Every workspace source file, relative to `root`.
fn sources(root: &Path) -> Vec<PathBuf> {
    let mut sources = Vec::new();
    for dir in SOURCE_DIRS {
        files(root, &root.join(dir), ".rs", &mut sources);
    }
    assert!(sources.len() > 50, "walked too little: {sources:?}");
    sources
}

/// `line` without leading visibility (`pub`, `pub(crate)`, …).
fn unpub(line: &str) -> &str {
    let Some(rest) = line.strip_prefix("pub") else {
        return line;
    };
    match rest.strip_prefix('(') {
        Some(scoped) => scoped.split_once(") ").map_or(line, |(_, r)| r),
        None => rest.strip_prefix(' ').unwrap_or(line),
    }
}

/// The leading identifier of `s`.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The type a block header line opens, and whether the line defines it:
/// `struct T {`, `enum T {`, `trait T {` define `T`; `impl<…> T<…> {`
/// and `impl<…> Trait for T<…> {` only add to it.
fn block_owner(header: &str) -> Option<(&str, bool)> {
    let item = unpub(header);
    if item.ends_with(';') || item.ends_with('}') {
        return None;
    }
    for kw in ["struct ", "enum ", "trait ", "union "] {
        if let Some(rest) = item.strip_prefix(kw) {
            return Some((ident(rest), true));
        }
    }
    let mut rest = item.strip_prefix("impl")?;
    if let Some(generics) = rest.strip_prefix('<') {
        let mut depth = 1;
        let end = generics.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &generics[end + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let rest = rest.rsplit(" for ").next()?.trim_start();
    let path = rest.split(['<', ' ', '{']).next()?;
    let ty = ident(path.rsplit("::").next()?);
    (!ty.is_empty()).then_some((ty, false))
}

/// The types the sources define (struct, enum, trait or union), and for
/// every type the members declared one level inside its definitions and
/// `impl` blocks: `fn`s, fields, variants and constants. rustfmt's layout
/// is the parser: a block opened at indent `i` closes at the line `}` at
/// indent `i`, and its members sit at `i + 4`.
fn type_members(root: &Path) -> (BTreeSet<String>, BTreeMap<String, BTreeSet<String>>) {
    let mut defined = BTreeSet::new();
    let mut members: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for source in sources(root) {
        let text = std::fs::read_to_string(root.join(&source)).unwrap();
        let mut open: Vec<(usize, String)> = Vec::new();
        for line in text.lines() {
            let trimmed = line.trim_start();
            let indent = line.len() - trimmed.len();
            match open.last() {
                Some((at, _)) if *at == indent && trimmed == "}" => {
                    open.pop();
                    continue;
                }
                Some((at, owner)) if indent == at + 4 => {
                    let item = unpub(trimmed);
                    let item = item.strip_prefix("const ").unwrap_or(item);
                    let name = ident(item.strip_prefix("fn ").unwrap_or(item));
                    if !name.is_empty() {
                        members
                            .entry(owner.clone())
                            .or_default()
                            .insert(name.into());
                    }
                }
                _ => {}
            }
            if let Some((owner, defines)) = block_owner(trimmed) {
                if defines {
                    defined.insert(owner.to_string());
                }
                open.push((indent, owner.into()));
            }
        }
    }
    (defined, members)
}

/// Every `Type::member` inside an inline code span of `markdown` (fenced
/// blocks skipped): a capitalised segment, `::`, then an identifier.
fn member_refs(markdown: &str) -> Vec<(&str, &str)> {
    let prose = markdown.split("```").step_by(2);
    let spans = prose.flat_map(|p| p.split('`').skip(1).step_by(2));
    let mut refs = Vec::new();
    for span in spans {
        for (at, _) in span.match_indices("::") {
            let head = &span[..at];
            let start = head
                .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map_or(0, |i| i + 1);
            let (ty, member) = (&head[start..], ident(&span[at + 2..]));
            if ty.starts_with(|c: char| c.is_ascii_uppercase()) && !member.is_empty() {
                refs.push((ty, member));
            }
        }
    }
    refs
}

#[test]
fn member_refs_and_block_owners_parse() {
    let doc = "See `kron_stream::ShardSet::open(dir)` and `Row::cols`.\n\
               ```\nFoo::bar\n```\n`not_a::type` `Kernel::Bfs`";
    assert_eq!(
        member_refs(doc),
        [("ShardSet", "open"), ("Row", "cols"), ("Kernel", "Bfs")]
    );
    assert_eq!(block_owner("pub struct Row<'a> {"), Some(("Row", true)));
    assert_eq!(block_owner("impl<'a> Row<'a> {"), Some(("Row", false)));
    assert_eq!(
        block_owner("impl std::fmt::Display for AnalyzeError {"),
        Some(("AnalyzeError", false))
    );
    assert_eq!(
        block_owner("impl LevelRows for ServeEngine {"),
        Some(("ServeEngine", false))
    );
    assert_eq!(block_owner("pub struct Marker;"), None);
    assert_eq!(block_owner("implied {"), None);
}

#[test]
fn every_type_member_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (defined, members) = type_members(root);
    let has = |ty: &str, member: &str| members.get(ty).is_some_and(|m| m.contains(member));
    // fields count as members, not only fns
    assert!(has("OpenOptions", "row_cache_bytes") && has("StreamConfig", "threads"));
    let mut stale = Vec::new();
    for doc in ["ARCHITECTURE.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (ty, member) in member_refs(&text) {
            if defined.contains(ty) && !has(ty, member) {
                stale.push(format!("{doc}: `{ty}::{member}`"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "docs name members no source defines:\n{}",
        stale.join("\n")
    );
}
