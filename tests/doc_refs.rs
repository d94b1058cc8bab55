//! Every `*.md` file a `//` comment names under `crates/`, `src/`,
//! `examples/` or `tests/` exists in the repository: a pointer to a
//! document that is not there sends the reader nowhere.

use std::path::{Path, PathBuf};

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
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        files(root, &root.join(dir), ".rs", &mut sources);
    }
    assert!(sources.len() > 50, "walked too little: {sources:?}");
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
