//! Standing check on the public surface of the workspace's library crates.
//!
//! Every `pub` item in `crates/*/src` (binaries under `src/bin` excepted)
//! must be named somewhere outside its own file's test module, or keep a
//! line in `public_surface_allowlist.txt` naming the test that needs it.
//! Run it alone with `cargo test -q -p metaseg-bench --test public_surface`.
//!
//! The rule is textual, so it needs no parser and no dependency:
//!
//! * **Items** are lines `pub fn|struct|enum|trait|const|static|type|mod
//!   NAME` (`pub const fn` is a `fn`). `pub(crate)` items, `pub use`
//!   statements, fields and enum variants are not items. An item's path is
//!   its defining file's module path, plus the `impl` type for a method,
//!   plus NAME: `metaseg_data::probmap::ProbMap::scan_at`.
//! * An item **counts as used** when NAME is an identifier token in any
//!   other scanned file (`crates/*/src` with the binaries, `crates/*/tests`,
//!   `src`, `examples`, `tests`, `servebench/src` and `README.md`, which
//!   `src/lib.rs` doc-tests), or in its own file outside the test module
//!   more often than NAME is defined there. `pub use` statements never
//!   count. Comments do, so the check can miss a dead item (an `impl X`
//!   line also counts as a use of `X`) but never flags a used one.
//! * A file's **test module** runs from its `#[cfg(test)]` `mod NAME {`
//!   line at column 0 to the end of the file, so it must be the file's last
//!   item: code after its closing `}` at column 0 fails the check. Braces
//!   are not counted, because string literals in tests hold unbalanced
//!   ones.
//! * The flagged items must equal the **allowlist** exactly: one
//!   `crate::path::NAME — reason` per line. A line whose item has a caller
//!   again, names no item or gives no reason fails too.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::Path;

/// The allowlist, relative to this crate's manifest directory.
const ALLOWLIST: &str = "tests/public_surface_allowlist.txt";

/// Directories, relative to the repository root, whose `.rs` files are
/// scanned besides each crate's `src` and `tests`.
const SCANNED_DIRS: [&str; 4] = ["src", "examples", "tests", "servebench/src"];

/// The keywords after `pub ` that make a line an item.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
];

#[test]
fn every_pub_item_has_a_caller_or_an_allowlist_line() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = repository_files(&manifest_dir.join("../.."));
    let allowlist_path = manifest_dir.join(ALLOWLIST);
    let allowlist = fs::read_to_string(&allowlist_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", allowlist_path.display()));
    let failures = check(&files, &allowlist);
    assert!(
        failures.is_empty(),
        "{} public-surface failure(s). For a flagged item: delete it, drop its `pub`, \
         or add a line to crates/bench/{ALLOWLIST} naming the test that needs it.\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Reads every file the rule looks at, as (path relative to `root`, text),
/// sorted by path. Each crate's `Cargo.toml` comes along for its name.
fn repository_files(root: &Path) -> Vec<(String, String)> {
    let mut paths = vec![root.join("README.md")];
    let crates = fs::read_dir(root.join("crates")).expect("read crates/");
    for entry in crates {
        let dir = entry.expect("read crates/ entry").path();
        paths.push(dir.join("Cargo.toml"));
        rust_files(&dir.join("src"), &mut paths);
        rust_files(&dir.join("tests"), &mut paths);
    }
    for dir in SCANNED_DIRS {
        rust_files(&root.join(dir), &mut paths);
    }
    let mut files: Vec<(String, String)> = paths
        .into_iter()
        .filter_map(|path| {
            let relative = path.strip_prefix(root).expect("path under the root");
            let relative = relative.to_string_lossy().replace('\\', "/");
            // This file's own fixture names would count as callers.
            (relative != file!()).then(|| {
                let text = fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
                (relative, text)
            })
        })
        .collect();
    files.sort();
    files
}

/// Appends every `.rs` file under `dir`, recursively, to `out`. A missing
/// directory adds nothing.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("read directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `pub` item the rule found, and what is wrong with the files.
struct Surface {
    /// Item path to (defining file, flagged).
    items: BTreeMap<String, (String, bool)>,
    /// Files whose test module is not their last item.
    errors: Vec<String>,
}

/// Runs the rule and compares its flagged items with `allowlist`; returns
/// one message per failure.
fn check(files: &[(String, String)], allowlist: &str) -> Vec<String> {
    let surface = survey(files);
    let mut failures = surface.errors;
    let mut listed = BTreeSet::new();
    for (number, line) in allowlist.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (path, reason) = line.split_once('—').unwrap_or((line, ""));
        let (path, reason) = (path.trim(), reason.trim());
        let at = format!("allowlist line {}: `{path}`", number + 1);
        if reason.is_empty() {
            failures.push(format!("{at} gives no reason"));
        }
        match surface.items.get(path) {
            None => failures.push(format!("{at} names no `pub` item")),
            Some((file, false)) => failures.push(format!(
                "{at} is no longer flagged: the item in {file} has a caller; delete the line"
            )),
            Some((_, true)) => {}
        }
        if !listed.insert(path) {
            failures.push(format!("{at} is listed twice"));
        }
    }
    for (path, (file, flagged)) in &surface.items {
        if *flagged && !listed.contains(path.as_str()) {
            failures.push(format!(
                "`{path}` ({file}) has no caller outside its own test module"
            ));
        }
    }
    failures
}

/// Finds every `pub` item of the library crates in `files` and flags those
/// the rule counts as unused.
fn survey(files: &[(String, String)]) -> Surface {
    let crate_names: HashMap<&str, String> = files
        .iter()
        .filter_map(|(path, text)| {
            let dir = path.strip_prefix("crates/")?.strip_suffix("/Cargo.toml")?;
            let name = text.lines().find_map(|l| l.strip_prefix("name = \""))?;
            Some((dir, name.trim_end_matches('"').replace('-', "_")))
        })
        .collect();
    let mut errors = Vec::new();
    // Per identifier, the files that name it outside `pub use` statements.
    let mut naming_files: HashMap<&str, BTreeSet<usize>> = HashMap::new();
    // Per file, its lines, test-module start and own-code identifier counts.
    let mut sources = Vec::new();
    for (index, (path, text)) in files.iter().enumerate() {
        if !(path.ends_with(".rs") || path == "README.md") {
            continue;
        }
        let lines: Vec<&str> = text.lines().collect();
        let test_start = test_module_start(&lines);
        if let Some(start) = test_start {
            if let Err(message) = test_module_is_last(&lines, start) {
                errors.push(format!("{path}: {message}"));
            }
        }
        let code_end = test_start.unwrap_or(lines.len());
        let mut own: HashMap<&str, usize> = HashMap::new();
        for (number, (line, reexport)) in lines.iter().zip(reexport_lines(&lines)).enumerate() {
            if reexport {
                continue;
            }
            for word in identifiers(line) {
                naming_files.entry(word).or_default().insert(index);
                if number < code_end {
                    *own.entry(word).or_default() += 1;
                }
            }
        }
        sources.push((index, lines, code_end, own));
    }

    let mut items = BTreeMap::new();
    for (index, lines, code_end, own) in &sources {
        let path = &files[*index].0;
        let Some((crate_dir, module)) = library_module(path) else {
            continue;
        };
        let Some(crate_name) = crate_names.get(crate_dir) else {
            continue;
        };
        let found = pub_items(&lines[..*code_end]);
        let mut definitions: HashMap<&str, usize> = HashMap::new();
        for (_, name) in &found {
            *definitions.entry(name).or_default() += 1;
        }
        for (scope, name) in &found {
            let named_elsewhere = naming_files[name.as_str()].iter().any(|f| f != index);
            let named_by_own_code = own[name.as_str()] > definitions[name.as_str()];
            let item = [crate_name, &module, scope, name]
                .into_iter()
                .filter(|part| !part.is_empty())
                .map(String::as_str)
                .collect::<Vec<_>>()
                .join("::");
            let flagged = !(named_elsewhere || named_by_own_code);
            items.insert(item, (path.clone(), flagged));
        }
    }
    Surface { items, errors }
}

/// For a library source file `crates/DIR/src/...` outside `src/bin`,
/// returns DIR and the file's module path inside its crate.
fn library_module(path: &str) -> Option<(&str, String)> {
    let (dir, relative) = path.strip_prefix("crates/")?.split_once("/src/")?;
    if relative.starts_with("bin/") {
        return None;
    }
    let module = match relative.strip_suffix(".rs")? {
        "lib" => "",
        module => module.strip_suffix("/mod").unwrap_or(module),
    };
    Some((dir, module.replace('/', "::")))
}

/// Every `pub` item in `lines`, as (enclosing `impl` type or inline module
/// path, NAME).
fn pub_items(lines: &[&str]) -> Vec<(String, String)> {
    let mut found = Vec::new();
    // Open `impl` and inline `mod` blocks, by the indentation of their line.
    let mut scopes: Vec<(usize, String)> = Vec::new();
    for line in lines {
        let text = line.trim_start();
        if text.is_empty() || text.starts_with("//") || text == "{" || text.starts_with("where") {
            continue;
        }
        let indent = line.len() - text.len();
        while scopes.last().is_some_and(|&(open, _)| open >= indent) {
            scopes.pop();
        }
        if let Some(name) = pub_item_name(text) {
            let scope: Vec<&str> = scopes.iter().map(|(_, label)| label.as_str()).collect();
            found.push((scope.join("::"), name.to_string()));
        }
        if let Some(label) = block_label(text) {
            scopes.push((indent, label));
        }
    }
    found
}

/// NAME, when `text` (a trimmed line) declares `pub KEYWORD NAME`.
fn pub_item_name(text: &str) -> Option<&str> {
    let rest = text.strip_prefix("pub ")?;
    let rest = rest
        .strip_prefix("const ")
        .filter(|r| r.starts_with("fn "))
        .unwrap_or(rest);
    let (keyword, rest) = rest.split_once(' ')?;
    if !ITEM_KEYWORDS.contains(&keyword) {
        return None;
    }
    let name = leading_identifier(rest);
    (!name.is_empty()).then_some(name)
}

/// The type an `impl` line implements for, or the name of an inline
/// module; `None` for any other line.
fn block_label(text: &str) -> Option<String> {
    if let Some(rest) = text.strip_prefix("impl") {
        let rest = match rest.strip_prefix('<') {
            Some(generics) => &generics[closing_angle(generics)? + 1..],
            None => rest.strip_prefix(' ')?,
        };
        let target = rest.rsplit(" for ").next()?.trim_start();
        let path = target.split(['<', ' ', '{']).next()?;
        return Some(path.rsplit("::").next()?.to_string());
    }
    let rest = text.strip_prefix("pub ").unwrap_or(text);
    let rest = rest.strip_prefix("pub(crate) ").unwrap_or(rest);
    let name = leading_identifier(rest.strip_prefix("mod ")?);
    text.ends_with('{').then(|| name.to_string())
}

/// Index of the `>` closing generics whose `<` came just before `text`.
fn closing_angle(text: &str) -> Option<usize> {
    let mut depth = 1;
    for (index, byte) in text.bytes().enumerate() {
        match byte {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(index);
                }
            }
            _ => {}
        }
    }
    None
}

/// The identifier `text` starts with (empty if none).
fn leading_identifier(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

/// The identifier tokens of `line`.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// Marks the lines of `pub use` statements, from `pub use` to its `;`.
fn reexport_lines(lines: &[&str]) -> Vec<bool> {
    let mut inside = false;
    lines
        .iter()
        .map(|line| {
            inside |= line.trim_start().starts_with("pub use ");
            let marked = inside;
            inside &= !line.contains(';');
            marked
        })
        .collect()
}

/// Index of the line opening the file's test module: a `mod NAME {` at
/// column 0 whose attribute lines include `#[cfg(test)]`.
fn test_module_start(lines: &[&str]) -> Option<usize> {
    (0..lines.len()).find(|&i| {
        lines[i].starts_with("mod ")
            && lines[i].trim_end().ends_with('{')
            && lines[..i]
                .iter()
                .rev()
                .take_while(|line| line.starts_with("#["))
                .any(|line| line.trim_end() == "#[cfg(test)]")
    })
}

/// Fails when anything but blank lines follows the first `}` at column 0
/// after the test module's `mod` line `start`.
fn test_module_is_last(lines: &[&str], start: usize) -> Result<(), String> {
    let close = (start + 1..lines.len())
        .find(|&i| lines[i].starts_with('}'))
        .ok_or_else(|| format!("test module at line {} never closes at column 0", start + 1))?;
    match (close + 1..lines.len()).find(|&i| !lines[i].trim().is_empty()) {
        Some(i) => Err(format!(
            "line {}: code after the test module that closes at line {}; the test module \
             must be the file's last item",
            i + 1,
            close + 1
        )),
        None => Ok(()),
    }
}

mod tests {
    use super::*;

    /// A two-crate workspace: `demo-a` defines the items (its binary
    /// defines none), `demo-b`, README.md and servebench call some of them.
    fn workspace() -> Vec<(String, String)> {
        let files = [
            ("README.md", "Call `demo_a::in_readme()` first.\n"),
            ("crates/a/Cargo.toml", "[package]\nname = \"demo-a\"\n"),
            (
                "crates/a/src/lib.rs",
                "mod inner;\npub use inner::{\n    only_tested,\n    Named,\n};\npub use inner::in_bench;\n",
            ),
            (
                "crates/a/src/inner.rs",
                "pub fn only_tested() {}\n\
                 pub struct Named;\n\
                 pub fn in_readme() {}\n\
                 pub fn in_bench() {}\n\
                 pub const fn helper() -> u8 { 1 }\n\
                 pub fn entry() -> u8 {\n    helper()\n}\n\
                 impl Named {\n    pub fn twice(&self) {}\n}\n\
                 impl<T> Other<T> {\n    pub fn twice(&self) {}\n}\n\
                 \n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        super::only_tested();\n        super::Named.twice();\n    }\n}\n",
            ),
            (
                "crates/a/src/bin/tool.rs",
                "pub fn tool_only() {}\nfn main() {\n    tool_only();\n}\n",
            ),
            ("crates/b/Cargo.toml", "[package]\nname = \"demo-b\"\n"),
            ("crates/b/src/lib.rs", "pub fn call() {\n    demo_a::Named;\n}\n"),
            ("examples/e.rs", "fn main() { demo_a::entry(); demo_b::call(); }\n"),
            ("servebench/src/main.rs", "fn main() { demo_a::in_bench(); }\n"),
        ];
        files
            .iter()
            .map(|(path, text)| (path.to_string(), text.to_string()))
            .collect()
    }

    fn flagged(files: &[(String, String)]) -> Vec<String> {
        let surface = survey(files);
        assert!(surface.errors.is_empty(), "{:?}", surface.errors);
        surface
            .items
            .into_iter()
            .filter_map(|(path, (_, flagged))| flagged.then_some(path))
            .collect()
    }

    #[test]
    fn the_rule_flags_items_without_an_outside_caller() {
        let surface = survey(&workspace());
        let all: Vec<&str> = surface.items.keys().map(String::as_str).collect();
        assert_eq!(
            all,
            [
                "demo_a::inner::Named",
                "demo_a::inner::Named::twice",
                "demo_a::inner::Other::twice",
                "demo_a::inner::entry",
                "demo_a::inner::helper",
                "demo_a::inner::in_bench",
                "demo_a::inner::in_readme",
                "demo_a::inner::only_tested",
                "demo_b::call",
            ]
        );
        // Named only by its test module and `pub use` lines: flagged. So is
        // a name defined twice in one file and called only by the tests.
        // Named by README.md, servebench, another crate or an example, or
        // called by its own file's code: not flagged.
        assert_eq!(
            flagged(&workspace()),
            [
                "demo_a::inner::Named::twice",
                "demo_a::inner::Other::twice",
                "demo_a::inner::only_tested",
            ]
        );

        let allowlist = "demo_a::inner::Named::twice — held by tests::t\n\
            demo_a::inner::Other::twice — held by tests::t\n\
            demo_a::inner::only_tested — held by tests::t\n";
        assert_eq!(check(&workspace(), allowlist), Vec::<String>::new());
    }

    #[test]
    fn stale_unknown_and_reasonless_allowlist_lines_fail() {
        let allowlist = "demo_a::inner::Named::twice — held by tests::t\n\
            demo_a::inner::Other::twice —\n\
            demo_a::inner::only_tested\n\
            demo_a::inner::helper — called by entry\n\
            demo_a::inner::gone — deleted\n\
            demo_a::inner::Named::twice — twice\n";
        let failures = check(&workspace(), allowlist);
        let expected = [
            "allowlist line 2: `demo_a::inner::Other::twice` gives no reason",
            "allowlist line 3: `demo_a::inner::only_tested` gives no reason",
            "allowlist line 4: `demo_a::inner::helper` is no longer flagged",
            "allowlist line 5: `demo_a::inner::gone` names no `pub` item",
            "allowlist line 6: `demo_a::inner::Named::twice` is listed twice",
        ];
        assert_eq!(failures.len(), expected.len(), "{failures:#?}");
        for (failure, start) in failures.iter().zip(expected) {
            assert!(failure.starts_with(start), "{failure:?} vs {start:?}");
        }

        // An unlisted flagged item fails, naming its file.
        let failures = check(&workspace(), "");
        assert_eq!(failures.len(), 3, "{failures:#?}");
        assert!(failures[2].starts_with("`demo_a::inner::only_tested` (crates/a/src/inner.rs)"));
    }

    #[test]
    fn code_after_the_test_module_fails() {
        let mut files = workspace();
        files[3].1.push_str("\npub fn late() {}\n");
        let failures = check(&files, "");
        assert!(
            failures[0].starts_with("crates/a/src/inner.rs: line 25: code after the test module"),
            "{failures:#?}"
        );
    }
}
