//! Every feature-compiled body in `crates/` runs inside
//! `gpu_sim::cpu::Simd::vectorize`, which only a `Simd` can call, so no
//! body can run where a feature was not checked: this suite reads the
//! sources and requires the one `target_feature(enable = "…")` in
//! `crates/` to sit in `gpu-sim/src/cpu.rs` and to enable exactly the
//! feature list `Simd::detect` checks, in its order. `vendor/rand` sits
//! below `gpu-sim` and keeps its own detector; its bodies may enable only
//! what that detector checks. Feature detection itself lives in those
//! two places only. Only the entry points call `vectorize`, once per
//! region: the bodies below them are generic over the capability type
//! and never enter a second region.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

/// The string literal of each `head … ( … "lit"` occurrence in `src`,
/// where `head` is followed by `(` and then `prefix` (whitespace
/// between the tokens ignored): `("target_feature", "enable=")` finds
/// `target_feature(enable = "avx2")`, and
/// `("is_x86_feature_detected!", "")` finds the macro's argument.
fn literals(src: &str, head: &str, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find(head) {
        rest = &rest[at + head.len()..];
        let mut chars = rest.char_indices().filter(|(_, c)| !c.is_whitespace());
        let expected = std::iter::once('(').chain(prefix.chars()).chain(['"']);
        let mut start = None;
        for want in expected {
            match chars.next() {
                Some((i, c)) if c == want => start = Some(i + 1),
                _ => {
                    start = None;
                    break;
                }
            }
        }
        if let Some(start) = start {
            let len = rest[start..].find('"').expect("unterminated literal");
            out.push(rest[start..start + len].to_string());
        }
    }
    out
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(file, literal)` for every `target_feature(enable = …)` under `dir`.
fn enabled(dir: &Path) -> Vec<(PathBuf, String)> {
    rust_files(dir)
        .into_iter()
        .flat_map(|f| {
            let src = fs::read_to_string(&f).expect("read source");
            literals(&src, "target_feature", "enable=")
                .into_iter()
                .map(move |lit| (f.clone(), lit))
        })
        .collect()
}

/// The features one file's `is_x86_feature_detected!` calls check, in
/// source order.
fn detected(file: &Path) -> Vec<String> {
    let src = fs::read_to_string(file).expect("read detector source");
    literals(&src, "is_x86_feature_detected!", "")
}

#[test]
fn every_crate_body_enables_exactly_the_token_set() {
    let cpu = root().join("crates/gpu-sim/src/cpu.rs");
    let token = detected(&cpu).join(",");
    assert_eq!(token, "avx2,bmi1,bmi2,f16c,lzcnt,popcnt");
    assert_eq!(
        enabled(&root().join("crates")),
        [(cpu, token)],
        "crates/ may enable features only in `Simd::vectorize`'s body"
    );
}

/// The name of the function whose body holds byte `at` of `src`: the
/// identifier after the last `fn ` keyword before it.
fn enclosing_fn(src: &str, at: usize) -> &str {
    let mut end = at;
    loop {
        let start = src[..end]
            .rfind("fn ")
            .expect("`vectorize` outside any function");
        let keyword = start == 0 || src[..start].ends_with(char::is_whitespace);
        if keyword {
            let rest = &src[start + 3..];
            let len = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            return &rest[..len];
        }
        end = start;
    }
}

/// `src` without its `#[cfg(test)]` modules: each inline one, from the
/// attribute to the module's closing `}` in column 0 (rustfmt's layout),
/// and each out-of-line declaration's line.
fn without_test_modules(src: &str) -> String {
    let mut out = String::new();
    let mut lines = src.lines().peekable();
    while let Some(line) = lines.next() {
        if line == "#[cfg(test)]" && lines.peek().is_some_and(|l| l.starts_with("mod ")) {
            let decl = lines.next().expect("peeked");
            if decl.ends_with('{') {
                lines.by_ref().find(|l| *l == "}");
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Tests may enter a region of their own (to run a body's feature copy);
/// the program may not nest one.
#[test]
fn only_entry_points_call_vectorize() {
    let crates = root().join("crates");
    let mut sites = Vec::new();
    for file in rust_files(&crates) {
        let src = without_test_modules(&fs::read_to_string(&file).expect("read source"));
        let rel = file.strip_prefix(&crates).expect("under crates/");
        for (at, _) in src.match_indices(".vectorize(") {
            sites.push(format!("{}::{}", rel.display(), enclosing_fn(&src, at)));
        }
    }
    assert_eq!(
        sites,
        [
            "core/src/smbd.rs::decode_tctile_detected",
            "core/src/spmm/block.rs::run_block",
            "core/src/tca_bme.rs::encode_impl",
            "core/src/tca_bme.rs::encode_impl",
            "core/src/tca_bme.rs::quantize",
            "gpu-sim/src/matrix.rs::random_dense",
            "gpu-sim/src/matrix.rs::fill_sparse",
            "gpu-sim/src/tensor_core.rs::mma_m16n8k16_bslice_ntiles",
            "gpu-sim/src/tensor_core.rs::mma_m16n8k16_s8_ntiles",
        ],
        "only the entry points enter `Simd::vectorize`, once per region"
    );
}

#[test]
fn test_modules_are_cut_and_the_code_after_them_kept() {
    let src = "fn a() {}\n#[cfg(test)]\nmod l2;\nfn b() { x.vectorize(f) }\n\
               #[cfg(test)]\nmod tests {\n    fn c() { s.vectorize(f) }\n}\nfn d() {}\n";
    assert_eq!(
        without_test_modules(src),
        "fn a() {}\nfn b() { x.vectorize(f) }\nfn d() {}\n"
    );
}

#[test]
fn rand_bodies_enable_only_what_its_detector_checks() {
    let src = root().join("vendor/rand/src");
    let checked: Vec<String> = rust_files(&src).iter().flat_map(|f| detected(f)).collect();
    assert!(!checked.is_empty(), "vendor/rand has no detector");
    let bodies = enabled(&src);
    assert!(!bodies.is_empty(), "vendor/rand has no feature body");
    for (file, lit) in bodies {
        for feature in lit.split(',') {
            assert!(
                checked.iter().any(|c| c == feature),
                "{} enables {feature}, which its detector does not check",
                file.display()
            );
        }
    }
}

#[test]
fn features_are_detected_only_by_the_token_and_rand() {
    let allowed = [
        root().join("crates/gpu-sim/src/cpu.rs"),
        root().join("vendor/rand/src/lib.rs"),
    ];
    for dir in ["crates", "vendor"] {
        for file in rust_files(&root().join(dir)) {
            if !allowed.contains(&file) {
                assert!(
                    detected(&file).is_empty(),
                    "{} detects features",
                    file.display()
                );
            }
        }
    }
}
