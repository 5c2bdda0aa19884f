//! README's kernel-performance table quotes the committed
//! `BENCH_kernels.json` cell for cell; this test fails when they drift.

use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The number written after `"key": ` on `line`, verbatim.
fn json_number<'a>(line: &'a str, key: &str) -> &'a str {
    let pattern = format!("\"{key}\": ");
    let start = line
        .find(&pattern)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pattern.len();
    let rest = &line[start..];
    rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim()
}

/// The rows `bench_kernels` wrote, as README should quote them: one per
/// GEMM size.
fn rows_from_json(json: &str) -> Vec<Vec<String>> {
    json.lines()
        .filter(|line| line.contains("\"n\": "))
        .map(|line| {
            vec![
                format!("{}³ BF16 GEMM (emulated)", json_number(line, "n")),
                format!("{} s", json_number(line, "legacy_s")),
                format!("{} s", json_number(line, "packed_s")),
                format!("{}×", json_number(line, "packed_speedup")),
            ]
        })
        .collect()
}

/// The body rows of the first table under README's "## Kernel performance".
fn rows_from_readme(readme: &str) -> Vec<Vec<String>> {
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Kernel performance"))
        .expect("README has a Kernel performance section");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|cell| cell.trim().to_owned())
                .collect()
        })
        .collect()
}

#[test]
fn readme_kernel_table_quotes_bench_kernels_json() {
    let expected = rows_from_json(&repo_file("BENCH_kernels.json"));
    assert_eq!(expected.len(), 2, "two GEMM sizes");
    assert_eq!(rows_from_readme(&repo_file("README.md")), expected);
}
