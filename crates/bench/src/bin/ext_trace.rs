//! Replays the bundled sample trace on the heterogeneous fleet and prints
//! the rendered study; `--spans <path>` writes the per-request span log as
//! TSV. The span TSV is validated after writing, so CI fails on an empty
//! or malformed span file.

fn main() {
    let mut spans_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spans" => spans_path = args.next(),
            other => {
                eprintln!("unknown argument: {other} (supported: --spans <path>)");
                std::process::exit(2);
            }
        }
    }

    print!("{}", llmsim_bench::experiments::ext_trace::render());
    if let Some(path) = spans_path {
        let tsv = llmsim_bench::experiments::ext_trace::spans_tsv();
        std::fs::write(&path, &tsv).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        let written = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("failed to read back {path}: {e}");
            std::process::exit(1);
        });
        match llmsim_report::validate_tsv(&written) {
            Ok(rows) => eprintln!("wrote {path} ({rows} spans)"),
            Err(e) => {
                eprintln!("span TSV {path} is malformed: {e}");
                std::process::exit(1);
            }
        }
    }
}
