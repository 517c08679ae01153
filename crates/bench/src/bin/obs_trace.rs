//! Convert flight-recorder output into Chrome `trace_event` JSON that
//! loads directly into Perfetto (ui.perfetto.dev) or `chrome://tracing`.
//!
//! ```text
//! obs_trace convert  <input> [-o trace.json]   # bundle/JSONL/trace -> trace
//! obs_trace validate <input>                   # structural checks, exit 1 on bad
//! obs_trace summary  <input> [--top N]         # top-N slice table
//! obs_trace merge    <bundle...> -o out.json [--min-link F]
//!                                              # clock-aligned multi-process trace
//! ```
//!
//! `merge` fuses one postmortem bundle per process into a single
//! Perfetto timeline: clocks are aligned from the send timestamps
//! echoed in wire receive records, and every delivered frame is drawn
//! as a causal flow arrow from sender to receiver. With `--min-link F`
//! the exit code is 1 unless at least fraction `F` of delivered frames
//! have a complete sender→receiver link — the CI gate for the chaos
//! smoke.
//!
//! The input format is sniffed, not flagged: a JSON object with
//! `traceEvents` is already a trace, one with `version` + `tracks` is a
//! postmortem bundle (`FEDKNOW_TRACE_DIR`), and anything that fails to
//! parse as a single JSON document is treated as a JSONL record stream
//! (`FEDKNOW_OBS=trace.jsonl`). Bundles and JSONL hold the same
//! flight-recorder records, so both convert through one path and give
//! the same timeline: real span start times, fault and violation
//! instants, and wire flows. Exit codes: 0 ok, 1 invalid input or
//! failed validation, 2 usage/IO error.

use fedknow_obs::trace;
use serde_json::Value;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let code = run(&argv);
    std::process::exit(code);
}

fn run(argv: &[String]) -> i32 {
    let Some(cmd) = argv.get(1) else {
        return usage("missing subcommand");
    };
    match cmd.as_str() {
        "convert" => convert(argv),
        "validate" => validate(argv),
        "summary" => summary(argv),
        "merge" => merge(argv),
        other => usage(&format!("unknown subcommand {other}")),
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!(
        "error: {msg}\n\
         usage: obs_trace convert  <bundle.json|trace.jsonl|trace.json> [-o out.json]\n\
         \x20      obs_trace validate <input>\n\
         \x20      obs_trace summary  <input> [--top N]\n\
         \x20      obs_trace merge    <bundle.json...> [-o out.json] [--min-link F]"
    );
    2
}

/// Load the input file and convert it to trace JSON, sniffing the
/// format. Returns the trace `Value` or a printable error.
fn load_trace(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    match serde_json::from_str::<Value>(&text) {
        Ok(doc) if doc.get("traceEvents").is_some() => Ok(doc),
        Ok(doc) if doc.get("version").is_some() && doc.get("tracks").is_some() => {
            trace::bundle_to_trace(&doc).map_err(|e| format!("convert bundle {path}: {e}"))
        }
        Ok(_) => Err(format!(
            "{path}: JSON document is neither a trace (traceEvents) nor a \
             postmortem bundle (version + tracks)"
        )),
        // Not one JSON document — assume a JSONL record stream.
        Err(_) => {
            let records = jsonl_records(&text).map_err(|e| format!("{path}: {e}"))?;
            trace::records_to_trace(&records).map_err(|e| format!("convert jsonl {path}: {e}"))
        }
    }
}

/// Parse each non-blank line of a JSONL stream as one JSON record.
fn jsonl_records(text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str(line).map_err(|e| format!("line {}: not JSON: {e}", i + 1))
        })
        .collect()
}

fn convert(argv: &[String]) -> i32 {
    let Some(input) = argv.get(2) else {
        return usage("convert expects an input file");
    };
    let out = argv
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| argv.get(i + 1));
    let trace_doc = match load_trace(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    // Converting implies validating: never emit a file Perfetto rejects.
    if let Err(e) = trace::validate(&trace_doc) {
        eprintln!("error: converted trace failed validation: {e}");
        return 1;
    }
    let json = serde_json::to_string(&trace_doc).expect("serialise trace");
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: write {path}: {e}");
                return 2;
            }
            eprintln!("[obs_trace] wrote {path}");
        }
        None => println!("{json}"),
    }
    0
}

fn validate(argv: &[String]) -> i32 {
    let Some(input) = argv.get(2) else {
        return usage("validate expects an input file");
    };
    match load_trace(input).and_then(|t| trace::validate(&t)) {
        Ok(stats) => {
            println!(
                "[obs_trace] OK: {} events ({} slices, {} instants, {} counter samples, \
                 {} flows / {} finished) across {} tracks, span {:.3}ms",
                stats.events,
                stats.slices,
                stats.instants,
                stats.counters,
                stats.flow_starts,
                stats.flow_ends,
                stats.tracks,
                stats.max_ts_us / 1_000.0
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn merge(argv: &[String]) -> i32 {
    let mut inputs: Vec<&String> = Vec::new();
    let mut out: Option<&String> = None;
    let mut min_link: Option<f64> = None;
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "-o" => {
                out = argv.get(i + 1);
                i += 2;
            }
            "--min-link" => {
                let Some(f) = argv.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    return usage("--min-link expects a fraction in [0, 1]");
                };
                min_link = Some(f);
                i += 2;
            }
            _ => {
                inputs.push(&argv[i]);
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        return usage("merge expects at least one bundle file");
    }
    let mut bundles = Vec::with_capacity(inputs.len());
    for path in &inputs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: read {path}: {e}");
                return 2;
            }
        };
        match serde_json::from_str::<Value>(&text) {
            Ok(doc) if doc.get("version").is_some() && doc.get("tracks").is_some() => {
                bundles.push(doc);
            }
            Ok(_) => {
                eprintln!("error: {path}: not a postmortem bundle (version + tracks)");
                return 1;
            }
            Err(e) => {
                eprintln!("error: {path}: not JSON: {e}");
                return 1;
            }
        }
    }
    let (trace_doc, stats) = match trace::merge_bundles(&bundles) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: merge: {e}");
            return 1;
        }
    };
    if let Err(e) = trace::validate(&trace_doc) {
        eprintln!("error: merged trace failed validation: {e}");
        return 1;
    }
    let offsets: Vec<String> = stats
        .offsets_us
        .iter()
        .map(|o| format!("{o:+.1}µs"))
        .collect();
    println!(
        "[obs_trace] merged {} bundles: {} delivered frames, {} linked ({:.2}%), \
         {} dropped, clock offsets [{}]",
        stats.bundles,
        stats.delivered,
        stats.linked,
        stats.link_fraction * 100.0,
        stats.dropped,
        offsets.join(", ")
    );
    let json = serde_json::to_string(&trace_doc).expect("serialise trace");
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: write {path}: {e}");
                return 2;
            }
            eprintln!("[obs_trace] wrote {path}");
        }
        None => println!("{json}"),
    }
    if let Some(min) = min_link {
        if stats.link_fraction < min {
            eprintln!(
                "error: link fraction {:.4} below required {min}",
                stats.link_fraction
            );
            return 1;
        }
    }
    0
}

fn summary(argv: &[String]) -> i32 {
    let Some(input) = argv.get(2) else {
        return usage("summary expects an input file");
    };
    let top = argv
        .iter()
        .position(|a| a == "--top")
        .and_then(|i| argv.get(i + 1))
        .map(|s| s.parse::<usize>())
        .unwrap_or(Ok(10));
    let Ok(top) = top else {
        return usage("--top expects an integer");
    };
    match load_trace(input).and_then(|t| trace::summarize(&t, top)) {
        Ok(table) => {
            println!("{table}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
