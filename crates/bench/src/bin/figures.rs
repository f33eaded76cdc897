//! `figures` — regenerate the paper's figures and quantitative claims.
//!
//! ```text
//! figures [--exp e1,e4,...|all] [--scale small|medium|large] [--shards K]
//! ```
//!
//! Prints a paper-vs-measured report per experiment (`--help` lists them;
//! the paper artifact each one reproduces is tabulated in the crate docs).

#![forbid(unsafe_code)]

use simspatial_bench::{experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Medium;
    let mut shards = 1usize;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                let val = args
                    .get(i)
                    .unwrap_or_else(|| usage("missing value for --exp"));
                // Empty means all, below.
                ids = if val == "all" {
                    Vec::new()
                } else {
                    val.split(',').map(|s| s.trim().to_lowercase()).collect()
                };
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    Some("large") => Scale::Large,
                    _ => usage("scale must be small|medium|large"),
                };
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage("shards must be a positive integer"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if ids.is_empty() {
        ids = experiments::ALL
            .iter()
            .map(|(id, _)| id.to_string())
            .collect();
    }
    // Reject a bad id before spending minutes on the good ones.
    let known = |id: &str| experiments::ALL.iter().any(|(k, _)| *k == id);
    if let Some(bad) = ids.iter().find(|id| !known(id)) {
        usage(&format!("unknown experiment id: {bad}"));
    }

    println!(
        "simspatial figures — reproducing Heinis, Tauheed, Ailamaki (EDBT 2014)\n\
         scale: {scale:?} ({} elements, {} queries/batch), {shards} engine shard(s)\n",
        scale.elements(),
        scale.queries()
    );
    for id in &ids {
        let report = experiments::run(id, scale, shards).expect("ids were validated above");
        print!("{report}");
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: figures [--exp e1,e2,...|all] [--scale small|medium|large] [--shards K]\n\
         experiments:"
    );
    for (id, summary) in &experiments::ALL {
        eprintln!("  {id:<3} {summary}");
    }
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
