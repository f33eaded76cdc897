//! `figures` — regenerate the paper's figures and quantitative claims.
//!
//! ```text
//! figures [--exp e1,e4,...|all] [--scale small|medium|large] [--shards K]
//! ```
//!
//! Prints a paper-vs-measured report per experiment (see DESIGN.md §3 for
//! the experiment index and EXPERIMENTS.md for recorded outcomes).

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
                if val == "all" {
                    ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
                } else {
                    ids = val.split(',').map(|s| s.trim().to_lowercase()).collect();
                }
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
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }

    println!(
        "simspatial figures — reproducing Heinis, Tauheed, Ailamaki (EDBT 2014)\n\
         scale: {scale:?} ({} elements, {} queries/batch), {shards} engine shard(s)\n",
        scale.elements(),
        scale.queries()
    );
    for id in &ids {
        match experiments::run(id, scale, shards) {
            Some(report) => print!("{report}"),
            None => eprintln!("unknown experiment id: {id} (expected e1..e13)"),
        }
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: figures [--exp e1,e2,...|all] [--scale small|medium|large] [--shards K]\n\
         experiments:\n  e1  Figure 2 (disk vs memory breakdown)\n  e2  Figure 3 (in-memory breakdown)\n  \
         e3  Figure 4 (partitioning waste)\n  e4  update vs rebuild crossover\n  e5  plasticity statistics\n  \
         e6  CR-Tree vs R-Tree\n  e7  grid resolution sweep\n  e8  kNN structures incl. LSH\n  \
         e9  strategies under massive updates\n  e10 spatial self-join\n  e11 maintenance/query shift\n  \
         e12 mesh connectivity queries\n  e13 index vs scan amortisation\n  \
         a1  ablation: bulk loading (STR/Hilbert/Morton)\n  a2  ablation: node size\n  \
         a3  ablation: small-cell join cell sizing"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
