//! `galvatron-served` — run the plan-serving daemon: one fleet replica
//! with no peers and no gossip.
//!
//! ```text
//! galvatron-served [--addr HOST:PORT] [--workers N] [--queue-capacity Q]
//!                  [--cache-mib M] [--persist FILE] [--max-batch B]
//!                  [--jobs J] [--no-prune]
//! ```
//!
//! The daemon prints its bound address on stdout (machine-readable, for
//! scripts that bind port 0) and narrates on stderr. It serves until stdin
//! reaches EOF or a line saying `quit`, then drains, persists the response
//! cache (when `--persist` is given) and exits — so `echo quit |
//! galvatron-served ...` is a complete smoke test.

use galvatron_core::OptimizerConfig;
use galvatron_fleet::{FleetReplica, ReplicaConfig};
use galvatron_obs::{MetricsRegistry, NullSink, Obs};
use galvatron_planner::PlannerConfig;
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("galvatron-served: {message}");
            std::process::exit(2);
        }
    };
    let obs = Obs::new(Arc::new(MetricsRegistry::new()), Arc::new(NullSink));
    let handle = match FleetReplica::start(config.clone(), obs) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("galvatron-served: failed to bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    // Machine-readable bound address for scripts that pass port 0.
    println!("{}", handle.addr());
    eprintln!(
        "galvatron-served: listening on {} ({} workers, queue capacity {}, cache {} MiB{})",
        handle.addr(),
        config.workers,
        config.queue_capacity,
        config.cache_max_bytes >> 20,
        match &config.persist_path {
            Some(path) => format!(", persisting to {}", path.display()),
            None => String::new(),
        }
    );

    // Serve until stdin closes or says quit.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if line.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    let stats = handle.stats();
    eprintln!(
        "galvatron-served: shutting down — {} requests, {} computed, {} coalesced, \
         {} shed, {} cache hits",
        stats.requests, stats.computed, stats.coalesced, stats.shed, stats.cache_hits
    );
    handle.shutdown();
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<ReplicaConfig, String> {
    let mut config = ReplicaConfig {
        workers: 2,
        gossip_fanout: 0,
        instance: Some("serve-0".to_string()),
        ..ReplicaConfig::default()
    };
    let mut optimizer = OptimizerConfig::default();
    let mut planner = PlannerConfig::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => config.workers = parse(&value("--workers")?, "--workers")?,
            "--queue-capacity" => {
                config.queue_capacity = parse(&value("--queue-capacity")?, "--queue-capacity")?;
            }
            "--cache-mib" => {
                let mib: u64 = parse(&value("--cache-mib")?, "--cache-mib")?;
                config.cache_max_bytes = mib
                    .checked_mul(1 << 20)
                    .ok_or_else(|| format!("--cache-mib {mib} overflows a byte count"))?;
            }
            "--persist" => config.persist_path = Some(PathBuf::from(value("--persist")?)),
            "--instance" => config.instance = Some(value("--instance")?),
            "--max-batch" => optimizer.max_batch = parse(&value("--max-batch")?, "--max-batch")?,
            "--jobs" => planner.jobs = parse(&value("--jobs")?, "--jobs")?,
            "--no-prune" => planner.prune = false,
            "--help" | "-h" => {
                return Err("usage: galvatron-served [--addr HOST:PORT] [--workers N] \
                     [--queue-capacity Q] [--cache-mib M] [--persist FILE] \
                     [--instance NAME] [--max-batch B] [--jobs J] [--no-prune]"
                    .to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    planner.optimizer = optimizer;
    config.planner = planner;
    Ok(config)
}

fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_string)
    }

    #[test]
    fn cache_size_whose_byte_count_overflows_is_rejected() {
        let largest = u64::MAX >> 20;
        let config = parse_args(args(&format!("--cache-mib {largest}"))).unwrap();
        assert_eq!(config.cache_max_bytes, largest << 20);
        let err = parse_args(args(&format!("--cache-mib {}", largest + 1))).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }
}
