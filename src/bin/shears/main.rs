//! `shears` — the command-line face of the latency-shears reproduction.
//!
//! ```text
//! shears reproduce [SECTION...]     the paper's figures and numbers (EXPERIMENTS.md)
//! shears country CC [CC...]         per-country reachability report
//! shears trace CC                   traceroute a country's probe to its nearest region
//! shears serve [--addr HOST:PORT]   run the Atlas-style HTTP API
//! shears dataset OUT_DIR            export the campaign dataset (JSONL + metadata)
//! ```
//!
//! Every subcommand takes `--scale quick|default|paper|PROBESxROUNDS`
//! (default `1200x24`, EXPERIMENTS.md's default column; `paper` is the
//! 3200-probe × 200-round campaign). Argument parsing is hand-rolled:
//! the surface is five subcommands and two flags, which does not
//! justify a dependency.

mod reproduce;

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use latency_shears::analysis::report::ms;
use latency_shears::analysis::stats::Summary;
use latency_shears::api::{ApiServer, AtlasService};
use latency_shears::atlas::json::{self, FromJson, ToJson};
use latency_shears::atlas::json_struct;
use latency_shears::netsim::queue::DiurnalLoad;
use latency_shears::netsim::stochastic::SimRng;
use latency_shears::netsim::TracerouteProber;
use latency_shears::prelude::*;

const USAGE: &str = "\
usage: shears <reproduce|country|trace|serve|dataset> [args]
  reproduce [SECTION...]   fig1..fig8, text1..text4, ext1..ext7 (default: all)
  country CC [CC...]       per-country reachability report
  trace CC                 traceroute a country's probe to its nearest region
  serve                    run the Atlas-style HTTP API
  dataset OUT_DIR          export samples.jsonl, probes.json and regions.json
flags: --scale S   quick (400x8), default (1200x24), paper (3200x200) or PROBESxROUNDS
       --addr A    serve address (default 127.0.0.1:8780)";

/// Campaign scale: fleet size × rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scale {
    /// Probe-fleet target size.
    probes: usize,
    /// Three-hourly measurement rounds.
    rounds: u32,
}

impl Scale {
    /// EXPERIMENTS.md's default column: ≈130 k samples.
    const DEFAULT: Scale = Scale {
        probes: 1200,
        rounds: 24,
    };

    /// The paper-scale run: 3,227 probes, 2,821,425 samples.
    const PAPER: Scale = Scale {
        probes: 3200,
        rounds: 200,
    };

    /// Parses `quick`, `default`, `paper` or `<probes>x<rounds>`. A
    /// scale with zero probes or zero rounds has nothing to measure and
    /// is refused, as is anything else.
    fn parse(spec: &str) -> Result<Scale, String> {
        let scale = match spec {
            "quick" => Scale {
                probes: 400,
                rounds: 8,
            },
            "default" => Scale::DEFAULT,
            "paper" => Scale::PAPER,
            custom => custom
                .split_once('x')
                .and_then(|(p, r)| {
                    Some(Scale {
                        probes: p.trim().parse().ok()?,
                        rounds: r.trim().parse().ok()?,
                    })
                })
                .ok_or_else(|| {
                    format!("--scale {spec:?}: expected quick, default, paper or PROBESxROUNDS")
                })?,
        };
        if scale.probes == 0 || scale.rounds == 0 {
            return Err(format!(
                "--scale {spec:?}: needs at least one probe and one round"
            ));
        }
        Ok(scale)
    }
}

struct Options {
    scale: Scale,
    addr: String,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::DEFAULT,
        addr: "127.0.0.1:8780".to_string(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                opts.scale = Scale::parse(it.next().ok_or("--scale needs a value")?)?;
            }
            "--addr" => {
                opts.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone();
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            positional => opts.positional.push(positional.to_string()),
        }
    }
    Ok(opts)
}

/// The platform every subcommand and section measures: the full
/// catalogue and a fixed fleet seed, so each run sees the same world.
fn platform_config(scale: Scale) -> PlatformConfig {
    PlatformConfig {
        fleet: FleetConfig {
            target_size: scale.probes,
            seed: 42,
        },
        ..PlatformConfig::default()
    }
}

/// The main campaign: the paper's configuration for `scale.rounds`.
fn campaign_config(scale: Scale) -> CampaignConfig {
    CampaignConfig {
        rounds: scale.rounds,
        ..CampaignConfig::paper_scale()
    }
}

/// Runs a campaign on all available cores.
fn run_campaign(platform: &Platform, cfg: CampaignConfig) -> ResultStore {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    Campaign::new(platform, cfg)
        .run_parallel(threads)
        .expect("paper-scale configs carry an unlimited credit grant")
}

fn build_main_platform(scale: Scale) -> Platform {
    eprintln!("building platform ({} probes)...", scale.probes);
    Platform::build(&platform_config(scale))
}

fn run_main_campaign(platform: &Platform, scale: Scale) -> ResultStore {
    eprintln!("running campaign ({} rounds)...", scale.rounds);
    let store = run_campaign(platform, campaign_config(scale));
    eprintln!(
        "campaign done: {} samples from {} probes",
        store.len(),
        platform.probes().len()
    );
    store
}

fn cmd_country(opts: &Options) -> ExitCode {
    if opts.positional.is_empty() {
        eprintln!("usage: shears country CC [CC...]");
        return ExitCode::FAILURE;
    }
    let platform = build_main_platform(opts.scale);
    let store = run_main_campaign(&platform, opts.scale);
    let data = CampaignData::new(&platform, &store);
    for code in &opts.positional {
        let code = code.to_uppercase();
        let Some(country) = platform.countries().by_code(&code) else {
            eprintln!("unknown country code {code}");
            continue;
        };
        let rtts: Vec<f64> = data
            .filtered_responded()
            .filter(|(p, _)| p.country == code)
            .map(|(_, s)| f64::from(s.min_ms))
            .collect();
        match Summary::of(&rtts) {
            Some(s) => println!(
                "{} ({}): n={} min={} median={} p95={} — nearest region: {}",
                country.name,
                country.continent,
                s.n,
                ms(s.min),
                ms(s.median),
                ms(s.p95),
                platform
                    .catalog()
                    .nearest(country.centroid, 1)
                    .first()
                    .map(|r| r.label())
                    .unwrap_or_default(),
            ),
            None => println!("{}: no samples", country.name),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_trace(opts: &Options) -> ExitCode {
    let Some(code) = opts.positional.first().map(|c| c.to_uppercase()) else {
        eprintln!("usage: shears trace CC");
        return ExitCode::FAILURE;
    };
    let platform = build_main_platform(opts.scale);
    let Some(probe) = platform
        .probes()
        .iter()
        .find(|p| p.country == code && !p.is_privileged())
    else {
        eprintln!("no probe in {code}");
        return ExitCode::FAILURE;
    };
    let Some(&target) = platform.targets_for(probe, 1, 1).first() else {
        eprintln!("no reachable region for {code}");
        return ExitCode::FAILURE;
    };
    let region = platform.region(target as usize);
    println!(
        "traceroute from probe #{} ({}, {}) to {}:",
        probe.id.0,
        code,
        probe.access.tech.atlas_tag(),
        region.label()
    );
    let to = platform.dc_node(target as usize);
    let table = platform.route_table_over([(probe.id, to)]);
    let mut prober = TracerouteProber::with_table(platform.topology(), &table);
    let mut rng = SimRng::new(0x7ace);
    let Some(out) = prober.trace(
        platform.probe_node(probe.id),
        to,
        Some(probe.access),
        DiurnalLoad::residential(),
        SimTime::from_hours(2),
        &mut rng,
    ) else {
        eprintln!("disconnected");
        return ExitCode::FAILURE;
    };
    for hop in &out.hops {
        println!(
            "  {:>2}  {:<14} {}",
            hop.ttl,
            format!("{:?}", hop.kind),
            hop.rtt_ms.map(ms).unwrap_or_else(|| "*".into())
        );
    }
    ExitCode::SUCCESS
}

fn cmd_serve(opts: &Options) -> ExitCode {
    let platform = build_main_platform(opts.scale);
    let server = match ApiServer::spawn(opts.addr.as_str(), AtlasService::new(platform)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "Atlas-style API listening on http://{}",
        server.local_addr()
    );
    println!("endpoints: /api/v2/probes /api/v2/regions /api/v2/measurements /api/v2/traceroutes /api/v2/credits");
    println!("press Ctrl-C to stop.");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

// The dataset's records: the fields analysis joins on, in key order,
// the order the files had when they were written from sorted JSON maps.

/// One probe's metadata.
#[derive(Debug, PartialEq)]
struct ProbeRecord {
    continent: String,
    country: String,
    id: u32,
    lat: f64,
    lon: f64,
    stability: f64,
    tags: Vec<String>,
}
json_struct!(ProbeRecord {
    continent,
    country,
    id,
    lat,
    lon,
    stability,
    tags
});

/// One region's metadata.
#[derive(Debug, PartialEq)]
struct RegionRecord {
    city: String,
    code: String,
    country: String,
    index: usize,
    launched: u16,
    provider: String,
}
json_struct!(RegionRecord {
    city,
    code,
    country,
    index,
    launched,
    provider
});

/// Writes `records` to `path` as one JSON array and checks that the
/// file decodes back to them.
fn write_verified<T: ToJson + FromJson + PartialEq>(
    path: &Path,
    records: &[T],
) -> Result<(), String> {
    fs::write(path, json::to_vec(records)).map_err(|e| format!("write {}: {e}", path.display()))?;
    let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let back: Vec<T> = json::from_slice(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    if back != records {
        return Err(format!("{} did not round-trip", path.display()));
    }
    Ok(())
}

/// Exports the campaign the way the paper publishes its dataset (3.2 M
/// datapoints, "available for public use"): `samples.jsonl`, one JSON
/// record per round, plus `probes.json` and `regions.json` metadata,
/// each read back and compared with what was written.
fn export_dataset(out_dir: &Path, platform: &Platform, store: &ResultStore) -> Result<(), String> {
    fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    let samples_path = out_dir.join("samples.jsonl");
    fs::write(&samples_path, store.to_jsonl())
        .map_err(|e| format!("write {}: {e}", samples_path.display()))?;

    let probes: Vec<ProbeRecord> = platform
        .probes()
        .iter()
        .map(|p| ProbeRecord {
            continent: p.continent.short().to_string(),
            country: p.country.clone(),
            id: p.id.0,
            lat: p.location.lat,
            lon: p.location.lon,
            stability: p.stability,
            tags: p.tags.clone(),
        })
        .collect();
    let probes_path = out_dir.join("probes.json");
    write_verified(&probes_path, &probes)?;

    let regions: Vec<RegionRecord> = platform
        .catalog()
        .regions()
        .iter()
        .enumerate()
        .map(|(i, r)| RegionRecord {
            city: r.city.to_string(),
            code: r.code.to_string(),
            country: r.country.to_string(),
            index: i,
            launched: r.launched,
            provider: r.provider.to_string(),
        })
        .collect();
    let regions_path = out_dir.join("regions.json");
    write_verified(&regions_path, &regions)?;

    let text = fs::read_to_string(&samples_path)
        .map_err(|e| format!("read {}: {e}", samples_path.display()))?;
    let reloaded =
        ResultStore::from_jsonl(&text).map_err(|e| format!("{}: {e}", samples_path.display()))?;
    if reloaded != *store {
        return Err(format!("{} did not round-trip", samples_path.display()));
    }

    let size = |p: &Path| fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    println!("dataset written to {}:", out_dir.display());
    println!(
        "  samples.jsonl  {:>12} bytes  ({} samples, verified round-trip)",
        size(&samples_path),
        store.len()
    );
    println!(
        "  probes.json    {:>12} bytes  ({} probes)",
        size(&probes_path),
        platform.probes().len()
    );
    println!(
        "  regions.json   {:>12} bytes  ({} regions)",
        size(&regions_path),
        platform.catalog().regions().len()
    );
    Ok(())
}

fn cmd_dataset(opts: &Options) -> ExitCode {
    let Some(out_dir) = opts.positional.first() else {
        eprintln!("usage: shears dataset OUT_DIR");
        return ExitCode::FAILURE;
    };
    let platform = build_main_platform(opts.scale);
    let store = run_main_campaign(&platform, opts.scale);
    match export_dataset(Path::new(out_dir), &platform, &store) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_reproduce(opts: &Options) -> ExitCode {
    match reproduce::select(&opts.positional) {
        Ok(sections) => {
            reproduce::run(opts.scale, &sections);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_args(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "reproduce" => cmd_reproduce(&opts),
        "country" => cmd_country(&opts),
        "trace" => cmd_trace(&opts),
        "serve" => cmd_serve(&opts),
        "dataset" => cmd_dataset(&opts),
        other => {
            eprintln!("unknown command {other}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("paper"), Ok(Scale::PAPER));
        assert_eq!(Scale::parse("default"), Ok(Scale::DEFAULT));
        assert_eq!(
            Scale::parse("800x12"),
            Ok(Scale {
                probes: 800,
                rounds: 12
            })
        );
        assert_eq!(Scale::parse("quick").unwrap().probes, 400);
        for refused in [
            "800x", "nonsense", "paepr", "", "x", "50x0", "0x12", "0x0", "-5x2",
        ] {
            assert!(Scale::parse(refused).is_err(), "{refused:?} parsed");
        }
    }
}
