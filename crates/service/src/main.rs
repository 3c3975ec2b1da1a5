//! The `tps-service` binary: `worker`, `coordinator`, `resume`,
//! `reference` and `query` subcommands (see the crate docs for the
//! architecture). This is a thin parser: flags feed a [`ServiceBuilder`],
//! and everything downstream works on the typed [`JobSpec`].

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use tps_service::config::{
    DieSpec, FaultPlan, KillSpec, QueryPlan, SamplerKind, ServiceBuilder, TransportKind,
    WorkerConfig,
};
use tps_service::{client, coordinator, worker, QueryOptions};

fn usage() -> String {
    "usage:\n  \
     tps-service worker --shard N --sampler l2|f0|g|turnstile --universe U --seed S \
     --checkpoint-dir DIR [--listen ADDR]\n  \
     tps-service coordinator --workers K --sampler l2|f0|g|turnstile --universe U --seed S \
     --count N --chunk C --checkpoint-every E --checkpoint-dir DIR \
     [--transport pipe|tcp] [--endpoints A,B,..] [--worker-exe PATH] \
     [--kill-shard J --kill-after-chunks M] [--die-after-chunks M [--die-mid-barrier true]] \
     [--query-listen ADDR [--await-query-after-chunks M]]\n  \
     tps-service resume --checkpoint-dir DIR [--worker-exe PATH] [--query-listen ADDR]\n  \
     tps-service reference --workers K --sampler l2|f0|g|turnstile --universe U --seed S --count N\n  \
     tps-service query --connect ADDR [--cached MAX_EPOCHS_STALE] [--timeout-ms T] \
     [--dial-attempts N]"
        .to_string()
}

/// Tiny `--key value` parser: every flag takes exactly one value.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)
            .ok_or_else(|| format!("missing --{key}"))?
            .parse()
            .map_err(|_| format!("--{key}: cannot parse value"))
    }

    fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot parse value"))
            })
            .transpose()
    }

    fn sampler(&self) -> Result<SamplerKind, String> {
        let spelled = self.get("sampler").ok_or("missing --sampler")?;
        SamplerKind::parse(spelled).ok_or_else(|| format!("unknown sampler kind {spelled:?}"))
    }

    fn transport(&self) -> Result<TransportKind, String> {
        let endpoints: Vec<String> = self
            .get("endpoints")
            .map(|list| list.split(',').map(str::to_string).collect())
            .unwrap_or_default();
        match self.get("transport") {
            None if endpoints.is_empty() => Ok(TransportKind::Pipe),
            None | Some("tcp") => Ok(TransportKind::Tcp { endpoints }),
            Some("pipe") if endpoints.is_empty() => Ok(TransportKind::Pipe),
            Some("pipe") => Err("--endpoints makes no sense with --transport pipe".into()),
            Some(other) => Err(format!("unknown transport {other:?}")),
        }
    }

    fn fault_plan(&self) -> Result<FaultPlan, String> {
        let kill = match (
            self.optional("kill-shard")?,
            self.optional("kill-after-chunks")?,
        ) {
            (Some(shard), Some(after_chunks)) => Some(KillSpec {
                shard,
                after_chunks,
            }),
            (None, None) => None,
            _ => return Err("--kill-shard and --kill-after-chunks go together".into()),
        };
        let die = self
            .optional("die-after-chunks")?
            .map(|after_chunks| -> Result<DieSpec, String> {
                Ok(DieSpec {
                    after_chunks,
                    mid_barrier: self.optional("die-mid-barrier")?.unwrap_or(false),
                })
            })
            .transpose()?;
        Ok(FaultPlan { kill, die })
    }

    fn query_plan(&self) -> Result<QueryPlan, String> {
        Ok(QueryPlan {
            listen: self.optional("query-listen")?,
            await_after_chunks: self.optional("await-query-after-chunks")?,
        })
    }
}

fn build_spec(flags: &Flags, for_reference: bool) -> Result<tps_service::JobSpec, String> {
    let mut builder = ServiceBuilder::new(flags.sampler()?, flags.required("workers")?)
        .universe(flags.required("universe")?)
        .seed(flags.required("seed")?)
        .count(flags.required("count")?)
        .transport(flags.transport()?);
    if for_reference {
        // The reference never checkpoints or spawns; defaults suffice.
        if let Some(dir) = flags.optional::<PathBuf>("checkpoint-dir")? {
            builder = builder.checkpoint_dir(dir);
        }
    } else {
        builder = builder
            .chunk(flags.required("chunk")?)
            .checkpoint_every(flags.required("checkpoint-every")?)
            .checkpoint_dir(flags.required::<PathBuf>("checkpoint-dir")?);
    }
    if let Some(exe) = flags.optional::<PathBuf>("worker-exe")? {
        builder = builder.worker_exe(exe);
    }
    builder.build()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => {
            let flags = Flags::parse(&args[1..])?;
            let cfg = WorkerConfig {
                shard: flags.required("shard")?,
                sampler: flags.sampler()?,
                universe: flags.required("universe")?,
                seed: flags.required("seed")?,
                checkpoint_dir: flags.required("checkpoint-dir")?,
                listen: flags.optional("listen")?,
            };
            worker::run(&cfg).map_err(|e| format!("worker {}: {e}", cfg.shard))
        }
        Some("coordinator") => {
            let flags = Flags::parse(&args[1..])?;
            let spec = build_spec(&flags, false)?;
            let report = coordinator::run_job(&spec, &flags.fault_plan()?, &flags.query_plan()?)
                .map_err(|e| e.to_string())?;
            println!("{report}");
            Ok(())
        }
        Some("resume") => {
            let flags = Flags::parse(&args[1..])?;
            let dir: PathBuf = flags.required("checkpoint-dir")?;
            let exe = flags.optional::<PathBuf>("worker-exe")?;
            let report = coordinator::resume_job(&dir, exe, &flags.query_plan()?)
                .map_err(|e| e.to_string())?;
            println!("{report}");
            Ok(())
        }
        Some("reference") => {
            let flags = Flags::parse(&args[1..])?;
            let spec = build_spec(&flags, true)?;
            let report = coordinator::run_reference(&spec).map_err(|e| e.to_string())?;
            println!("{report}");
            Ok(())
        }
        Some("query") => {
            let flags = Flags::parse(&args[1..])?;
            let addr: String = flags.required("connect")?;
            let options = match flags.optional("cached")? {
                Some(max_epochs_stale) => QueryOptions::cached(max_epochs_stale),
                None => QueryOptions::consistent(),
            };
            let mut client = client::QueryClient::new(addr);
            if let Some(ms) = flags.optional::<u64>("timeout-ms")? {
                client = client.read_timeout(std::time::Duration::from_millis(ms));
            }
            if let Some(attempts) = flags.optional("dial-attempts")? {
                client = client.dial_attempts(attempts);
            }
            let snapshot = client.query(&options).map_err(|e| e.to_string())?;
            // Metadata first, report line *last*: everything that parses
            // coordinator output takes the final line.
            println!(
                "query-cut epoch={} cut={} cached={}",
                snapshot.epoch, snapshot.cut, snapshot.cached
            );
            println!("{}", snapshot.value);
            Ok(())
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
