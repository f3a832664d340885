//! Argument parsing (dependency-free, flag-per-option).

use biaslab_core::setup::LinkOrder;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::InputSize;

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage: biaslab <command> [options]

commands:
  list                         list the benchmark suite
  machines                     list the machine models
  run <benchmark>              measure one benchmark
  disasm <benchmark>           print the linked disassembly
  ir <benchmark>               print the optimized IR
  audit <benchmark>            report environment & link-order bias
  analyze <benchmark>|all      predict layout-sensitivity statically
                               (`all` ranks the suite, still zero runs)
  lint <benchmark>|all         biaslint: layout-hazard findings with
                               named mechanisms and remedies (static,
                               zero simulations; classes:
                               loop-fetch-straddle, entry-alignment,
                               btb-collision, stack-residue, dead-store,
                               uninit-read)
  trace <file>                 report on a telemetry trace (from
                               `repro ... --trace`): slowest measurements,
                               cache effectiveness, worker utilization
  serve                        measurement daemon: JSONL requests over a
                               unix/tcp socket, bounded admission queue,
                               explicit shed responses under overload,
                               supervised worker pool (panicked workers
                               respawn; `stats` reports health ok |
                               degraded | draining), per-request
                               deadlines, SIGTERM graceful drain and
                               crash-recoverable sweep journals
  client <op> [<benchmark>]    one-shot daemon request; op is ping,
                               stats, shutdown, measure or sweep
  loadgen                      drive a daemon with randomized-setup
                               requests from concurrent connections and
                               report throughput, latency percentiles
                               and cache effectiveness
  survey                       print the 133-paper literature survey

options (run/disasm/audit/analyze):
  --opt <O0|O1|O2|O3>          optimization level       [default O2]
  --machine <name>             pentium4 | core2 | o3cpu [default core2]
  --env <bytes>                environment size         [default 0]
  --order <spec>               default|reversed|alpha|rand:<seed>
  --size <test|ref>            input size               [default test]
  --profile                    (run) print a per-function profile
  --explain                    (analyze) per-level image facts
  --json                       (lint) machine-readable JSONL findings
  --deny <class>               (lint) exit nonzero if any finding of
                               the class is reported

options (trace):
  --summary                    full report (the default)
  --flame                      merged profiles, folded-stacks form

options (serve/client/loadgen):
  --addr <a>                   unix:<path> | tcp:<host:port>
                               [default unix:/tmp/biaslab.sock]
  --workers <n>                (serve) worker-pool threads   [default 4]
  --queue <n>                  (serve) admission-queue bound [default 64]
  --drain-timeout <ms>         (serve) grace period for in-flight work
                               on SIGTERM / shutdown drain [default 5000]
  --id <n>                     (client) request id           [default 1]
  --budget <n>                 (client) instruction-budget override;
                               0 keeps the machine default
  --deadline <ms>              (client measure/sweep) request deadline;
                               expiry answers `status:deadline` instead
                               of burning a simulation [default 0 = none]
  --mode <now|drain>           (client shutdown) immediate stop, or
                               finish in-flight work first [default now]
  --envs <a,b,..>              (client sweep) env-size grid in bytes
  --attempts <n>               (client) retry budget         [default 4]
  --clients <n>                (loadgen) concurrent clients  [default 8]
  --requests <n>               (loadgen) requests per client [default 50]
  --seed <n>                   (loadgen) master seed         [default 1]

environment:
  BIASLAB_CACHE_CAP=<n>        cap the in-memory measurement cache at n
                               records, evicting the oldest first
  BIASLAB_FAULTS=<spec>        deterministic fault injection, e.g.
                               seed=7,save.io=0.5,leader.panic=@1
  BIASLAB_RESULTS_DIR=<dir>    relocate results/ (measurements, traces)";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `biaslab list`
    List,
    /// `biaslab machines`
    Machines,
    /// `biaslab survey`
    Survey,
    /// `biaslab run <bench> …`
    Run(RunArgs),
    /// `biaslab disasm <bench> …`
    Disasm {
        /// Benchmark name.
        bench: String,
        /// Optimization level.
        opt: OptLevel,
    },
    /// `biaslab ir <bench> …`
    Ir {
        /// Benchmark name.
        bench: String,
        /// Optimization level.
        opt: OptLevel,
    },
    /// `biaslab audit <bench> …`
    Audit {
        /// Benchmark name.
        bench: String,
        /// Machine model name.
        machine: String,
        /// Input size.
        size: InputSize,
    },
    /// `biaslab analyze <bench> …`
    Analyze {
        /// Benchmark name.
        bench: String,
        /// Machine model name.
        machine: String,
        /// Print per-level image facts, not just the factor table.
        explain: bool,
    },
    /// `biaslab lint <bench>|all …`
    Lint {
        /// Benchmark name, or `all` for the whole suite.
        bench: String,
        /// Machine model name.
        machine: String,
        /// Emit machine-readable JSONL instead of the text report.
        json: bool,
        /// Exit nonzero if any finding of this class is reported.
        deny: Option<String>,
    },
    /// `biaslab serve --addr <addr> …`
    Serve {
        /// Endpoint to bind (`unix:<path>` or `tcp:<host:port>`).
        addr: String,
        /// Worker-pool threads.
        workers: usize,
        /// Admission-queue bound.
        queue_depth: usize,
        /// Grace period (ms) for in-flight work when draining.
        drain_timeout_ms: u64,
    },
    /// `biaslab client <op> [<bench>] --addr <addr> …`
    Client(ClientArgs),
    /// `biaslab loadgen --addr <addr> …`
    Loadgen {
        /// Daemon endpoint.
        addr: String,
        /// Concurrent client connections.
        clients: usize,
        /// Requests per client.
        requests: usize,
        /// Master seed for the randomized setups.
        seed: u64,
    },
    /// `biaslab trace <file> [--summary|--flame]`
    Trace {
        /// Path to a trace JSONL file written by `repro ... --trace`.
        file: String,
        /// Render merged profiles in folded-stacks form instead of the
        /// summary report.
        flame: bool,
    },
}

/// Options for `biaslab client`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientArgs {
    /// Daemon endpoint.
    pub addr: String,
    /// Operation: `ping`, `stats`, `shutdown`, `measure`, `sweep`.
    pub op: String,
    /// Benchmark name (measure/sweep only).
    pub bench: String,
    /// Machine model name.
    pub machine: String,
    /// Optimization level.
    pub opt: OptLevel,
    /// Link order.
    pub order: LinkOrder,
    /// Environment size in bytes (0 = empty), sent as given: the daemon
    /// validates it.
    pub env_bytes: u64,
    /// Input size.
    pub size: InputSize,
    /// Instruction-budget override (0 keeps the machine default).
    pub budget: u64,
    /// Request id echoed in the response.
    pub id: u64,
    /// Environment-size grid for sweeps.
    pub envs: Vec<u64>,
    /// Retry budget for torn responses.
    pub attempts: u32,
    /// Request deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// `shutdown` drains in-flight work instead of stopping immediately.
    pub drain: bool,
}

/// Options for `biaslab run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub bench: String,
    pub opt: OptLevel,
    pub machine: String,
    pub env_bytes: u32,
    pub order: LinkOrder,
    pub size: InputSize,
    pub profile: bool,
}

/// Parses an argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let cmd = it.next().ok_or("missing command")?;
    match cmd.as_str() {
        "list" => Ok(Command::List),
        "machines" => Ok(Command::Machines),
        "survey" => Ok(Command::Survey),
        "trace" => {
            let rest: Vec<&String> = it.collect();
            let file = rest
                .iter()
                .find(|a| !a.starts_with("--"))
                .ok_or("missing trace file path")?
                .to_string();
            if let Some(bad) = rest
                .iter()
                .find(|a| a.starts_with("--") && !matches!(a.as_str(), "--summary" | "--flame"))
            {
                return Err(format!("unknown trace option `{bad}`"));
            }
            Ok(Command::Trace {
                file,
                flame: rest.iter().any(|a| a.as_str() == "--flame"),
            })
        }
        "serve" | "loadgen" => {
            let rest: Vec<&String> = it.collect();
            let get = |flag: &str| -> Option<&str> {
                rest.iter()
                    .position(|a| a.as_str() == flag)
                    .and_then(|i| rest.get(i + 1))
                    .map(|s| s.as_str())
            };
            let addr = get("--addr").unwrap_or("unix:/tmp/biaslab.sock").to_owned();
            biaslab_core::serve::Addr::parse(&addr)?; // validate early
            let num = |flag: &str, default: u64| -> Result<u64, String> {
                get(flag)
                    .map(|v| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`")))
                    .transpose()
                    .map(|n| n.unwrap_or(default))
            };
            if cmd == "serve" {
                Ok(Command::Serve {
                    addr,
                    workers: num("--workers", 4)? as usize,
                    queue_depth: num("--queue", 64)? as usize,
                    drain_timeout_ms: num("--drain-timeout", 5000)?,
                })
            } else {
                Ok(Command::Loadgen {
                    addr,
                    clients: num("--clients", 8)? as usize,
                    requests: num("--requests", 50)? as usize,
                    seed: num("--seed", 1)?,
                })
            }
        }
        "client" => {
            let rest: Vec<&String> = it.collect();
            let mut positional = rest.iter().filter(|a| !a.starts_with("--"));
            let op = positional.next().ok_or("missing client op")?.to_string();
            if !matches!(
                op.as_str(),
                "ping" | "stats" | "shutdown" | "measure" | "sweep"
            ) {
                return Err(format!(
                    "unknown client op `{op}` (ping, stats, shutdown, measure, sweep)"
                ));
            }
            let get = |flag: &str| -> Option<&str> {
                rest.iter()
                    .position(|a| a.as_str() == flag)
                    .and_then(|i| rest.get(i + 1))
                    .map(|s| s.as_str())
            };
            let addr = get("--addr").unwrap_or("unix:/tmp/biaslab.sock").to_owned();
            biaslab_core::serve::Addr::parse(&addr)?; // validate early
            let bench = if matches!(op.as_str(), "measure" | "sweep") {
                positional
                    .next()
                    .ok_or(format!("client {op} needs a benchmark name"))?
                    .to_string()
            } else {
                String::new()
            };
            let num = |flag: &str, default: u64| -> Result<u64, String> {
                get(flag)
                    .map(|v| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`")))
                    .transpose()
                    .map(|n| n.unwrap_or(default))
            };
            let machine = get("--machine").unwrap_or("core2").to_owned();
            parse_machine(&machine)?; // validate early
            let envs = match get("--envs") {
                None => Vec::new(),
                Some(list) => list
                    .split(',')
                    .map(|v| {
                        v.parse::<u64>()
                            .map_err(|_| format!("bad --envs entry `{v}`"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?,
            };
            let drain = match get("--mode") {
                None | Some("now") => false,
                Some("drain") => true,
                Some(other) => return Err(format!("unknown --mode `{other}` (now, drain)")),
            };
            Ok(Command::Client(ClientArgs {
                addr,
                op,
                bench,
                machine,
                opt: parse_opt(get("--opt").unwrap_or("O2"))?,
                order: parse_order(get("--order").unwrap_or("default"))?,
                env_bytes: num("--env", 0)?,
                size: parse_size(get("--size").unwrap_or("test"))?,
                budget: num("--budget", 0)?,
                id: num("--id", 1)?,
                envs,
                attempts: u32::try_from(num("--attempts", 4)?)
                    .map_err(|e| format!("bad --attempts: {e}"))?,
                deadline_ms: num("--deadline", 0)?,
                drain,
            }))
        }
        "run" | "disasm" | "audit" | "ir" | "analyze" | "lint" => {
            let rest: Vec<&String> = it.collect();
            let bench = rest
                .iter()
                .find(|a| !a.starts_with("--"))
                .ok_or("missing benchmark name")?
                .to_string();
            let get = |flag: &str| -> Option<&str> {
                rest.iter()
                    .position(|a| a.as_str() == flag)
                    .and_then(|i| rest.get(i + 1))
                    .map(|s| s.as_str())
            };
            let opt = parse_opt(get("--opt").unwrap_or("O2"))?;
            let machine = get("--machine").unwrap_or("core2").to_owned();
            parse_machine(&machine)?; // validate early
            let size = parse_size(get("--size").unwrap_or("test"))?;
            match cmd.as_str() {
                "disasm" => Ok(Command::Disasm { bench, opt }),
                "ir" => Ok(Command::Ir { bench, opt }),
                "audit" => Ok(Command::Audit {
                    bench,
                    machine,
                    size,
                }),
                "analyze" => Ok(Command::Analyze {
                    bench,
                    machine,
                    explain: rest.iter().any(|a| a.as_str() == "--explain"),
                }),
                "lint" => {
                    let deny = get("--deny").map(str::to_owned);
                    if let Some(class) = &deny {
                        if biaslab_analyze::FindingClass::parse(class).is_none() {
                            return Err(format!(
                                "unknown finding class `{class}` (expected one of: {})",
                                biaslab_analyze::FindingClass::ALL
                                    .map(|c| c.name())
                                    .join(", ")
                            ));
                        }
                    }
                    Ok(Command::Lint {
                        bench,
                        machine,
                        json: rest.iter().any(|a| a.as_str() == "--json"),
                        deny,
                    })
                }
                _ => Ok(Command::Run(RunArgs {
                    bench,
                    opt,
                    machine,
                    env_bytes: get("--env").map(parse_env).transpose()?.unwrap_or(0),
                    order: parse_order(get("--order").unwrap_or("default"))?,
                    size,
                    profile: rest.iter().any(|a| a.as_str() == "--profile"),
                })),
            }
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// A `run --env` size: exactly the sizes a daemon request may carry
/// ([`biaslab_core::serve::env_in_range`]), so an unplaceable size is an
/// error here instead of a silent default or a huge fill string.
fn parse_env(v: &str) -> Result<u32, String> {
    v.parse::<u64>()
        .ok()
        .filter(|&b| biaslab_core::serve::env_in_range(b))
        .and_then(|b| u32::try_from(b).ok())
        .ok_or_else(|| {
            format!("bad --env `{v}` (0, or a size from 23 bytes up to what the loader can place)")
        })
}

fn parse_opt(s: &str) -> Result<OptLevel, String> {
    OptLevel::ALL
        .into_iter()
        .find(|l| l.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown optimization level `{s}`"))
}

/// Resolves a machine name to its configuration.
pub fn parse_machine(s: &str) -> Result<MachineConfig, String> {
    MachineConfig::all()
        .into_iter()
        .find(|m| m.name == s)
        .ok_or_else(|| format!("unknown machine `{s}` (pentium4, core2, o3cpu)"))
}

fn parse_size(s: &str) -> Result<InputSize, String> {
    match s {
        "test" => Ok(InputSize::Test),
        "ref" => Ok(InputSize::Ref),
        other => Err(format!("unknown size `{other}` (test, ref)")),
    }
}

fn parse_order(s: &str) -> Result<LinkOrder, String> {
    match s {
        "default" => Ok(LinkOrder::Default),
        "reversed" => Ok(LinkOrder::Reversed),
        "alpha" | "alphabetical" => Ok(LinkOrder::Alphabetical),
        other => {
            if let Some(seed) = other.strip_prefix("rand:") {
                let seed = seed
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed in `{other}`"))?;
                Ok(LinkOrder::Random(seed))
            } else {
                Err(format!(
                    "unknown order `{other}` (default, reversed, alpha, rand:<seed>)"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert_eq!(parse(&argv("machines")).unwrap(), Command::Machines);
        assert_eq!(parse(&argv("survey")).unwrap(), Command::Survey);
    }

    #[test]
    fn parses_run_with_all_flags() {
        let cmd = parse(&argv(
            "run perlbench --opt O3 --machine o3cpu --env 612 --order rand:7 --size ref --profile",
        ))
        .unwrap();
        let Command::Run(a) = cmd else {
            panic!("expected run")
        };
        assert_eq!(a.bench, "perlbench");
        assert_eq!(a.opt, OptLevel::O3);
        assert_eq!(a.machine, "o3cpu");
        assert_eq!(a.env_bytes, 612);
        assert_eq!(a.order, LinkOrder::Random(7));
        assert_eq!(a.size, InputSize::Ref);
        assert!(a.profile);
    }

    #[test]
    fn run_defaults_are_sane() {
        let Command::Run(a) = parse(&argv("run hmmer")).unwrap() else {
            panic!()
        };
        assert_eq!(a.opt, OptLevel::O2);
        assert_eq!(a.machine, "core2");
        assert_eq!(a.env_bytes, 0);
        assert_eq!(a.order, LinkOrder::Default);
        assert!(!a.profile);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("run x --opt O9")).is_err());
        assert!(parse(&argv("run x --machine vax")).is_err());
        assert!(parse(&argv("run x --order rand:zzz")).is_err());
        assert!(parse(&argv("run x --env lots")).is_err());
        // `run --env` takes exactly the sizes a daemon request may carry:
        // none is dropped to the default or allocated before the loader
        // refuses it.
        assert!(parse(&argv("run x --env 10")).is_err());
        assert!(parse(&argv("run x --env 22")).is_err());
        assert!(parse(&argv("run x --env 524289")).is_err());
        assert!(parse(&argv("run x --env 100000000")).is_err());
        for good in [0, 23, 524_288] {
            let Command::Run(a) = parse(&argv(&format!("run x --env {good}"))).unwrap() else {
                panic!("expected run")
            };
            assert_eq!(a.env_bytes, good);
        }
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parses_ir() {
        assert_eq!(
            parse(&argv("ir sjeng --opt O3")).unwrap(),
            Command::Ir {
                bench: "sjeng".into(),
                opt: OptLevel::O3
            }
        );
    }

    #[test]
    fn parses_disasm_and_audit() {
        assert_eq!(
            parse(&argv("disasm milc --opt O0")).unwrap(),
            Command::Disasm {
                bench: "milc".into(),
                opt: OptLevel::O0
            }
        );
        let Command::Audit {
            bench,
            machine,
            size,
        } = parse(&argv("audit gcc --machine pentium4 --size ref")).unwrap()
        else {
            panic!()
        };
        assert_eq!(bench, "gcc");
        assert_eq!(machine, "pentium4");
        assert_eq!(size, InputSize::Ref);
    }

    #[test]
    fn parses_analyze() {
        assert_eq!(
            parse(&argv("analyze perlbench --machine o3cpu --explain")).unwrap(),
            Command::Analyze {
                bench: "perlbench".into(),
                machine: "o3cpu".into(),
                explain: true,
            }
        );
        let Command::Analyze {
            machine, explain, ..
        } = parse(&argv("analyze mcf")).unwrap()
        else {
            panic!()
        };
        assert_eq!(machine, "core2");
        assert!(!explain);
        assert!(parse(&argv("analyze")).is_err());
        assert!(parse(&argv("analyze mcf --machine vax")).is_err());
    }

    #[test]
    fn parses_lint() {
        assert_eq!(
            parse(&argv("lint perlbench --machine o3cpu --json")).unwrap(),
            Command::Lint {
                bench: "perlbench".into(),
                machine: "o3cpu".into(),
                json: true,
                deny: None,
            }
        );
        assert_eq!(
            parse(&argv("lint all --deny uninit-read")).unwrap(),
            Command::Lint {
                bench: "all".into(),
                machine: "core2".into(),
                json: false,
                deny: Some("uninit-read".into()),
            }
        );
        assert!(parse(&argv("lint")).is_err());
        assert!(parse(&argv("lint mcf --machine vax")).is_err());
        let err = parse(&argv("lint mcf --deny style")).unwrap_err();
        assert!(err.contains("unknown finding class"));
        assert!(err.contains("loop-fetch-straddle"));
    }

    #[test]
    fn parses_serve_and_client_supervision_flags() {
        let Command::Serve {
            drain_timeout_ms, ..
        } = parse(&argv("serve --drain-timeout 250")).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(drain_timeout_ms, 250);
        let Command::Serve {
            drain_timeout_ms, ..
        } = parse(&argv("serve")).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(drain_timeout_ms, 5000);

        let Command::Client(a) = parse(&argv("client measure hmmer --deadline 750")).unwrap()
        else {
            panic!("expected client")
        };
        assert_eq!(a.deadline_ms, 750);
        assert!(!a.drain);
        let Command::Client(a) = parse(&argv("client shutdown --mode drain")).unwrap() else {
            panic!("expected client")
        };
        assert!(a.drain);
        let Command::Client(a) = parse(&argv("client shutdown --mode now")).unwrap() else {
            panic!("expected client")
        };
        assert!(!a.drain);
        assert!(parse(&argv("client shutdown --mode later")).is_err());
        assert!(parse(&argv("serve --drain-timeout soon")).is_err());

        // The client sends `--env` unchanged, so the daemon rejects an
        // out-of-range size instead of receiving a narrowed one.
        for env in [4_294_967_296u64, 4_294_967_319] {
            let Command::Client(a) =
                parse(&argv(&format!("client measure hmmer --env {env}"))).unwrap()
            else {
                panic!("expected client")
            };
            assert_eq!(a.env_bytes, env);
        }
        assert!(parse(&argv("client ping --attempts 4294967296")).is_err());
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            parse(&argv("trace results/traces/repro-fig1-quick.jsonl")).unwrap(),
            Command::Trace {
                file: "results/traces/repro-fig1-quick.jsonl".into(),
                flame: false,
            }
        );
        assert_eq!(
            parse(&argv("trace t.jsonl --flame")).unwrap(),
            Command::Trace {
                file: "t.jsonl".into(),
                flame: true,
            }
        );
        let Command::Trace { flame, .. } = parse(&argv("trace t.jsonl --summary")).unwrap() else {
            panic!()
        };
        assert!(!flame);
        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("trace t.jsonl --frobnicate")).is_err());
    }
}
