//! Argument parsing (dependency-free, flag-per-option).

use biaslab_analyze::FindingClass;
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
                               stack-residue, dead-store, uninit-read)
  trace <file>                 report on a telemetry trace (from
                               `repro ... --trace`): slowest measurements,
                               cache effectiveness, worker utilization
  serve                        measurement daemon: JSONL requests over a
                               unix/tcp socket, bounded admission queue,
                               explicit shed responses under overload,
                               supervised worker pool (panicked workers
                               respawn; `stats` reports health ok |
                               degraded | draining), per-request
                               deadlines, SIGTERM graceful drain; keeps
                               what it measures in the results file
  client <op> [<benchmark>]    one-shot daemon request; op is ping,
                               stats, shutdown, measure or sweep
  survey                       print the 133-paper literature survey

setup options (run and client take all five; disasm and ir take --opt,
audit --machine and --size, analyze and lint --machine):
  --opt <O0|O1|O2|O3>          optimization level       [default O2]
  --machine <name>             pentium4 | core2 | o3cpu [default core2]
  --env <bytes>                environment size         [default 0]
  --order <spec>               default|reversed|alpha|rand:<seed>
  --size <test|ref>            input size               [default test]

options (run/analyze/lint):
  --profile                    (run) print a per-function profile
  --explain                    (analyze) per-level image facts
  --json                       (lint) machine-readable JSONL findings
  --deny <class>               (lint) exit nonzero if any finding of
                               the class is reported

options (trace):
  --summary                    full report (the default)
  --flame                      merged profiles, folded-stacks form

options (serve/client):
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

environment:
  BIASLAB_CACHE_CAP=<n>        cap the in-memory measurement cache at n
                               records, evicting the oldest first
  BIASLAB_FAULTS=<spec>        deterministic fault injection, e.g.
                               seed=7,save.io=0.5,leader.panic=@1
  BIASLAB_RESULTS_DIR=<dir>    relocate results/ (measurements, traces;
                               read by repro and serve)";

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
        deny: Option<FindingClass>,
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

/// A flag a command accepts, and whether it takes a value.
type Flag = (&'static str, bool);

/// Every command with the most positional arguments it takes and the
/// flags it accepts. Anything else on its command line is a usage error,
/// so a misspelled flag never runs with a silent default.
const COMMANDS: &[(&str, usize, &[Flag])] = &[
    ("list", 0, &[]),
    ("machines", 0, &[]),
    ("survey", 0, &[]),
    (
        "run",
        1,
        &[
            ("--opt", true),
            ("--machine", true),
            ("--env", true),
            ("--order", true),
            ("--size", true),
            ("--profile", false),
        ],
    ),
    ("disasm", 1, &[("--opt", true)]),
    ("ir", 1, &[("--opt", true)]),
    ("audit", 1, &[("--machine", true), ("--size", true)]),
    ("analyze", 1, &[("--machine", true), ("--explain", false)]),
    (
        "lint",
        1,
        &[("--machine", true), ("--json", false), ("--deny", true)],
    ),
    ("trace", 1, &[("--summary", false), ("--flame", false)]),
    (
        "serve",
        0,
        &[
            ("--addr", true),
            ("--workers", true),
            ("--queue", true),
            ("--drain-timeout", true),
        ],
    ),
    (
        "client",
        2,
        &[
            ("--addr", true),
            ("--machine", true),
            ("--opt", true),
            ("--order", true),
            ("--env", true),
            ("--size", true),
            ("--budget", true),
            ("--id", true),
            ("--envs", true),
            ("--attempts", true),
            ("--deadline", true),
            ("--mode", true),
        ],
    ),
];

/// One command line, scanned once against its command's flag table.
struct Scan<'a> {
    positional: Vec<&'a str>,
    /// Each flag given, in order, with its value (`""` for a switch).
    flags: Vec<(&'static str, &'a str)>,
}

impl<'a> Scan<'a> {
    fn new(cmd: &str, args: &'a [String]) -> Result<Scan<'a>, String> {
        let &(_, max_positional, table) = COMMANDS
            .iter()
            .find(|(name, _, _)| *name == cmd)
            .ok_or_else(|| format!("unknown command `{cmd}`"))?;
        let mut scan = Scan {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if scan.positional.len() == max_positional {
                    return Err(format!("unexpected argument `{arg}` for `{cmd}`"));
                }
                scan.positional.push(arg);
                continue;
            }
            let &(flag, takes_value) = table
                .iter()
                .find(|(flag, _)| flag == arg)
                .ok_or_else(|| format!("unknown option `{arg}` for `{cmd}`"))?;
            let value = if takes_value {
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} takes a value"))?
            } else {
                ""
            };
            scan.flags.push((flag, value));
        }
        Ok(scan)
    }

    /// The value of `flag`; when it is given more than once, the last.
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn num(&self, flag: &str, default: u64) -> Result<u64, String> {
        self.get(flag)
            .map(|v| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`")))
            .transpose()
            .map(|n| n.unwrap_or(default))
    }

    fn machine(&self) -> Result<String, String> {
        let machine = self.get("--machine").unwrap_or("core2");
        parse_machine(machine)?; // validate early
        Ok(machine.to_owned())
    }

    fn addr(&self) -> Result<String, String> {
        let addr = self.get("--addr").unwrap_or("unix:/tmp/biaslab.sock");
        biaslab_core::serve::Addr::parse(addr)?; // validate early
        Ok(addr.to_owned())
    }
}

/// Parses an argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let (cmd, rest) = argv.split_first().ok_or("missing command")?;
    let cmd = cmd.as_str();
    let a = Scan::new(cmd, rest)?;
    let first = a.positional.first().map(|s| (*s).to_owned());
    match cmd {
        "list" => Ok(Command::List),
        "machines" => Ok(Command::Machines),
        "survey" => Ok(Command::Survey),
        "trace" => Ok(Command::Trace {
            file: first.ok_or("missing trace file path")?,
            flame: a.has("--flame"),
        }),
        "serve" => Ok(Command::Serve {
            addr: a.addr()?,
            workers: a.num("--workers", 4)? as usize,
            queue_depth: a.num("--queue", 64)? as usize,
            drain_timeout_ms: a.num("--drain-timeout", 5000)?,
        }),
        "client" => {
            let op = first.ok_or("missing client op")?;
            if !matches!(
                op.as_str(),
                "ping" | "stats" | "shutdown" | "measure" | "sweep"
            ) {
                return Err(format!(
                    "unknown client op `{op}` (ping, stats, shutdown, measure, sweep)"
                ));
            }
            let addr = a.addr()?;
            let bench = match (op.as_str(), a.positional.get(1)) {
                ("measure" | "sweep", Some(bench)) => (*bench).to_owned(),
                ("measure" | "sweep", None) => {
                    return Err(format!("client {op} needs a benchmark name"))
                }
                (_, Some(extra)) => {
                    return Err(format!("unexpected argument `{extra}` for `client {op}`"))
                }
                (_, None) => String::new(),
            };
            let machine = a.machine()?;
            let envs = match a.get("--envs") {
                None => Vec::new(),
                Some(list) => list
                    .split(',')
                    .map(|v| {
                        v.parse::<u64>()
                            .map_err(|_| format!("bad --envs entry `{v}`"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?,
            };
            let drain = match a.get("--mode") {
                None | Some("now") => false,
                Some("drain") => true,
                Some(other) => return Err(format!("unknown --mode `{other}` (now, drain)")),
            };
            Ok(Command::Client(ClientArgs {
                addr,
                op,
                bench,
                machine,
                opt: parse_opt(a.get("--opt").unwrap_or("O2"))?,
                order: parse_order(a.get("--order").unwrap_or("default"))?,
                env_bytes: a.num("--env", 0)?,
                size: parse_size(a.get("--size").unwrap_or("test"))?,
                budget: a.num("--budget", 0)?,
                id: a.num("--id", 1)?,
                envs,
                attempts: u32::try_from(a.num("--attempts", 4)?)
                    .map_err(|e| format!("bad --attempts: {e}"))?,
                deadline_ms: a.num("--deadline", 0)?,
                drain,
            }))
        }
        _ => {
            let bench = first.ok_or("missing benchmark name")?;
            match cmd {
                "disasm" => Ok(Command::Disasm {
                    bench,
                    opt: parse_opt(a.get("--opt").unwrap_or("O2"))?,
                }),
                "ir" => Ok(Command::Ir {
                    bench,
                    opt: parse_opt(a.get("--opt").unwrap_or("O2"))?,
                }),
                "audit" => Ok(Command::Audit {
                    bench,
                    machine: a.machine()?,
                    size: parse_size(a.get("--size").unwrap_or("test"))?,
                }),
                "analyze" => Ok(Command::Analyze {
                    bench,
                    machine: a.machine()?,
                    explain: a.has("--explain"),
                }),
                "lint" => Ok(Command::Lint {
                    bench,
                    machine: a.machine()?,
                    json: a.has("--json"),
                    deny: a.get("--deny").map(parse_class).transpose()?,
                }),
                _ => Ok(Command::Run(RunArgs {
                    bench,
                    opt: parse_opt(a.get("--opt").unwrap_or("O2"))?,
                    machine: a.machine()?,
                    env_bytes: a.get("--env").map(parse_env).transpose()?.unwrap_or(0),
                    order: parse_order(a.get("--order").unwrap_or("default"))?,
                    size: parse_size(a.get("--size").unwrap_or("test"))?,
                    profile: a.has("--profile"),
                })),
            }
        }
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

fn parse_class(s: &str) -> Result<FindingClass, String> {
    FindingClass::parse(s).ok_or_else(|| {
        format!(
            "unknown finding class `{s}` (expected one of: {})",
            FindingClass::ALL.map(FindingClass::name).join(", ")
        )
    })
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
        // A misspelled flag, a flag missing its value and an argument the
        // command does not take are usage errors, never silent defaults.
        for bad in [
            "run hmmer --evn 4096",
            "run hmmer --env",
            "run hmmer --machine pentium4 --optt O3",
            "run hmmer extra",
            "serve --worker 1",
            "client stats --idd 5",
        ] {
            assert!(parse(&argv(bad)).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn every_flag_is_in_the_usage_and_every_usage_flag_is_parsed() {
        let parsed: std::collections::BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|(_, _, flags)| flags.iter().map(|&(flag, _)| flag))
            .collect();
        // Flags in backticks belong to other programs (`repro ... --trace`).
        let listed: std::collections::BTreeSet<&str> = USAGE
            .split('`')
            .step_by(2)
            .flat_map(|text| text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter(|word| word.starts_with("--"))
            .collect();
        assert_eq!(parsed, listed);
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
                deny: Some(FindingClass::UninitRead),
            }
        );
        assert!(parse(&argv("lint")).is_err());
        assert!(parse(&argv("lint mcf --machine vax")).is_err());
        for class in ["style", "btb-collision"] {
            let err = parse(&argv(&format!("lint mcf --deny {class}"))).unwrap_err();
            assert!(err.contains("unknown finding class"), "{class}: {err}");
            assert!(err.contains("loop-fetch-straddle"), "{class}: {err}");
        }
        // The usage lists exactly the classes `--deny` accepts.
        let lint = &USAGE[USAGE.find("  lint ").unwrap()..USAGE.find("  trace ").unwrap()];
        let listed: Vec<&str> = lint[lint.find("classes:").unwrap() + "classes:".len()..]
            .split(|c: char| c.is_whitespace() || c == ',' || c == ')')
            .filter(|w| !w.is_empty())
            .collect();
        assert_eq!(listed, FindingClass::ALL.map(FindingClass::name));
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
