//! `orion-sim`: command-line collocation runner.
//!
//! Compose a collocation from the command line, run it on a simulated GPU,
//! and get per-client latency/throughput (optionally as JSON or with a
//! Chrome trace). Examples:
//!
//! ```text
//! orion-sim --policy orion --hp resnet50:inf:poisson:15 --be mobilenetv2:train
//! orion-sim --policy mps --gpu a100 --horizon-s 8 --seed 7 \
//!           --hp bert:inf:apollo:4 --be transformer:inf:uniform:20 --json
//! orion-sim --policy orion --hp resnet50:inf:poisson:15 \
//!           --be resnet50:train --trace /tmp/run.json
//! ```
//!
//! Client syntax: `<model>:<inf|train>[:<poisson|uniform|apollo|closed>[:<rps>]]`.
//! Models: resnet50, resnet101, mobilenetv2, bert, transformer, llm.
//! Policies: orion, orion-aggressive, reef, mps, streams, stream-priority,
//! temporal, ticktock.

use std::process::ExitCode;

use orion::core::policy::OrionConfig;
use orion::prelude::*;

fn usage() -> &'static str {
    "orion-sim: run a GPU collocation on the simulated device\n\
     \n\
     USAGE:\n\
       orion-sim --policy <p> --hp <client> [--be <client>]... [options]\n\
     \n\
     CLIENT:\n\
       <model>:<inf|train>[:<poisson|uniform|apollo|closed>[:<rps>]]\n\
       models: resnet50 resnet101 mobilenetv2 bert transformer llm\n\
       default arrivals: closed loop\n\
     \n\
     OPTIONS:\n\
       --policy <p>      orion | orion-aggressive | reef | mps | streams |\n\
                         stream-priority | temporal | ticktock   (required)\n\
       --gpu <g>         v100 | a100                     (default v100)\n\
       --horizon-s <s>   simulated seconds               (default 12)\n\
       --warmup-s <s>    excluded from statistics        (default 2)\n\
       --seed <n>        arrival seed                    (default 42)\n\
       --dur-threshold <frac>   Orion DUR_THRESHOLD      (default 0.025)\n\
       --json            machine-readable output\n\
       --trace <path>    write a Chrome trace of the run\n"
}

fn parse_model(s: &str) -> Result<ModelKind, String> {
    Ok(match s {
        "resnet50" => ModelKind::ResNet50,
        "resnet101" => ModelKind::ResNet101,
        "mobilenetv2" => ModelKind::MobileNetV2,
        "bert" => ModelKind::Bert,
        "transformer" => ModelKind::Transformer,
        "llm" => ModelKind::LlmDecode,
        other => return Err(format!("unknown model '{other}'")),
    })
}

fn parse_client(spec: &str, hp: bool, speedup: f64) -> Result<ClientSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 2 {
        return Err(format!("client '{spec}': expected <model>:<inf|train>..."));
    }
    let model = parse_model(parts[0])?;
    let workload = match parts[1] {
        "inf" => {
            if model == ModelKind::LlmDecode {
                orion::workloads::models::llm::llm_decode_step()
            } else {
                inference_workload(model)
            }
        }
        "train" => {
            if model == ModelKind::LlmDecode {
                return Err("llm has no training configuration".into());
            }
            training_workload(model)
        }
        other => return Err(format!("client '{spec}': unknown kind '{other}'")),
    }
    .scaled(speedup);

    let rps = || -> Result<f64, String> {
        let rps = parts
            .get(3)
            .ok_or_else(|| format!("client '{spec}': arrival process needs :<rps>"))?
            .parse::<f64>()
            .map_err(|e| format!("client '{spec}': bad rps: {e}"))?;
        if !(rps.is_finite() && rps > 0.0) {
            return Err(format!("client '{spec}': rps must be positive and finite"));
        }
        Ok(rps)
    };
    let arrivals = match parts.get(2).copied().unwrap_or("closed") {
        "closed" => ArrivalProcess::ClosedLoop,
        "poisson" => ArrivalProcess::Poisson { rps: rps()? },
        "uniform" => ArrivalProcess::Uniform { rps: rps()? },
        "apollo" => ArrivalProcess::Apollo { mean_rps: rps()? },
        other => return Err(format!("client '{spec}': unknown arrivals '{other}'")),
    };
    Ok(if hp {
        ClientSpec::high_priority(workload, arrivals)
    } else {
        ClientSpec::best_effort(workload, arrivals)
    })
}

fn parse_policy(name: &str, spec: &GpuSpec, dur: f64) -> Result<PolicyKind, String> {
    Ok(match name {
        "orion" => PolicyKind::Orion(OrionConfig::default().with_dur_threshold(dur)),
        "orion-aggressive" => PolicyKind::Orion(
            OrionConfig::default()
                .with_dur_threshold(dur)
                .with_sm_threshold(spec.num_sms + 1),
        ),
        "reef" => PolicyKind::reef_default(),
        "mps" => PolicyKind::Mps,
        "streams" => PolicyKind::Streams,
        "stream-priority" => PolicyKind::StreamPriority,
        "temporal" => PolicyKind::Temporal,
        "ticktock" => PolicyKind::TickTock,
        other => return Err(format!("unknown policy '{other}'")),
    })
}

struct Args {
    policy: String,
    hp: Vec<String>,
    be: Vec<String>,
    gpu: String,
    horizon_s: u64,
    warmup_s: u64,
    seed: u64,
    dur_threshold: f64,
    json: bool,
    trace: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        policy: String::new(),
        hp: Vec::new(),
        be: Vec::new(),
        gpu: "v100".into(),
        horizon_s: 12,
        warmup_s: 2,
        seed: 42,
        dur_threshold: 0.025,
        json: false,
        trace: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--policy" => a.policy = val("--policy")?,
            "--hp" => a.hp.push(val("--hp")?),
            "--be" => a.be.push(val("--be")?),
            "--gpu" => a.gpu = val("--gpu")?,
            "--horizon-s" => {
                a.horizon_s = val("--horizon-s")?.parse().map_err(|e| format!("{e}"))?
            }
            "--warmup-s" => a.warmup_s = val("--warmup-s")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--dur-threshold" => {
                a.dur_threshold = val("--dur-threshold")?.parse().map_err(|e| format!("{e}"))?
            }
            "--json" => a.json = true,
            "--trace" => a.trace = Some(val("--trace")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.policy.is_empty() {
        return Err("--policy is required".into());
    }
    if a.hp.is_empty() {
        return Err("at least one --hp client is required".into());
    }
    Ok(a)
}

fn run(args: &Args) -> Result<(), String> {
    let spec = match args.gpu.as_str() {
        "v100" => GpuSpec::v100_16gb(),
        "a100" => GpuSpec::a100_40gb(),
        other => return Err(format!("unknown gpu '{other}'")),
    };
    let speedup = spec.speedup_vs_v100();
    let mut clients = Vec::new();
    for c in &args.hp {
        clients.push(parse_client(c, true, speedup)?);
    }
    for c in &args.be {
        clients.push(parse_client(c, false, speedup)?);
    }
    let policy = parse_policy(&args.policy, &spec, args.dur_threshold)?;

    let mut cfg = RunConfig::paper_default().with_spec(spec).with_seed(args.seed);
    cfg.horizon = SimTime::from_secs(args.horizon_s);
    cfg.warmup = SimTime::from_secs(args.warmup_s);
    cfg.record_trace = args.trace.is_some();

    let mut result =
        run_collocation(policy, clients, &cfg).map_err(|e| format!("run failed: {e}"))?;

    if let Some(path) = &args.trace {
        let trace = result.trace.take().expect("trace was enabled");
        trace
            .save_chrome_trace(std::path::Path::new(path))
            .map_err(|e| format!("writing trace: {e}"))?;
        eprintln!("trace written to {path}");
    }

    if args.json {
        let clients_json: Vec<orion_json::Value> = result
            .clients
            .iter_mut()
            .map(|c| {
                orion_json::json!({
                    "label": &c.label,
                    "priority": format!("{:?}", c.priority),
                    "completed": c.completed,
                    "throughput_per_s": c.throughput,
                    "p50_ms": c.latency.p50().as_millis_f64(),
                    "p95_ms": c.latency.p95().as_millis_f64(),
                    "p99_ms": c.latency.p99().as_millis_f64(),
                })
            })
            .collect();
        let out = orion_json::json!({
            "policy": result.policy,
            "window_s": result.window.as_secs_f64(),
            "utilization": orion_json::json!({
                "compute": result.utilization.compute,
                "mem_bw": result.utilization.mem_bw,
                "sm_busy": result.utilization.sm_busy,
            }),
            "clients": clients_json,
        });
        println!("{}", out.to_pretty());
    } else {
        println!("policy: {}", result.policy);
        println!(
            "device utilization: compute {:.1}%, mem bw {:.1}%, SM {:.1}%",
            100.0 * result.utilization.compute,
            100.0 * result.utilization.mem_bw,
            100.0 * result.utilization.sm_busy,
        );
        println!(
            "{:<28} {:>5} {:>10} {:>9} {:>9} {:>9}",
            "client", "prio", "completed", "req/s", "p50[ms]", "p99[ms]"
        );
        for c in result.clients.iter_mut() {
            println!(
                "{:<28} {:>5} {:>10} {:>9.2} {:>9.2} {:>9.2}",
                c.label,
                if c.priority == orion::core::client::ClientPriority::HighPriority {
                    "HP"
                } else {
                    "BE"
                },
                c.completed,
                c.throughput,
                c.latency.p50().as_millis_f64(),
                c.latency.p99().as_millis_f64(),
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprint!("{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_spec_parses_all_forms() {
        let spec = GpuSpec::v100_16gb();
        let s = spec.speedup_vs_v100();
        assert!(parse_client("resnet50:inf:poisson:15", true, s).is_ok());
        assert!(parse_client("mobilenetv2:train", false, s).is_ok());
        assert!(parse_client("bert:inf:apollo:4", true, s).is_ok());
        assert!(parse_client("transformer:inf:uniform:20", false, s).is_ok());
        assert!(parse_client("llm:inf", true, s).is_ok());
    }

    #[test]
    fn client_spec_rejects_bad_forms() {
        let s = 1.0;
        assert!(parse_client("resnet50", true, s).is_err(), "missing kind");
        assert!(parse_client("nope:inf", true, s).is_err(), "bad model");
        assert!(parse_client("bert:invalid", true, s).is_err(), "bad kind");
        assert!(parse_client("bert:inf:poisson", true, s).is_err(), "missing rps");
        assert!(parse_client("bert:inf:poisson:abc", true, s).is_err(), "bad rps");
        for rps in ["nan", "inf", "-inf", "0", "-2"] {
            for arrivals in ["poisson", "uniform", "apollo"] {
                let spec = format!("resnet50:inf:{arrivals}:{rps}");
                assert!(parse_client(&spec, true, s).is_err(), "{spec}");
            }
        }
        assert!(parse_client("llm:train", true, s).is_err(), "llm training");
        assert!(parse_client("bert:inf:warp:3", true, s).is_err(), "bad arrivals");
    }

    #[test]
    fn policies_parse() {
        let spec = GpuSpec::v100_16gb();
        for p in [
            "orion",
            "orion-aggressive",
            "reef",
            "mps",
            "streams",
            "stream-priority",
            "temporal",
            "ticktock",
        ] {
            assert!(parse_policy(p, &spec, 0.025).is_ok(), "{p}");
        }
        assert!(parse_policy("nope", &spec, 0.025).is_err());
        // The aggressive variant opens SM_THRESHOLD past the device size.
        match parse_policy("orion-aggressive", &spec, 0.01).unwrap() {
            PolicyKind::Orion(cfg) => {
                assert_eq!(cfg.sm_threshold, Some(spec.num_sms + 1));
                assert_eq!(cfg.dur_threshold_frac, Some(0.01));
            }
            other => panic!("unexpected policy {other:?}"),
        }
    }

    #[test]
    fn args_parse_and_validate() {
        let argv: Vec<String> = [
            "--policy", "orion", "--hp", "resnet50:inf:poisson:15", "--be",
            "mobilenetv2:train", "--gpu", "a100", "--horizon-s", "6",
            "--seed", "7", "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.policy, "orion");
        assert_eq!(a.hp.len(), 1);
        assert_eq!(a.be.len(), 1);
        assert_eq!(a.gpu, "a100");
        assert_eq!(a.horizon_s, 6);
        assert_eq!(a.seed, 7);
        assert!(a.json);

        // Missing required flags are rejected.
        assert!(parse_args(&["--policy".into(), "orion".into()]).is_err());
        assert!(parse_args(&["--hp".into(), "bert:inf".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--policy".into()]).is_err(), "dangling value");
    }
}
