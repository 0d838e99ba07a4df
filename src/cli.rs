//! Command-line front end shared by the `saber-sim` binary.
//!
//! Hand-rolled argument handling (the workspace deliberately keeps its
//! dependency set minimal); each subcommand maps onto one of the
//! reproduction's entry points.

use std::fmt;
use std::io;

use saber_bench::paper;
use saber_bench::tables::{canonical_operands, format_table1};
use saber_coproc::disasm::{disassemble, profile};
use saber_coproc::programs::{encaps_program, keygen_program, run_kem};
use saber_core::dsp_packed::MAX_PACKED_MAGNITUDE;
use saber_core::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, HwMultiplier,
    KaratsubaHwMultiplier, LightweightMultiplier, MemoryStrategy, ScaledLightweightMultiplier,
    SlidingLightweightMultiplier, ToomCookHwMultiplier,
};
use saber_kem::params::{SaberParams, FIRE_SABER, LIGHT_SABER, SABER};
use saber_kem::{decaps, encaps, keygen};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run one multiplication on the named architecture.
    Mult {
        /// Architecture key (see [`architecture_keys`]).
        arch: String,
    },
    /// Full KEM round-trip on the named backend.
    Kem {
        /// Parameter-set key (`lightsaber` / `saber` / `firesaber`).
        params: String,
        /// Architecture key.
        arch: String,
    },
    /// Print the Table-1 reproduction.
    Table1,
    /// Print the full-coprocessor projection.
    Coprocessor,
    /// Print the LW power breakdown.
    Power,
    /// Run the KEM as instruction-set coprocessor programs.
    KemProgram {
        /// Parameter-set key.
        params: String,
        /// Architecture key.
        arch: String,
    },
    /// Disassemble a coprocessor program (`keygen` or `encaps`).
    Disasm {
        /// Which program (`keygen` / `encaps`).
        op: String,
    },
    /// Dump the golden SoC co-simulation scenario as an IEEE-1364 VCD
    /// waveform (open in GTKWave).
    Vcd {
        /// Multiplier clock-divider stride (1 = same clock as the XOF,
        /// 2 = half rate).
        stride: u64,
        /// Output file; `None` streams the document to stdout.
        out: Option<String>,
    },
    /// Print usage.
    Help,
}

/// Error produced when an invocation cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCommandError(String);

impl fmt::Display for ParseCommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseCommandError {}

/// The accepted architecture keys.
#[must_use]
pub fn architecture_keys() -> &'static [&'static str] {
    &[
        "baseline-256",
        "baseline-512",
        "hs1-256",
        "hs1-512",
        "hs2",
        "hs2-256",
        "lw",
        "lw-sliding",
        "lw-8",
        "lw-16",
        "toom-hw",
        "karatsuba-hw",
    ]
}

/// Instantiates an architecture by key.
///
/// # Errors
///
/// Returns [`ParseCommandError`] for an unknown key.
pub fn build_architecture(key: &str) -> Result<Box<dyn HwMultiplier>, ParseCommandError> {
    Ok(match key {
        "baseline-256" => Box::new(BaselineMultiplier::new(256)),
        "baseline-512" => Box::new(BaselineMultiplier::new(512)),
        "hs1-256" => Box::new(CentralizedMultiplier::new(256)),
        "hs1-512" => Box::new(CentralizedMultiplier::new(512)),
        "hs2" => Box::new(DspPackedMultiplier::new()),
        "hs2-256" => Box::new(DspPackedMultiplier::with_dsps(256)),
        "lw" => Box::new(LightweightMultiplier::new()),
        "lw-sliding" => Box::new(SlidingLightweightMultiplier::new()),
        "lw-8" => Box::new(ScaledLightweightMultiplier::new(
            8,
            MemoryStrategy::AccumulatorBuffer,
        )),
        "lw-16" => Box::new(ScaledLightweightMultiplier::new(
            16,
            MemoryStrategy::AccumulatorBuffer,
        )),
        "toom-hw" => Box::new(ToomCookHwMultiplier::new()),
        "karatsuba-hw" => Box::new(KaratsubaHwMultiplier::new(8)),
        other => {
            return Err(ParseCommandError(format!(
                "unknown architecture `{other}`; expected one of: {}",
                architecture_keys().join(", ")
            )))
        }
    })
}

fn parse_params(key: &str) -> Result<&'static SaberParams, ParseCommandError> {
    match key {
        "lightsaber" => Ok(&LIGHT_SABER),
        "saber" => Ok(&SABER),
        "firesaber" => Ok(&FIRE_SABER),
        other => Err(ParseCommandError(format!(
            "unknown parameter set `{other}`; expected lightsaber, saber or firesaber"
        ))),
    }
}

/// Validates a parameter set and architecture for a KEM run: both keys
/// must be known, and the HS-II datapaths, whose 15-bit packing (§3.2)
/// holds secrets of magnitude up to [`MAX_PACKED_MAGNITUDE`] only,
/// refuse LightSaber (|s| ≤ 5).
fn check_kem_pair(params: &str, arch: &str) -> Result<(), ParseCommandError> {
    let set = parse_params(params)?;
    build_architecture(arch)?;
    if matches!(arch, "hs2" | "hs2-256") && set.secret_bound() > MAX_PACKED_MAGNITUDE {
        return Err(ParseCommandError(format!(
            "architecture `{arch}` packs secrets of magnitude up to {MAX_PACKED_MAGNITUDE}; \
             {} draws up to {}",
            set.name,
            set.secret_bound()
        )));
    }
    Ok(())
}

/// Reads the arguments after `command` as `--flag value` pairs, each
/// flag one of `allowed`, given at most once and with a value. Returns
/// each allowed flag's value, in `allowed` order.
fn flags<'a, const N: usize>(
    command: &str,
    args: &'a [String],
    allowed: [&str; N],
) -> Result<[Option<&'a str>; N], ParseCommandError> {
    let mut values = [None; N];
    let mut args = args.iter().map(String::as_str);
    while let Some(flag) = args.next() {
        let Some(slot) = allowed.iter().position(|&name| name == flag) else {
            let takes = if N == 0 {
                "no arguments".to_string()
            } else {
                allowed.join(", ")
            };
            return Err(ParseCommandError(format!(
                "`{command}` does not take `{flag}`; it takes {takes}"
            )));
        };
        if values[slot].is_some() {
            return Err(ParseCommandError(format!("`{flag}` is given twice")));
        }
        let value = args.next().filter(|value| !value.starts_with("--"));
        values[slot] =
            Some(value.ok_or_else(|| ParseCommandError(format!("`{flag}` needs a value")))?);
    }
    Ok(values)
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns [`ParseCommandError`] describing the problem, including any
/// argument the command does not take and a flag without its value.
pub fn parse(args: &[String]) -> Result<Command, ParseCommandError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let command = command.as_str();
    match command {
        "help" | "--help" | "-h" => flags(command, rest, []).map(|[]| Command::Help),
        "mult" => {
            let [arch] = flags(command, rest, ["--arch"])?;
            let arch =
                arch.ok_or_else(|| ParseCommandError("mult requires --arch <key>".into()))?;
            build_architecture(arch)?; // validate early
            Ok(Command::Mult { arch: arch.into() })
        }
        "kem" | "kem-program" => {
            let [params, arch] = flags(command, rest, ["--params", "--arch"])?;
            let params = params.unwrap_or("saber").to_string();
            let arch = arch.unwrap_or("hs1-256").to_string();
            check_kem_pair(&params, &arch)?;
            Ok(if command == "kem" {
                Command::Kem { params, arch }
            } else {
                Command::KemProgram { params, arch }
            })
        }
        "table1" => flags(command, rest, []).map(|[]| Command::Table1),
        "disasm" => {
            let [op] = flags(command, rest, ["--op"])?;
            let op = op.unwrap_or("keygen");
            if !matches!(op, "keygen" | "encaps") {
                return Err(ParseCommandError(format!(
                    "unknown program `{op}`; expected keygen or encaps"
                )));
            }
            Ok(Command::Disasm { op: op.into() })
        }
        "coprocessor" => flags(command, rest, []).map(|[]| Command::Coprocessor),
        "power" => flags(command, rest, []).map(|[]| Command::Power),
        "vcd" => {
            let [stride, out] = flags(command, rest, ["--stride", "--out"])?;
            let stride = match stride.unwrap_or("1") {
                "1" => 1,
                "2" => 2,
                other => {
                    return Err(ParseCommandError(format!(
                        "unknown stride `{other}`; expected 1 or 2"
                    )))
                }
            };
            Ok(Command::Vcd {
                stride,
                out: out.map(String::from),
            })
        }
        other => Err(ParseCommandError(format!(
            "unknown command `{other}` (try `saber-sim help`)"
        ))),
    }
}

/// Usage text.
#[must_use]
pub fn usage() -> String {
    format!(
        "saber-sim — cycle-accurate Saber multiplier simulator (DAC 2021 reproduction)\n\n\
         USAGE:\n\
         \x20 saber-sim mult --arch <ARCH>             one multiplication + Table-1 row\n\
         \x20 saber-sim kem [--params <P>] [--arch <ARCH>]  full KEM round-trip on hardware\n\
         \x20 saber-sim table1                         print the Table-1 reproduction\n\
         \x20 saber-sim coprocessor                    full-coprocessor projection (§5.2)\n\
         \x20 saber-sim kem-program [--params <P>] [--arch <ARCH>]  KEM as coprocessor programs\n\
         \x20 saber-sim disasm [--op keygen|encaps]    disassemble a coprocessor program\n\
         \x20 saber-sim power                          LW power breakdown (§5)\n\
         \x20 saber-sim vcd [--stride 1|2] [--out <FILE>]  golden co-sim scenario as a VCD waveform\n\n\
         ARCH: {}\n\
         P:    lightsaber | saber | firesaber\n",
        architecture_keys().join(" | ")
    )
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Propagates write errors from `out`, and the failure to write the
/// waveform file of a [`Command::Vcd`] with an `out` path, naming the
/// path.
pub fn run(command: &Command, out: &mut dyn io::Write) -> io::Result<()> {
    match command {
        Command::Help => writeln!(out, "{}", usage()),
        Command::Table1 => writeln!(out, "{}", format_table1()),
        Command::Coprocessor => write!(out, "{}", paper::coprocessor_projection()),
        Command::Power => write!(out, "{}", paper::lw_power()),
        Command::Vcd { stride, out: path } => {
            let cfg = saber_soc::ScenarioConfig::reference(0xC0DE_CAB1, *stride);
            let (outcome, _, trace) = saber_soc::run_scenario_probed(&cfg);
            match path {
                Some(path) => {
                    std::fs::write(path, &trace.vcd).map_err(|e| {
                        io::Error::new(e.kind(), format!("cannot write {path}: {e}"))
                    })?;
                    writeln!(
                        out,
                        "wrote {path}: golden co-sim scenario at stride {stride} \
                         (makespan {} cycles, {} scheduler events, {} signal lines) — \
                         open in GTKWave",
                        outcome.makespan,
                        trace.events,
                        trace.vcd.lines().count()
                    )
                }
                None => write!(out, "{}", trace.vcd),
            }
        }
        Command::Disasm { op } => {
            let program = if op == "keygen" {
                keygen_program(&SABER, &[0; 32])
            } else {
                encaps_program(&SABER, &vec![0u8; SABER.public_key_bytes()], &[0; 32])
            };
            writeln!(out, "{}", disassemble(&program))?;
            writeln!(out, "opcode histogram:")?;
            for (mnemonic, count) in profile(&program) {
                writeln!(out, "  {mnemonic:<8} ×{count}")?;
            }
            Ok(())
        }
        Command::KemProgram { params, arch } => {
            let params = parse_params(params).expect("validated at parse time");
            let mut hw = build_architecture(arch).expect("validated at parse time");
            let run = run_kem(params, &[42; 32], &[7; 32], hw.as_mut())
                .expect("KEM programs are well-formed");
            writeln!(
                out,
                "{} as coprocessor programs on {arch}: shared secrets {}",
                params.name,
                if run.ss_encaps == run.ss_decaps {
                    "MATCH"
                } else {
                    "MISMATCH"
                }
            )?;
            for (op, c) in [
                ("keygen", run.keygen),
                ("encaps", run.encaps),
                ("decaps", run.decaps),
            ] {
                writeln!(
                    out,
                    "  {op:<8} {:>9} cycles  (hash {:>6}, mult {:>6} = {:>3.0}%, poly {:>5}, dma {:>5})",
                    c.total(),
                    c.hashing,
                    c.multiplication,
                    100.0 * c.multiplication_share(),
                    c.poly_ops,
                    c.data_movement
                )?;
            }
            Ok(())
        }
        Command::Mult { arch } => {
            let mut hw = build_architecture(arch).expect("validated at parse time");
            let (a, s) = canonical_operands();
            let product = hw.multiply(&a, &s);
            let check = saber_ring::schoolbook::mul_asym(&a, &s);
            writeln!(
                out,
                "{}\nproduct check vs schoolbook: {}",
                hw.report(),
                if product == check { "OK" } else { "MISMATCH" }
            )
        }
        Command::Kem { params, arch } => {
            let params = parse_params(params).expect("validated at parse time");
            let mut hw = build_architecture(arch).expect("validated at parse time");
            let (pk, sk) = keygen(params, &[42; 32], hw.as_mut());
            let (ct, ss1) = encaps(&pk, &[7; 32], hw.as_mut());
            let ss2 = decaps(&sk, &ct, hw.as_mut());
            writeln!(
                out,
                "{} on {}: shared secrets {} ({} multiplications simulated, {} per mult)",
                params.name,
                hw.name(),
                if ss1 == ss2 { "MATCH" } else { "MISMATCH" },
                params.multiplication_counts().keygen
                    + params.multiplication_counts().encaps
                    + params.multiplication_counts().decaps,
                hw.report().cycles
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    /// What `run` writes for `command`.
    fn output(command: &Command) -> String {
        let mut out = Vec::new();
        run(command, &mut out).unwrap();
        String::from_utf8(out).expect("the CLI writes UTF-8")
    }

    #[test]
    fn parses_every_command() {
        assert_eq!(parse(&args(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["table1"])).unwrap(), Command::Table1);
        assert_eq!(parse(&args(&["power"])).unwrap(), Command::Power);
        assert_eq!(
            parse(&args(&["mult", "--arch", "hs2"])).unwrap(),
            Command::Mult { arch: "hs2".into() }
        );
        assert_eq!(
            parse(&args(&["kem", "--params", "firesaber", "--arch", "lw"])).unwrap(),
            Command::Kem {
                params: "firesaber".into(),
                arch: "lw".into()
            }
        );
    }

    #[test]
    fn kem_defaults() {
        assert_eq!(
            parse(&args(&["kem"])).unwrap(),
            Command::Kem {
                params: "saber".into(),
                arch: "hs1-256".into()
            }
        );
    }

    #[test]
    fn parses_vcd_command() {
        assert_eq!(
            parse(&args(&["vcd"])).unwrap(),
            Command::Vcd {
                stride: 1,
                out: None
            }
        );
        assert_eq!(
            parse(&args(&["vcd", "--stride", "2", "--out", "wave.vcd"])).unwrap(),
            Command::Vcd {
                stride: 2,
                out: Some("wave.vcd".into())
            }
        );
        assert!(parse(&args(&["vcd", "--stride", "3"]))
            .unwrap_err()
            .to_string()
            .contains("unknown stride"));
    }

    #[test]
    fn run_vcd_streams_a_waveform_document() {
        let out = output(&Command::Vcd {
            stride: 1,
            out: None,
        });
        assert!(out.starts_with("$timescale"), "VCD header first");
        assert!(out.contains("$scope module soc $end"), "{}", &out[..200]);
        assert!(out.contains("c2_hs1_512_matvec"), "component scope present");
        assert!(out.contains("#394"), "golden 1:1 run reaches cycle 394");
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn rejects_unknown_inputs() {
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["mult", "--arch", "nope"]))
            .unwrap_err()
            .to_string()
            .contains("unknown architecture"));
        assert!(parse(&args(&["kem", "--params", "kyber"])).is_err());
        assert!(parse(&args(&["mult"])).is_err());
        for command in ["kem", "kem-program"] {
            for arch in ["hs2", "hs2-256"] {
                let err = parse(&args(&[command, "--params", "lightsaber", "--arch", arch]))
                    .unwrap_err()
                    .to_string();
                assert!(err.contains("magnitude up to 4"), "{command} {arch}: {err}");
                assert!(parse(&args(&[command, "--params", "saber", "--arch", arch])).is_ok());
            }
        }
    }

    #[test]
    fn rejects_flags_a_command_does_not_take_and_flags_without_values() {
        for (list, expected) in [
            (
                &["kem", "--param", "firesaber", "--arch", "hs1-512"][..],
                "`kem` does not take `--param`; it takes --params, --arch",
            ),
            (
                &["mult", "--arch", "hs2", "--params", "saber"],
                "take `--params`",
            ),
            (&["table1", "extra"], "it takes no arguments"),
            (
                &["disasm", "--op", "keygen", "--op", "encaps"],
                "given twice",
            ),
            (&["vcd", "--stride"], "`--stride` needs a value"),
            (
                &["vcd", "--stride", "--out", "wave.vcd"],
                "`--stride` needs a value",
            ),
            (&["mult", "--arch"], "`--arch` needs a value"),
        ] {
            let err = parse(&args(list)).unwrap_err().to_string();
            assert!(err.contains(expected), "{list:?}: {err}");
        }
    }

    #[test]
    fn run_vcd_reports_a_file_it_cannot_write() {
        let dir = std::env::temp_dir().join(format!("saber-sim-absent-{}", std::process::id()));
        assert!(!dir.exists(), "{} must not exist", dir.display());
        let path = dir.join("wave.vcd").display().to_string();
        let command = parse(&args(&["vcd", "--out", &path])).unwrap();
        let err = run(&command, &mut Vec::new()).unwrap_err().to_string();
        assert!(err.contains(&format!("cannot write {path}")), "{err}");
    }

    #[test]
    fn every_architecture_key_builds() {
        for key in architecture_keys() {
            assert!(build_architecture(key).is_ok(), "{key}");
        }
    }

    #[test]
    fn run_mult_reports_ok() {
        let out = output(&Command::Mult {
            arch: "hs1-256".into(),
        });
        assert!(out.contains("OK"), "{out}");
        assert!(out.contains("HS-I 256"), "{out}");
    }

    #[test]
    fn run_kem_matches() {
        let out = output(&Command::Kem {
            params: "saber".into(),
            arch: "hs1-512".into(),
        });
        assert!(out.contains("MATCH"), "{out}");
    }

    #[test]
    fn run_kem_program_splits_each_operation() {
        let out = output(&Command::KemProgram {
            params: "saber".into(),
            arch: "hs1-512".into(),
        });
        assert!(
            out.starts_with("Saber as coprocessor programs on hs1-512: shared secrets MATCH\n"),
            "{out}"
        );
        for op in ["keygen", "encaps", "decaps"] {
            assert!(out.contains(&format!("  {op} ")), "{op} missing in:\n{out}");
        }
        assert_eq!(out.matches(" cycles  (hash ").count(), 3, "{out}");
    }

    #[test]
    fn run_table1_prints_rows() {
        let out = output(&Command::Table1);
        assert!(out.contains("HS-II"));
        assert!(out.contains("LW"));
    }

    #[test]
    fn usage_mentions_all_architectures() {
        let text = usage();
        for key in architecture_keys() {
            assert!(text.contains(key), "usage missing {key}");
        }
    }
}
