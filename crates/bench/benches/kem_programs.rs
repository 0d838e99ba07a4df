//! **Program-level KEM measurement** — the full Saber KEM executed as
//! instruction-set coprocessor programs (`saber-coproc`), with every
//! phase measured on the component models and each multiplier
//! architecture plugged in. The program-measured totals are the
//! strongest form of the §1 motivation reproduction: not a cost model
//! but an executed schedule.

use saber_coproc::programs::{encaps_program, keygen_program, run_decaps};
use saber_coproc::Coprocessor;
use saber_core::{CentralizedMultiplier, DspPackedMultiplier, HwMultiplier, LightweightMultiplier};
use saber_kem::params::SABER;

type MultiplierFactory = (&'static str, fn() -> Box<dyn HwMultiplier>);

const FACTORIES: &[MultiplierFactory] = &[
    ("HS-I 256", || Box::new(CentralizedMultiplier::new(256))),
    ("HS-I 512", || Box::new(CentralizedMultiplier::new(512))),
    ("HS-II 128-DSP", || Box::new(DspPackedMultiplier::new())),
    ("LW 4-MAC", || Box::new(LightweightMultiplier::new())),
];

fn print_program_table() {
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>12}",
        "multiplier", "keygen", "encaps", "decaps", "mult share"
    );
    println!("{}", "-".repeat(62));
    for (name, make) in FACTORIES {
        let seed = [42u8; 32];
        let entropy = [7u8; 32];

        let mut hw = make();
        let mut cpu = Coprocessor::new(hw.as_mut());
        cpu.run(&keygen_program(&SABER, &seed)).expect("keygen");
        let pk = cpu.output("pk").unwrap().to_vec();
        let mut seed_s = [0u8; 32];
        seed_s.copy_from_slice(cpu.output("seed_s").unwrap());
        let mut z = [0u8; 32];
        z.copy_from_slice(cpu.output("z").unwrap());
        let kg = cpu.cycles();

        let mut hw2 = make();
        let mut cpu2 = Coprocessor::new(hw2.as_mut());
        cpu2.run(&encaps_program(&SABER, &pk, &entropy))
            .expect("encaps");
        let ct = cpu2.output("ct").unwrap().to_vec();
        let enc = cpu2.cycles();

        let mut hw3 = make();
        let (_, dec) = run_decaps(&SABER, &pk, &seed_s, &z, &ct, hw3.as_mut()).expect("decaps");

        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>11.0}%",
            name,
            kg.total(),
            enc.total(),
            dec.total(),
            100.0 * enc.multiplication_share()
        );
    }
    println!("\npaper §1 (citing [10]): multiplication \"up to 56%\" of the time;");
    println!("[10] reports ~5.4k/6.6k/8.0k-cycle keygen/encaps/decaps on the 256-MAC coprocessor.");
}

fn main() {
    println!("\n=== Saber KEM as coprocessor programs ===\n");
    print_program_table();
}
