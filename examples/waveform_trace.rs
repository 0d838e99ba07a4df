//! Signal-level debugging: trace a miniature accumulator-streaming
//! pipeline and dump a VCD waveform.
//!
//! ```sh
//! cargo run --release --example waveform_trace
//! # then open target/lw_pipeline.vcd in GTKWave or any VCD viewer
//! ```
//!
//! Records the §4.1 port-contention pattern with
//! `saber::trace::vcd::VcdWriter`: the accumulator stream saturates the
//! BRAM ports until a public-word load steals the read port and stalls
//! the datapath. The waveform is then parsed back with
//! `saber::trace::vcd::parse`, which is where the stall steps printed
//! below come from.

use std::fs;

use saber::hw::Bram;
use saber::trace::vcd::{self, VcdWriter};

/// Clock cycles traced; one VCD time unit per cycle.
const CYCLES: u64 = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mem = Bram::new(32);
    mem.preload(0, &[11, 22, 33, 44, 55, 66, 77, 88]);
    let mut writer = VcdWriter::new();
    let stall = writer.add_wire("lw.stall", 1);
    let read_addr = writer.add_wire("lw.bram.read_addr", 5);
    let write_addr = writer.add_wire("lw.bram.write_addr", 5);
    let read_data = writer.add_wire("lw.bram.read_data", 64);

    // Steady accumulator streaming with a load stall in the middle.
    let mut stalled_cycles = 0u64;
    for cycle in 0..CYCLES {
        let steal = cycle == 5; // a public word load steals the read port
        writer.change(cycle, stall, u64::from(steal));
        if steal {
            mem.issue_read(31)?; // the "public polynomial" word
            writer.change(cycle, read_addr, 31);
            stalled_cycles += 1;
        } else {
            let addr = (cycle % 8) as usize;
            mem.issue_read(addr)?;
            writer.change(cycle, read_addr, addr as u64);
            mem.issue_write(16 + addr, cycle * 100)?;
            writer.change(cycle, write_addr, (16 + addr) as u64);
        }
        mem.tick();
        if let Some(data) = mem.read_data() {
            writer.change(cycle, read_data, data);
        }
    }

    let text = writer.finish(CYCLES);
    fs::create_dir_all("target")?;
    fs::write("target/lw_pipeline.vcd", &text)?;

    let doc = vcd::parse(&text)?;
    println!(
        "traced {CYCLES} cycles ({stalled_cycles} stalled) across {} signals",
        doc.signals.len()
    );
    println!("stall steps (cycle, value): {:?}", doc.steps("lw.stall"));
    println!(
        "VCD written to target/lw_pipeline.vcd ({} bytes)",
        text.len()
    );
    Ok(())
}
