//! The detector's `timing.*` trace counters must round-trip through the
//! Chrome trace-event export and its schema validator.
//!
//! Run as its own integration binary (own process), so the captured
//! session sees only this test's counters. The target runs on a virtual
//! clock with a planted class separation, guaranteeing all three
//! counters — samples, crops, and the per-window t-stat — are nonzero.

use std::cell::Cell;
use std::rc::Rc;

use saber_testkit::json::Value;
use saber_testkit::Rng;
use saber_timing::{detect, Class, TimingConfig, TimingTarget};
use saber_trace::clock::Clock;

struct VirtualClock(Rc<Cell<u64>>);

impl Clock for VirtualClock {
    fn now_ns(&mut self) -> u64 {
        self.0.get()
    }
}

struct LeakyTarget {
    time: Rc<Cell<u64>>,
    calls: u64,
}

impl TimingTarget for LeakyTarget {
    type Input = (Class, u64);

    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input {
        (class, rng.next_u64() % 32)
    }

    fn execute(&mut self, input: &Self::Input) {
        self.calls += 1;
        let base = match input.0 {
            Class::Fixed => 1000,
            Class::Random => 1150,
        };
        // Periodic class-blind spike so the crop counter has work.
        let spike = if self.calls.is_multiple_of(11) {
            500_000
        } else {
            0
        };
        self.time.set(self.time.get() + base + input.1 + spike);
    }
}

#[test]
fn timing_counters_survive_into_the_chrome_export() {
    let session = saber_trace::start();
    let time = Rc::new(Cell::new(0));
    let mut target = LeakyTarget {
        time: Rc::clone(&time),
        calls: 0,
    };
    let mut cfg = TimingConfig::with_samples(1024);
    cfg.seed = 0x7E_ACE5;
    let report = detect(&mut target, &cfg, &mut VirtualClock(Rc::clone(&time)));
    let trace = session.finish();
    assert!(report.is_leak(), "the planted separation must be found");

    const COUNTERS: [&str; 3] = ["timing.samples", "timing.cropped", "timing.t_stat_milli"];
    for name in COUNTERS {
        assert!(
            trace.counter_total(name) > 0,
            "counter {name} missing from the captured trace"
        );
    }
    // One emission per analysis window for the sample counter.
    assert_eq!(
        trace.counter_total("timing.samples"),
        i64::try_from(report.samples_collected).unwrap(),
        "per-window sample counters must sum to the collected total"
    );

    let text = saber_trace::chrome::export_string(Some(&trace), &[]);
    let doc = saber_testkit::json::parse(&text).expect("export parses");
    saber_trace::chrome::validate(&doc).expect("export validates");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    for name in COUNTERS {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(Value::as_str) == Some("C")
                    && e.get("name").and_then(Value::as_str) == Some(name)
            }),
            "counter {name} missing from the Chrome export"
        );
    }
}
