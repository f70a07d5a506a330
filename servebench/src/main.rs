//! Runs one workload of the serving benchmark and prints its report, then
//! one JSON result line. Exits 1 if any output check failed, 2 on bad
//! arguments.

use oxbar_servebench::{run, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# {} seed {} over {} s, trace {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for line in &outcome.report {
        println!("# {line}");
    }
    for m in &outcome.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "{:<44} {:>16.6} {:<8} n={}{note}",
            m.name, m.value, m.unit, m.n
        );
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
