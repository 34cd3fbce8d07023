//! Untraced run: prints the end-to-end metrics of one workload.
//!
//! `perfbench --workload analytic|serve|spill --seed N --seconds S --trace 0`

fn main() {
    std::process::exit(perfbench_main());
}

fn perfbench_main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) if !a.trace => a,
        Ok(_) => {
            eprintln!("this binary is the untraced run; use perfbench_traced for --trace 1");
            return 2;
        }
        Err(e) => {
            eprintln!("usage: perfbench --workload W --seed N --seconds S --trace 0: {e}");
            return 2;
        }
    };
    perfbench::finish(perfbench::run(&args))
}
