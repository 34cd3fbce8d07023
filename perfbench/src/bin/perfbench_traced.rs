//! Traced run: records spans and prints the per-layer metrics. Counts heap
//! allocations (`elim.allocs`), which is why it is a binary of its own.
//!
//! `perfbench_traced --workload analytic|serve|spill --seed N --seconds S --trace 1`

#[global_allocator]
static ALLOC: faq_testalloc::CountingAllocator = faq_testalloc::CountingAllocator;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) if a.trace => a,
        Ok(_) => {
            eprintln!("this binary is the traced run; use perfbench for --trace 0");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("usage: perfbench_traced --workload W --seed N --seconds S --trace 1: {e}");
            std::process::exit(2);
        }
    };
    std::process::exit(perfbench::finish(perfbench::run(&args)));
}
