//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <table1|table2|fig9|...|fig17|ablations|throughput|faults|hotpath|all> \
//!             [--scale N] [--quick] [--bench-json PATH]
//! ```
//!
//! `--quick` and `--bench-json` apply to `hotpath` only.

use semitri_bench::{
    ablations, faults, fig10, fig11, fig12_13, fig14, fig15_16, fig17, fig9, hotpath, tables,
    throughput, Scale,
};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table1|table2|fig9|...|fig17|ablations|throughput|faults|hotpath|all> \
         [--scale N] [--quick] [--bench-json PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = Scale(1);
    let mut hotpath_opts = hotpath::HotpathOptions::default();
    let mut which: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    usage();
                };
                scale = Scale(v.max(1));
            }
            "--quick" => hotpath_opts.quick = true,
            "--bench-json" => {
                let Some(p) = it.next() else { usage() };
                hotpath_opts.json_path = Some(p);
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        usage();
    }
    let mut failed = false;

    for w in which {
        match w.as_str() {
            "table1" => tables::table1(scale),
            "table2" => tables::table2(scale),
            "fig9" => fig9::run(scale),
            "fig10" => fig10::run(scale),
            "fig11" => fig11::run(scale),
            "fig12" => fig12_13::fig12(scale),
            "fig13" => fig12_13::fig13(scale),
            "fig14" => fig14::run(scale),
            "fig15" => fig15_16::fig15(scale),
            "fig16" => fig15_16::fig16(scale),
            "fig17" => fig17::run(scale),
            "ablations" => ablations::run(scale),
            "throughput" => throughput::run(scale),
            "faults" => faults::run(scale),
            "hotpath" => failed |= !hotpath::run(&hotpath_opts),
            "all" => {
                // microbenchmarks first: they want the quiet heap a
                // standalone `hotpath` run gets, not one pre-fragmented by
                // fourteen experiments
                failed |= !hotpath::run(&hotpath_opts);
                tables::table1(scale);
                tables::table2(scale);
                fig9::run(scale);
                fig10::run(scale);
                fig11::run(scale);
                fig12_13::fig12(scale);
                fig12_13::fig13(scale);
                fig14::run(scale);
                fig15_16::fig15(scale);
                fig15_16::fig16(scale);
                fig17::run(scale);
                ablations::run(scale);
                throughput::run(scale);
                faults::run(scale);
            }
            _ => usage(),
        }
    }
    if failed {
        std::process::exit(1);
    }
}
