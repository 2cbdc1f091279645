//! Regenerates the paper's Fig. 6: code localization and extraction
//! statistics for the PhotoFlow (Photoshop-analogue) filters, followed by
//! the wall time of each lifting phase per filter.

use helium_apps::photoflow::PhotoFilter;
use helium_bench::{lift_photoflow, BENCH_HEIGHT, BENCH_WIDTH};
use helium_core::LiftPhases;

fn main() {
    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>12} {:>10} {:>12} {:>10}",
        "Filter",
        "total BB",
        "diff BB",
        "filter BB",
        "static ins",
        "mem dump",
        "dyn ins",
        "tree size"
    );
    let filters = [
        PhotoFilter::Invert,
        PhotoFilter::Blur,
        PhotoFilter::BlurMore,
        PhotoFilter::Sharpen,
        PhotoFilter::SharpenMore,
        PhotoFilter::Threshold,
        PhotoFilter::BoxBlur,
        PhotoFilter::Brightness,
        PhotoFilter::Equalize,
    ];
    let mut phases = Vec::new();
    for filter in filters {
        let result =
            std::panic::catch_unwind(|| lift_photoflow(filter, BENCH_WIDTH / 2, BENCH_HEIGHT / 2));
        match result {
            Ok((_, lifted)) => {
                phases.push((filter.name(), lifted.stats.phases));
                let s = &lifted.stats;
                let tree_sizes: Vec<String> = s.tree_sizes.iter().map(|t| t.to_string()).collect();
                println!(
                    "{:<14} {:>9} {:>9} {:>11} {:>12} {:>9}K {:>12} {:>10}",
                    filter.name(),
                    s.total_basic_blocks,
                    s.diff_basic_blocks,
                    s.filter_function_blocks,
                    s.static_instruction_count,
                    s.memory_dump_bytes / 1024,
                    s.dynamic_instruction_count,
                    tree_sizes.join("/")
                );
            }
            Err(_) => {
                println!("{:<14} (not lifted: see EXPERIMENTS.md)", filter.name());
            }
        }
    }

    print_phases(&phases);
}

/// One row per lifted filter: milliseconds in each lifting phase, then each
/// phase's share of the summed time over all filters.
fn print_phases(phases: &[(&str, LiftPhases)]) {
    let Some((_, first)) = phases.first() else {
        return;
    };
    println!();
    print!("{:<14}", "Phase ms");
    for (name, _) in first.named() {
        print!(" {name:>13}");
    }
    println!(" {:>9}", "total");
    let mut sums = [0.0f64; 11];
    for (filter, p) in phases {
        print!("{filter:<14}");
        for (sum, (_, d)) in sums.iter_mut().zip(p.named()) {
            let ms = d.as_secs_f64() * 1e3;
            *sum += ms;
            print!(" {ms:>13.1}");
        }
        println!(" {:>9.1}", p.total().as_secs_f64() * 1e3);
    }
    let total: f64 = sums.iter().sum();
    print!("{:<14}", "share");
    for sum in sums {
        print!(" {:>12.1}%", 100.0 * sum / total);
    }
    println!();
}
