//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <command> [--quick]
//!
//! commands:
//!   fig1 table2 fig5 fig6 table3 fig7 fig8 table4 fig9
//!   cases24 ablation-models ablation-mc ablation-period ablation-abft
//!   ablation-granularity arch-dse
//!   all
//! ```
//!
//! `--quick` runs a reduced-fidelity campaign (fewer samples, smaller GP)
//! for smoke-testing; headline numbers should be produced without it.

use besst_experiments::calibration::CalibrationConfig;
use besst_experiments::paper::CaseStudy;
use besst_experiments::{ablations, cases24, fig1, fig56, fig78, fig9, paper, run_table2};
use besst_models::SymRegConfig;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro <command> [--quick]\n\
         commands: fig1 table2 fig5 fig6 table3 fig7 fig8 table4 fig9\n\
         \u{20}         cases24 ablation-models ablation-mc ablation-period ablation-abft\n\
         \u{20}         ablation-granularity arch-dse all"
    );
    std::process::exit(2);
}

fn calibration_cfg(quick: bool) -> CalibrationConfig {
    if quick {
        CalibrationConfig {
            samples_per_point: 6,
            symreg: SymRegConfig { population: 96, generations: 15, ..Default::default() },
            symreg_restarts: 2,
            ..paper::default_calibration()
        }
    } else {
        paper::default_calibration()
    }
}

struct Lazy {
    quick: bool,
    cs: Option<CaseStudy>,
}

impl Lazy {
    fn case_study(&mut self) -> &CaseStudy {
        if self.cs.is_none() {
            eprintln!("[repro] calibrating the case study (benchmark campaign + model fitting)...");
            let t = Instant::now();
            self.cs = Some(CaseStudy::build(&calibration_cfg(self.quick)));
            eprintln!("[repro] calibration done in {:.1}s", t.elapsed().as_secs_f64());
        }
        self.cs.as_ref().expect("just built")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let commands: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    if commands.len() != 1 {
        usage();
    }
    let all = [
        "table2", "fig1", "fig5", "fig6", "table3", "fig7", "fig8", "table4", "fig9", "cases24",
        "ablation-models", "ablation-mc", "ablation-period", "ablation-abft", "ablation-granularity",
        "arch-dse",
    ];
    let selected: Vec<&str> = match commands[0] {
        "all" => all.to_vec(),
        c if all.contains(&c) => vec![c],
        _ => usage(),
    };

    let mut lazy = Lazy { quick, cs: None };
    for cmd in selected {
        let t = Instant::now();
        let out = match cmd {
            "table2" => run_table2(),
            "fig1" => fig1::run_fig1(&calibration_cfg(quick)),
            "fig5" => fig56::run_fig5(lazy.case_study()),
            "fig6" => fig56::run_fig6(lazy.case_study()),
            "table3" => fig56::run_table3(lazy.case_study()),
            "fig7" => fig78::run_fig7(lazy.case_study()),
            "fig8" => fig78::run_fig8(lazy.case_study()),
            "table4" => fig78::run_table4(lazy.case_study()),
            "fig9" => fig9::run_fig9(lazy.case_study()),
            "cases24" => cases24::run_cases24(lazy.case_study()),
            "ablation-models" => ablations::run_ablation_models(&calibration_cfg(quick)),
            "ablation-mc" => ablations::run_ablation_mc(lazy.case_study()),
            "ablation-period" => ablations::run_ablation_period(lazy.case_study()),
            "ablation-abft" => besst_experiments::abft_dse::run_ablation_abft(&calibration_cfg(quick)),
            "ablation-granularity" => {
                ablations::run_ablation_granularity(&calibration_cfg(quick))
            }
            "arch-dse" => besst_experiments::arch_dse::run_arch_dse(&calibration_cfg(quick)),
            _ => unreachable!("validated above"),
        };
        println!("==================================================================");
        println!("{out}");
        eprintln!("[repro] {cmd} finished in {:.1}s", t.elapsed().as_secs_f64());
    }
}
