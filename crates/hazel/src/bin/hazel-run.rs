//! `hazel-run`: run a livelit module file from the command line.
//!
//! ```console
//! $ hazel-run program.hzl              # result + livelit dashboard
//! $ hazel-run --expansion program.hzl  # also print the full expansion
//! $ hazel-run --session program.hzl    # program text + GUIs
//! ```
//!
//! Module files may contain textual livelit declarations, `def` bindings,
//! and a main expression (see `hazel::lang::module`); the standard livelit
//! library ($color, $slider, $dataframe, ...) is preloaded.

use std::process::ExitCode;

use hazel::prelude::*;

fn usage() -> ExitCode {
    eprintln!("usage: hazel-run [--expansion] [--session] [--dashboard] <file.hzl>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut show_expansion = false;
    let mut show_session = false;
    let mut show_dashboard = true;
    let mut path = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--expansion" => show_expansion = true,
            "--session" => {
                show_session = true;
                show_dashboard = false;
            }
            "--dashboard" => show_dashboard = true,
            "--help" | "-h" => return usage(),
            _ if arg.starts_with('-') => return usage(),
            _ => path = Some(arg),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("hazel-run: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let (registry, doc) = match hazel::editor::open_module(registry, &src) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("hazel-run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match hazel::editor::run(&registry, &doc) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hazel-run: {e}");
            return ExitCode::FAILURE;
        }
    };

    for err in &out.errors {
        eprintln!("warning: livelit at {} marked: {}", err.hole, err.error);
    }
    if show_session {
        println!(
            "{}",
            hazel::editor::render_session(&registry, &doc, &out, 80)
        );
    } else if show_dashboard && !doc.livelit_holes().is_empty() {
        println!("{}", hazel::editor::render_dashboard(&registry, &doc, &out));
    }
    if show_expansion {
        let expansion = match hazel::editor::expansion(&registry, &doc) {
            Ok(expansion) => expansion,
            Err(e) => {
                eprintln!("hazel-run: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("== expansion ==");
        println!("{}\n", hazel::lang::pretty::print_eexp(&expansion, 80));
    }
    println!(
        "{} : {}",
        hazel::lang::pretty::print_iexp(&out.result, 80),
        out.collection.ty
    );
    ExitCode::SUCCESS
}
