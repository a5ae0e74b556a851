//! The `chaos` command: an interactive (or scripted) front-end over a
//! simulated LightVM host.
//!
//! ```text
//! chaos [--mode lightvm|chaos-noxs|chaos-xs|chaos-xs-split|xl]
//!       [--machine xeon4|amd64c|xeon14] [--dom0-cores N] [--seed N]
//!       [script...]
//! ```
//!
//! With script files, commands are read from them; otherwise from stdin.
//! Malformed arguments exit with status 2.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use lightvm::cli::{parse_args, Cli, CmdOutcome, USAGE};

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("chaos: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let mut cli = Cli::new(args.machine, args.dom0_cores, args.mode, args.seed);
    if args.scripts.is_empty() {
        println!(
            "chaos: {} on {:?} (type `help`)",
            args.mode.label(),
            args.machine
        );
        let stdin = std::io::stdin();
        loop {
            print!("chaos> ");
            std::io::stdout().flush().ok();
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            let mut out = String::new();
            let outcome = cli.exec(&line, &mut out);
            print!("{out}");
            if outcome == CmdOutcome::Quit {
                break;
            }
        }
    } else {
        for path in args.scripts {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("chaos: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            for line in text.lines() {
                let mut out = String::new();
                let outcome = cli.exec(line, &mut out);
                print!("{out}");
                if outcome == CmdOutcome::Quit {
                    return ExitCode::SUCCESS;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
