//! `gmh-exp`: every table, figure and diagnostic of the evaluation behind
//! one executable (`gmh-exp list` names them); see [`gmh_exp::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Unlocked handles: a worker thread's panic message must not wait on us.
    ExitCode::from(gmh_exp::cli::run(
        &args,
        &mut std::io::stdout(),
        &mut std::io::stderr(),
    ))
}
