//! The `apc-cli` binary: a thin shell around [`apc_cli::execute`].

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let output = match apc_cli::execute(&args) {
        Ok(output) => output,
        Err(err) => {
            eprintln!("apc-cli: {err}");
            std::process::exit(err.exit_code());
        }
    };
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(output.as_bytes())
        .and_then(|()| stdout.flush())
    {
        // A reader that stops early (`| head`) closes the pipe: the output
        // is no longer wanted, which is not a failure.
        Err(err) if err.kind() != ErrorKind::BrokenPipe => {
            eprintln!("apc-cli: writing to stdout: {err}");
            std::process::exit(1);
        }
        _ => {}
    }
}
