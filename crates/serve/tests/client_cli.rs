//! The `gmh-client` binary against an in-process daemon: `tune SPEC` sends
//! the spec JSON as the daemon's `"tune"` job, and a SPEC that is not one
//! JSON object is refused before any request reaches the daemon.

use gmh_serve::metrics::sample;
use gmh_serve::server::{spawn, ServerConfig};
use gmh_serve::{Client, Reply};
use std::process::{Command, Output};

fn client(addr: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gmh-client"))
        .arg("--addr")
        .arg(addr)
        .args(args)
        .output()
        .expect("gmh-client runs")
}

#[test]
fn tune_sends_the_spec_json_and_refuses_a_malformed_one() {
    let dir = std::env::temp_dir().join(format!("gmh-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 2,
        job_timeout_ms: 120_000,
        cache_dir: dir.clone(),
    })
    .expect("spawn test server");
    let addr = handle.addr.to_string();
    let accepted = || {
        let text = Client::connect(&addr)
            .and_then(|mut c| c.metrics())
            .expect("metrics");
        sample(&text, "gmh_requests_accepted_total").expect("accepted counter")
    };

    // A boolean knob, which the spec carries as JSON.
    let out = client(
        &addr,
        &["tune", r#"{"preset":"smoke","seed":11,"shrink":true}"#],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\"frontier\":[{"), "{stdout}");

    let before = accepted();
    for bad in [r#"{"preset":"smoke"} x"#, r#"{"seed":7}"#, "[1]"] {
        let out = client(&addr, &["tune", bad]);
        assert!(!out.status.success(), "{bad:?} was accepted");
    }
    assert_eq!(accepted(), before, "a refused SPEC sends nothing");

    let mut c = Client::connect(&addr).expect("connect");
    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
