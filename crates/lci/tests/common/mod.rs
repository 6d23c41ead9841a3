//! Test support shared by the integration tests that need a given
//! per-core resource layout whatever the host's core count.

/// Runs `body` where [`lci::topology::ncores`] is `cores`, so every
/// per-core structure (packet-pool stripes, buffer-pool shelves, stats
/// cells, `home_device` routing) is laid out over that many cores. When
/// this process already sees `cores` cores that is here. Otherwise it is
/// a child re-running this test binary's test `name` alone with
/// `LCI_CORES=<cores>`, and this asserts that the child passed it.
pub fn on_cores(cores: usize, name: &str, body: impl FnOnce()) {
    if lci::topology::ncores() == cores {
        return body();
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([name, "--exact", "--test-threads=1"])
        .env("LCI_CORES", cores.to_string())
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{name} under LCI_CORES={cores} did not pass:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
