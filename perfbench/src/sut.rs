//! The system under test: unmodified `sofia-cli serve --empty`
//! processes, one per node, each bound to an ephemeral loopback port.

use crate::procfs;
use sofia_net::Client;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// How to launch one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// `--shards`.
    pub shards: usize,
    /// `--checkpoint-dir` and `--checkpoint-every`, when durable.
    pub checkpoint: Option<(PathBuf, u64)>,
}

/// One running `serve` process. Dropping it kills and reaps the process
/// (the error path); [`Node::shutdown`] stops it gracefully.
pub struct Node {
    /// The address the node advertises (its resolved bind address).
    pub endpoint: String,
    /// OS process id.
    pub pid: u32,
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
}

impl Node {
    /// Spawns `sut serve --empty` and waits for its listening banner.
    pub fn launch(sut: &Path, config: &NodeConfig) -> Result<Node, String> {
        let mut cmd = Command::new(sut);
        cmd.args(["serve", "--bind", "127.0.0.1:0", "--empty", "true"])
            .args(["--shards", &config.shards.to_string()]);
        if let Some((dir, every)) = &config.checkpoint {
            cmd.arg("--checkpoint-dir")
                .arg(dir)
                .args(["--checkpoint-every", &every.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", sut.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        // From here on the guard reaps the child on every error path.
        let mut node = Node {
            endpoint: String::new(),
            pid,
            child: Some(child),
            stdout: BufReader::new(stdout),
        };
        node.endpoint = node.await_banner()?;
        Ok(node)
    }

    /// Reads stdout up to `serve: listening on <addr> ...`.
    fn await_banner(&mut self) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the SUT's banner: {e}"))?;
            if n == 0 {
                return Err("the SUT exited before listening".to_string());
            }
            if let Some(addr) = parse_banner(&line) {
                return Ok(addr.to_string());
            }
        }
    }

    /// CPU time the process has used so far.
    pub fn cpu(&self) -> Result<procfs::CpuTicks, String> {
        procfs::cpu_of(self.pid).ok_or_else(|| format!("cannot read /proc/{}/stat", self.pid))
    }

    /// Peak RSS and live threads.
    pub fn status(&self) -> Result<procfs::Status, String> {
        procfs::status_of(self.pid).ok_or_else(|| format!("cannot read /proc/{}/status", self.pid))
    }

    /// Sends a `shutdown` frame and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        Client::connect_as(self.endpoint.as_str(), "perfbench-shutdown")
            .and_then(Client::shutdown_server)
            .map_err(|e| format!("shutting down {}: {e}", self.endpoint))?;
        // Drain the farewell line so the process never writes into a
        // closed pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .take()
            .expect("a live node owns its child")
            .wait()
            .map_err(|e| format!("waiting for {}: {e}", self.endpoint))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("node {} exited with {status}", self.endpoint))
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The address in `serve`'s listening banner.
pub fn parse_banner(line: &str) -> Option<&str> {
    line.split_once("listening on ")?
        .1
        .split_whitespace()
        .next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_address() {
        let line = "serve: listening on 127.0.0.1:40123 (2 shards); send a `shutdown` frame\n";
        assert_eq!(parse_banner(line), Some("127.0.0.1:40123"));
        assert_eq!(parse_banner("serve: starting empty\n"), None);
    }
}
