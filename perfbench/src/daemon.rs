//! A `paper serve` child process: started, pinged until ready, shut
//! down, and killed if anything goes wrong on the way.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use heterovliw_core::api::{Client, Request};

const READY_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `paper serve --socket S --jobs N --store DIR` and returns
    /// once it answers a ping. Its log goes to `log`.
    pub fn start(
        paper: &Path,
        socket: &Path,
        jobs: usize,
        store: &Path,
        log: &Path,
    ) -> Result<Self, String> {
        let _ = std::fs::remove_file(socket);
        let log = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(paper)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--jobs")
            .arg(jobs.to_string())
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", paper.display()))?;
        let mut d = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let start = Instant::now();
        loop {
            if let Ok(mut c) = Client::connect(socket) {
                if c.request(&Request::Ping).is_ok_and(|r| r.ok) {
                    return Ok(d);
                }
            }
            if let Some(status) = d.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited before it was ready: {status}"));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("daemon did not answer a ping within 60 s".to_owned());
            }
            sleep(Duration::from_millis(2));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child
            .as_mut()
            .expect("daemon child present until shutdown")
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    pub fn pid(&mut self) -> u32 {
        self.child_mut().id()
    }

    /// The daemon's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let pid = self.pid();
        crate::peak_rss_mb(&format!("/proc/{pid}/status"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = Client::connect(&self.socket)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.request(&Request::Shutdown));
        let mut child = self
            .child
            .take()
            .expect("daemon child present until shutdown");
        let start = Instant::now();
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() && sent.is_ok() => return Ok(()),
                Some(status) => return Err(format!("daemon shutdown: {status}, {sent:?}")),
                None if start.elapsed() > EXIT_TIMEOUT => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit within 30 s of shutdown".to_owned());
                }
                None => sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
